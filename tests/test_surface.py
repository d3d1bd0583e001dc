import importlib
import json
import pkgutil

import rackforge


def test_public_names_resolve_once_and_star_import_works():
    modules = [rackforge] + [
        importlib.import_module("rackforge." + info.name)
        for info in pkgutil.iter_modules(rackforge.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(names) == len(set(names)), module.__name__
    namespace = {}
    exec("from rackforge import *", namespace)
    assert set(rackforge.__all__) <= set(namespace)



def test_every_result_record_has_pinned_json_keys():
    # a record's JSON form is read off its fields, so renaming a field
    # renames a report key; every key set is pinned here, nested ones too
    from rackforge.acceptance import run_criterion
    from rackforge.classify import (
        classify_class,
        fw_identify,
        lemma_square_check,
        subrack_census,
        witness_search,
    )
    from rackforge.homology import second_homology
    from rackforge.perm import Permutation
    from rackforge.rack import class_rack

    witness_keys = {"sigma", "tau", "subgroup_order", "orbit_answer"}
    row_keys = {"closure_size", "case_tag", "subgroup_order", "abelian", "count"}
    five_cycle = Permutation.cycle([1, 2, 3, 4, 5], 5)
    census = subrack_census(5, 5)
    squares = lemma_square_check(7, 7)
    assert squares.violations
    outcome = witness_search(7, 8)
    records = [
        (classify_class(13, 13), {"p", "m", "verdict", "reason"}),
        (fw_identify(five_cycle, five_cycle**2), {"tag", "p", "m", "order", "names"}),
        (
            outcome,
            {
                "p", "m", "strategy", "status", "witness",
                "pairs_tested", "indeterminate", "seed", "budget",
            },
        ),
        (census.rows[0], row_keys),
        (census, {"p", "m", "exhaustive", "pairs", "rows"}),
        (
            squares,
            {
                "p", "m", "exhaustive", "pairs_checked", "square_pairs",
                "commuting", "order_two", "violations", "holds",
            },
        ),
        (outcome.witness, witness_keys),
        (second_homology(class_rack(5, 5)), {"free_rank", "torsion", "pretty"}),
        (run_criterion(1), {"number", "name", "passed", "seconds", "bound_seconds", "details"}),
    ]
    for record, keys in records:
        data = record.to_json_dict()
        assert set(data) == keys, type(record).__name__
        assert json.loads(json.dumps(data)) == data, type(record).__name__
    assert set(outcome.to_json_dict()["witness"]) == witness_keys
    assert set(outcome.witness.to_json_dict()["sigma"]) == {"degree", "images"}
    assert all(set(row) == row_keys for row in census.to_json_dict()["rows"])
    for violation in squares.to_json_dict()["violations"]:
        assert set(violation) == {"tau", "clause", "order"}
