import dataclasses
import random
from itertools import combinations, permutations
from math import factorial

import pytest

from rackforge import acceptance
from rackforge.classify import (
    DEEP_GATE,
    _case_candidates,
    _closure_size,
    _resolve_case,
    classify_class,
    fw_identify,
    lemma_square_check,
    subrack_census,
    symmetric_group_witness,
    witness_search,
)
from rackforge.constructions import class_elements, natural_class, psl_order
from rackforge.groups import build_bsgs, pair_subgroup
from rackforge.numth import (
    cyclotomic_decompositions,
    prime_power_decompose,
    primes_below,
)
from rackforge.perm import Permutation, conjugate, format_cycles, parse_cycles
from rackforge.rack import class_rack, conjugation_rack, subrack_closure, type_d_pair


VERIFIED_TABLE = {
    (5, 5): "NotTypeD",
    (5, 6): "NotTypeD",
    (7, 7): "NotTypeD",
    (7, 8): "TypeD",
    (11, 11): "NotTypeD",
    (11, 12): "NotTypeD",
    (13, 13): "TypeD",
    (13, 14): "TypeD",
    (17, 17): "TypeD",
    (19, 19): "NotTypeD",
    (19, 20): "NotTypeD",
    (23, 23): "NotTypeD",
    (23, 24): "NotTypeD",
    (31, 31): "TypeD",
    (31, 32): "TypeD",
}


def test_classification_table():
    for (p, m), want in VERIFIED_TABLE.items():
        got = classify_class(p, m)
        assert got.verdict == want, (p, m)
        assert got.p == p and got.m == m


def test_classification_reasons():
    assert classify_class(13, 13).reason == {"cyclotomic": [[3, 3]]}
    assert classify_class(31, 31).reason == {"cyclotomic": [[2, 5], [5, 3]]}
    assert classify_class(11, 11).reason == {"cyclotomic": [], "threshold": "p < 13"}
    assert classify_class(19, 19).reason == {"cyclotomic": []}
    below = classify_class(7, 7).reason
    assert below["cyclotomic"] == [[2, 3]]
    assert below["threshold"] == "p < 13"
    assert classify_class(5, 6).reason["threshold"] == "p < 7"


def test_classification_against_direct_predicate():
    # re-derive the rule from scratch: p is a base-r repunit prime
    for p in primes_below(200):
        if p < 5:
            continue
        forms = []
        for k in range(2, p.bit_length() + 1):
            for r in range(2, p):
                value = sum(r**i for i in range(k))
                if value == p and prime_power_decompose(r) is not None:
                    forms.append((r, k))
                if value >= p:
                    break
        for m, threshold in ((p, 13), (p + 1, 7)):
            want = "TypeD" if (p >= threshold and forms) else "NotTypeD"
            assert classify_class(p, m).verdict == want, (p, m)


def test_classify_rejects_bad_input():
    for p, m in ((4, 4), (9, 9), (2, 2), (3, 3)):
        with pytest.raises(ValueError):
            classify_class(p, m)
    with pytest.raises(ValueError):
        classify_class(5, 8)


def test_classify_answers_at_once_for_large_cyclotomic_primes():
    # checking (p, m) must build neither the p-cycle nor m!
    for p, k in ((2**31 - 1, 31), (2**61 - 1, 61)):
        for m in (p, p + 1):
            verdict = classify_class(p, m)
            assert verdict.verdict == "TypeD"
            assert verdict.reason == {"cyclotomic": [[2, k]]}


def test_classify_json_shape():
    data = classify_class(13, 13).to_json_dict()
    assert data == {
        "p": 13,
        "m": 13,
        "verdict": "TypeD",
        "reason": {"cyclotomic": [[3, 3]]},
    }


def test_fw_identify_cyclic_case():
    sigma = Permutation.cycle([1, 2, 3, 4, 5], 5)
    case = fw_identify(sigma, sigma * sigma)
    assert case.tag == "i"
    assert case.order == 5
    assert case.m == 5


def test_fw_identify_disjoint_case():
    sigma = Permutation.cycle([1, 2, 3, 4, 5], 10)
    tau = Permutation.cycle([6, 7, 8, 9, 10], 10)
    case = fw_identify(sigma, tau)
    assert case.tag == "ii"
    assert case.order == 25
    assert case.m == 10


def test_fw_identify_alternating_case_with_name_collision():
    # two 5-cycles generating all of A_5: order 60 matches both the linear
    # group L_2(4) and A_5 itself; the alternating name must come first
    sigma = Permutation.cycle([1, 2, 3, 4, 5], 5)
    tau = conjugate(Permutation.cycle([1, 2, 3], 5), sigma)
    case = fw_identify(sigma, tau)
    assert case.tag == "xiii"
    assert case.order == 60
    assert case.names[0] == "A_5"
    assert "L_2(4)" in case.names


def test_fw_identify_linear_case():
    # a pair of 7-cycles generating the 168-element linear group
    sigma = Permutation.cycle([1, 2, 3, 4, 5, 6, 7], 7)
    found = None
    from rackforge.constructions import class_elements

    for tau in class_elements(7, 7):
        g = build_bsgs([sigma, tau])
        if g.order == 168:
            found = tau
            break
    assert found is not None
    case = fw_identify(sigma, found)
    assert case.tag == "iii"
    assert case.order == 168
    assert case.names == ("L_3(2)",)


def test_fw_identify_frobenius_case():
    out = witness_search(7, 8, strategy="subgroup")
    case = fw_identify(out.witness.sigma, out.witness.tau)
    assert case.tag == "x"
    assert case.order == 56
    assert case.m == 8


def test_fw_identify_affine_case_at_eight_points():
    # 2^3:L_3(2), the affine group of order 1344, matches row (xi)
    sigma = parse_cycles("(1 2 3 4 5 6 7)", 8)
    tau = parse_cycles("(1 2 3 5 4 6 8)", 8)
    case = fw_identify(sigma, tau)
    assert case.tag == "xi"
    assert case.order == 1344
    assert case.names == ("2^3:L_3(2)",)
    closure = _tuple_closure(
        [_tuple_cycle([1, 2, 3, 4, 5, 6, 7], 8), _tuple_cycle([1, 2, 3, 5, 4, 6, 8], 8)]
    )
    assert len(closure) == case.order


# every (p, m, order) that two or more case-table rows match, for primes
# below 200, with the case reported there; each names a single group
CASE_OVERLAPS = {
    (2, 3, 6): ("xii", ("S_3", "L_2(2)")),
    (2, 4, 12): ("xiii", ("A_4", "L_2(3)")),
    (3, 3, 3): ("xiii", ("A_3", "Z/3")),
    (3, 3, 6): ("xii", ("S_3", "L_2(2)")),
    (3, 4, 12): ("xiii", ("A_4", "Frobenius(12)", "L_2(3)")),
    (3, 5, 60): ("xiii", ("A_5", "L_2(4)")),
    (5, 5, 60): ("xiii", ("A_5", "L_2(4)")),
    (11, 12, 660): ("viii", ("L_2(11)",)),
}


def _row_orders(p, m):
    """Every order some case-table row can match at (p, m)."""
    orders = {p, p * p, 6, 660, 7920, 95_040, 10_200_960, 244_823_040}
    orders |= {m * p, factorial(m) // 2, psl_order(2, p)}
    orders |= {psl_order(k, r) for r, k in cyclotomic_decompositions(p)}
    if prime_power_decompose(p + 1) is not None:
        orders.add(psl_order(2, p + 1))
    power = prime_power_decompose(m)
    if power is not None and power[0] == 2:
        orders.add(m * psl_order(power[1], 2))
    return orders


def test_case_table_overlaps_resolve_to_one_group():
    found = {}
    for p in primes_below(200):
        for m in {p, p + 1, p + 2, 2 * p, 3, 12, 24}:
            for order in _row_orders(p, m):
                rows = _case_candidates(p, m, order)
                if len(rows) > 1:
                    case = _resolve_case(p, m, order, rows)
                    found[p, m, order] = (case.tag, case.names)
    assert found == CASE_OVERLAPS


@pytest.mark.parametrize(
    "sigma,tau,degree,key",
    [
        ("(1 2)", "(2 3)", 3, (2, 3, 6)),
        ("(1 2 3)", "(1 3 2)", 3, (3, 3, 3)),
        ("(1 2 3)", "(2 3 4)", 4, (3, 4, 12)),
        ("(1 2 3)", "(3 4 5)", 5, (3, 5, 60)),
    ],
)
def test_fw_identify_small_cycles_name_one_group(sigma, tau, degree, key):
    case = fw_identify(
        parse_cycles(sigma, degree), parse_cycles(tau, degree)
    )
    assert (case.p, case.m, case.order) == key
    assert (case.tag, case.names) == CASE_OVERLAPS[key]


def test_fw_identify_rejects_non_p_cycles():
    with pytest.raises(ValueError):
        fw_identify(
            parse_cycles("(1 2 3)(4 5 6)", 6),
            Permutation.cycle([1, 2, 3], 6),
        )
    with pytest.raises(ValueError):
        fw_identify(Permutation.cycle([1, 2, 3, 4], 4), Permutation.cycle([1, 2, 3, 4], 4))


def test_witness_search_exhaustive_absence():
    for p, m, size in ((5, 5, 12), (5, 6, 72), (7, 7, 360)):
        out = witness_search(p, m, strategy="exhaustive")
        assert out.status == "absence"
        assert out.pairs_tested == size
        assert out.witness is None


def test_witness_search_exhaustive_budget_cutoff():
    out = witness_search(7, 7, strategy="exhaustive", budget=50)
    assert out.status == "exhausted"
    assert out.pairs_tested == 50


def test_witness_search_deep_gate():
    assert DEEP_GATE == 100_000
    with pytest.raises(ValueError):
        witness_search(11, 11, strategy="exhaustive")
    with pytest.raises(ValueError):
        witness_search(11, 12, strategy="exhaustive", budget=10**7)
    # the gate applies to the pairs a run would test, not the class size
    out = witness_search(11, 11, strategy="exhaustive", budget=300)
    assert out.status == "exhausted"
    assert out.pairs_tested == 300
    with pytest.raises(ValueError):
        witness_search(11, 11, strategy="exhaustive", budget=DEEP_GATE + 1)


SUBGROUP_WITNESSES = {
    (7, 8): (56, "(1 6 2 8 4 3 7)"),
    (13, 13): (5616, "(1 5 7 11 3 8 4 12 2 10 9 6 13)"),
    (13, 14): (5616, "(1 5 7 11 3 8 4 12 2 10 9 6 13)"),
    (17, 17): (4080, "(1 4 15 5 7 8 13 14 16 6 17 3 12 11 2 10 9)"),
}


def test_witness_search_subgroup_strategy():
    # each partner is carried to the standard cycle before it is tested, so
    # the counts and the witness are those of the pair inside the subgroup
    for (p, m), (order, tau) in SUBGROUP_WITNESSES.items():
        out = witness_search(p, m, strategy="subgroup")
        assert out.status == "witness", (p, m)
        assert out.pairs_tested == 2
        w = out.witness
        assert format_cycles(w.tau) == tau
        assert w.subgroup_order == order
        assert w.sigma == Permutation.cycle(list(range(1, p + 1)), m)
        assert w.st_squared != w.ts_squared
        assert w.orbit_answer == "no"
        assert w.verify()
    for budget in (0, 1):
        out = witness_search(7, 8, strategy="subgroup", budget=budget)
        assert (out.status, out.pairs_tested, out.witness) == ("exhausted", budget, None)
    for p, m in ((5, 6), (7, 7), (11, 11)):
        out = witness_search(p, m, strategy="subgroup")
        assert (out.status, out.pairs_tested) == ("exhausted", 0)


def test_witness_search_random_strategy():
    out = witness_search(7, 8, strategy="random", budget=600, seed=0)
    assert out.status == "witness"
    assert out.witness.verify()
    assert out.seed == 0
    # absence cannot be proven by sampling
    out5 = witness_search(5, 5, strategy="random", budget=200, seed=0)
    assert out5.status == "exhausted"
    assert out5.pairs_tested == 200


def test_witness_search_is_deterministic():
    a = witness_search(7, 8, strategy="random", budget=600, seed=3)
    b = witness_search(7, 8, strategy="random", budget=600, seed=3)
    assert a.witness.tau == b.witness.tau
    assert a.pairs_tested == b.pairs_tested


def test_witness_search_exhaustive_stops_at_the_first_witness(monkeypatch):
    # the scan is serial, so it tests exactly the pairs up to the witness
    from rackforge import classify

    calls = []

    def counted(sigma, tau, **kwargs):
        calls.append(tau)
        return type_d_pair(sigma, tau, **kwargs)

    monkeypatch.setattr(classify, "type_d_pair", counted)
    out = witness_search(7, 8, strategy="exhaustive")
    assert out.status == "witness"
    assert out.pairs_tested == len(calls) == 435
    assert calls[-1] == out.witness.tau
    assert format_cycles(out.witness.tau) == "(1 3 4 2 8 6 5)"


def test_subgroup_partners_walk_the_class_lazily(monkeypatch):
    # the first witness at (13,13) is the second partner; listing the whole
    # class of L_3(3) first would conjugate once per element at least
    from rackforge import groups

    calls = []
    original = groups._conjugator

    def counted(g):
        conj = original(g)

        def call(x):
            calls.append(x)
            return conj(x)

        return call

    monkeypatch.setattr(groups, "_conjugator", counted)
    out = witness_search(13, 13, strategy="subgroup")
    assert out.status == "witness"
    assert out.pairs_tested == 2
    assert 0 < len(calls) < psl_order(3, 3) // 13


def test_candidate_subgroups_at_degree_p_are_the_linear_groups_as_built(monkeypatch):
    # at m = p the linear group already acts on the p points: one chain per
    # group, equal to a fresh build of its generators
    from rackforge import classify, constructions
    from rackforge.classify import _candidate_subgroups

    builds = []
    original = build_bsgs

    def counted(gens, degree=None):
        builds.append(degree)
        return original(gens, degree=degree)

    monkeypatch.setattr(constructions, "build_bsgs", counted)
    monkeypatch.setattr(classify, "build_bsgs", counted)
    for p in (13, 31):
        builds.clear()
        found = list(_candidate_subgroups(p, p, seed=0))
        assert len(builds) == len(found) == len(cyclotomic_decompositions(p))
        for group in found:
            fresh = original(group.generators, degree=p)
            assert (group.degree, group.base, group.order) == (p, fresh.base, fresh.order)


def test_subgroup_witness_for_every_type_d_class_up_to_p_307():
    # each type-D class with p <= 307 is witnessed inside PSL_k(r) for a
    # decomposition p = (r^k - 1)/(r - 1), or inside the Frobenius group of
    # order m(m - 1) = m p when m = p + 1 is a power of two
    classes = [
        (p, m)
        for p in primes_below(308)
        if p >= 5
        for m in (p, p + 1)
        if classify_class(p, m).verdict == "TypeD"
    ]
    assert len(classes) == 15
    for p, m in classes:
        out = witness_search(p, m, strategy="subgroup")
        assert out.status == "witness", (p, m)
        assert out.witness.verify()
        orders = {psl_order(k, r) for r, k in cyclotomic_decompositions(p)}
        two_power = prime_power_decompose(m)
        if m == p + 1 and two_power is not None and two_power[0] == 2:
            orders.add(m * p)
        assert out.witness.subgroup_order in orders, (p, m)


def test_witness_search_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        witness_search(7, 8, strategy="telepathy")


def test_search_agrees_with_classification_at_desk_scale():
    for p, m in ((5, 5), (5, 6), (7, 7), (7, 8)):
        verdict = classify_class(p, m).verdict
        out = witness_search(p, m, strategy="exhaustive" if m <= 7 else "subgroup")
        if verdict == "TypeD":
            assert out.status == "witness"
        else:
            assert out.status == "absence"


def test_symmetric_group_witness_frozen_pair():
    w = symmetric_group_witness(5)
    assert format_cycles(w.sigma) == "(1 2 3 4 5)"
    assert format_cycles(w.tau) == "(1 4 5 3 2)"
    assert w.verify()


def test_symmetric_group_witness_all_small_primes():
    for p in (5, 7, 11, 13):
        w = symmetric_group_witness(p)
        assert w.st_squared != w.ts_squared
        assert w.orbit_answer == "no"
        assert w.verify()
    with pytest.raises(ValueError):
        symmetric_group_witness(4)


def test_subrack_census_five_exhaustive():
    report = subrack_census(5, 5)
    assert report.exhaustive
    assert report.pairs == 12
    rows = {(r.closure_size, r.case_tag, r.subgroup_order, r.abelian): r.count for r in report.rows}
    assert rows == {
        (1, "i", 5, True): 1,
        (2, "i", 5, True): 1,
        (12, "xiii", 60, False): 10,
    }
    report = subrack_census(5, 6)
    assert report.exhaustive
    assert report.pairs == 72
    rows = {(r.closure_size, r.case_tag, r.subgroup_order, r.abelian): r.count for r in report.rows}
    assert rows == {
        (1, "i", 5, True): 1,
        (2, "i", 5, True): 1,
        (12, "v", 60, False): 10,
        (12, "xiii", 60, False): 10,
        (72, "xiii", 360, False): 50,
    }


def test_subrack_census_seven_exhaustive():
    report = subrack_census(7, 7)
    assert report.exhaustive
    assert report.pairs == 360
    rows = {(r.closure_size, r.case_tag, r.subgroup_order, r.abelian): r.count for r in report.rows}
    assert rows == {
        (1, "i", 7, True): 1,
        (2, "i", 7, True): 2,
        (24, "iii", 168, False): 42,
        (360, "xiii", 2520, False): 315,
    }
    assert sum(r.count for r in report.rows) == 360


def test_subrack_census_sampled_eleven():
    report = subrack_census(11, 11, budget=300, seed=0)
    assert not report.exhaustive
    assert report.pairs == 300
    for row in report.rows:
        assert row.closure_size in (1, 2, 60, 720, 1814400)
        assert row.subgroup_order in (11, 121, 660, 7920, 19958400)


class _LazyClassRack:
    """class_rack(p, m) with each table entry computed when first read:
    subrack_closure reads only `size` and `table`. At (7,8) the full table
    has 2880^2 entries and takes seconds to build; a closure reads few, most
    of them twice."""

    def __init__(self, p, m):
        self.elements = list(class_elements(p, m))
        self.size = len(self.elements)
        self.table = self
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._entries = {}

    def __getitem__(self, x):
        return _LazyRow(self, x)

    def entry(self, x, y):
        if (x, y) not in self._entries:
            image = conjugate(self.elements[x], self.elements[y])
            self._entries[x, y] = self._index[image]
        return self._entries[x, y]


class _LazyRow:
    def __init__(self, rack, x):
        self.rack = rack
        self.x = x

    def __getitem__(self, y):
        return self.rack.entry(self.x, y)


def _check_closure_sizes(sigma, rack, taus):
    position = {g: i for i, g in enumerate(rack.elements)}
    for tau in taus:
        expected = len(subrack_closure(rack, {position[sigma], position[tau]}))
        assert _closure_size(sigma, tau, pair_subgroup(sigma, tau)) == expected, tau


def test_closure_sizes_match_the_rack_closure():
    # the rack closure shares no code with the orbit-stabiliser count
    for p, m in ((5, 5), (5, 6)):
        rack = class_rack(p, m)
        _check_closure_sizes(natural_class(p, m).sigma, rack, rack.elements)
    rack = class_rack(7, 7)
    sigma = natural_class(7, 7).sigma
    proper = [t for t in rack.elements if pair_subgroup(sigma, t).order < 2520]
    full = [t for t in rack.elements if t not in proper]
    assert len(proper) == 45
    _check_closure_sizes(sigma, rack, proper + random.Random(0).sample(full, 3))
    # five seeded pairs for each non-cyclic proper subgroup of A_8 that a
    # pair generates: orders 56, 168, 1344 and 2520
    rack = _LazyClassRack(7, 8)
    sigma = natural_class(7, 8).sigma
    picked = {}
    for tau in random.Random(0).sample(rack.elements, rack.size):
        order = pair_subgroup(sigma, tau).order
        if 7 < order < 20160 and len(picked.setdefault(order, [])) < 5:
            picked[order].append(tau)
            if sum(map(len, picked.values())) == 20:
                break
    assert sorted(picked) == [56, 168, 1344, 2520]
    _check_closure_sizes(sigma, rack, [tau for taus in picked.values() for tau in taus])
    # at degree 7 a 5-cycle's centraliser in Sym(7) holds odd elements, which
    # the group of an even pair lacks: only here does the sift into H matter
    five_cycles = [
        Permutation.cycle((support[0],) + tail, 7)
        for support in combinations(range(1, 8), 5)
        for tail in permutations(support[1:])
    ]
    rack = conjugation_rack(five_cycles)
    _check_closure_sizes(five_cycles[0], rack, random.Random(0).sample(five_cycles, 8))


def test_lemma_square_check_five_holds():
    report = lemma_square_check(5, 5)
    assert report.exhaustive
    assert report.square_pairs == 2
    assert report.commuting == 2
    assert report.order_two == 0
    assert report.holds


def test_lemma_square_check_seven_dichotomy_but_bound_fails():
    # every square pair commutes or has product of order 2, yet the order
    # bound p^2 is broken: the pair can generate the whole alternating group
    report = lemma_square_check(7, 7)
    assert report.exhaustive
    assert report.square_pairs == 31
    assert report.commuting == 3
    assert report.order_two == 28
    assert report.commuting + report.order_two == report.square_pairs
    assert not report.holds
    for tau, clause, value in report.violations:
        assert clause == "order bound"
        assert value > 49
    data = report.to_json_dict()
    assert data["holds"] is False
    assert data["violations"][0]["clause"] == "order bound"
    # one point more: (square pairs, commuting, order two), and every
    # involution-branch pair breaks the bound
    for (p, m), counts in {(5, 6): (12, 2, 10), (7, 8): (66, 3, 63)}.items():
        report = lemma_square_check(p, m)
        assert report.exhaustive
        assert (report.square_pairs, report.commuting, report.order_two) == counts
        assert [clause for _, clause, _ in report.violations] == ["order bound"] * counts[2]
        assert all(value > p * p for _, _, value in report.violations)


def _tuple_cycle(points, degree):
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a - 1] = b - 1
    return tuple(images)


def _tuple_compose(x, y):
    return tuple(x[y[i]] for i in range(len(y)))


def _tuple_order(x):
    identity = tuple(range(len(x)))
    power, k = x, 1
    while power != identity:
        power, k = _tuple_compose(x, power), k + 1
    return k


def _tuple_closure(gens):
    """Every product of the generators, by breadth-first right
    multiplication; a finite set closed under products is a group."""
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = _tuple_compose(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def test_square_pair_counterexample_by_brute_force_closure():
    # plain tuples and a breadth-first closure, sharing no code with the
    # package: a square pair whose product is an involution generates all
    # of A_7, so no order bound holds on the involution branch
    s = _tuple_cycle([1, 2, 3, 4, 5, 6, 7], 7)
    t = _tuple_cycle([1, 2, 3, 7, 6, 5, 4], 7)
    st, ts = _tuple_compose(s, t), _tuple_compose(t, s)
    assert _tuple_compose(st, st) == _tuple_compose(ts, ts)
    assert st != ts
    assert _tuple_order(st) == 2
    assert len(_tuple_closure([s, t])) == 2520


def test_square_criterion_reports_the_involution_branch_spectrum():
    result = acceptance.run_criterion(9)
    assert result.passed, result.line()
    assert "(5,5): 2 square pairs, 2 commuting, 0 with |st|=2" in result.details
    assert "(7,7): 31 square pairs, 3 commuting, 28 with |st|=2" in result.details
    assert "28 involution-branch pairs above p^2 = 49" in result.details
    assert "[(168, 14), (2520, 14)]" in result.details
    assert "tau=(1 2 3 7 6 5 4) of order 2520" in result.details


def _patch_five_five_report(monkeypatch, **changes):
    real = lemma_square_check

    def fabricated(p, m):
        report = real(p, m)
        if (p, m) == (5, 5):
            report = dataclasses.replace(report, **changes)
        return report

    monkeypatch.setattr(acceptance, "lemma_square_check", fabricated)


def test_square_criterion_fails_on_commuting_pair_above_p_squared(monkeypatch):
    sigma = natural_class(5, 5).sigma
    tau = sigma**2
    assert sigma * tau == tau * sigma
    # labelled like an involution-branch violation; commuting is decided
    # from the permutations, not from the label
    _patch_five_five_report(monkeypatch, violations=((tau, "order bound", 60),))
    result = acceptance.run_criterion(9)
    assert not result.passed
    assert "commuting pair tau=%s generates order 60 > p^2 = 25" % tau in result.details


@pytest.mark.parametrize("clause", ["dichotomy", "order bound"])
def test_square_criterion_fails_on_dichotomy_break(monkeypatch, clause):
    sigma = natural_class(5, 5).sigma
    tau = Permutation.cycle([1, 2, 4, 5, 3], 5)
    st = sigma * tau
    assert st != tau * sigma
    assert st.order() not in (1, 2)
    _patch_five_five_report(monkeypatch, violations=((tau, clause, st.order()),))
    result = acceptance.run_criterion(9)
    assert not result.passed
    assert "(5,5): dichotomy broken by tau=%s" % tau in result.details


def test_square_criterion_fails_when_branch_counts_do_not_add_up(monkeypatch):
    _patch_five_five_report(monkeypatch, square_pairs=3)
    result = acceptance.run_criterion(9)
    assert not result.passed
    assert "do not add up to 3 square pairs" in result.details
