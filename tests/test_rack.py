import dataclasses
import random
from itertools import combinations, product

import pytest

from rackforge.perm import Permutation, conjugate, parse_cycles
from rackforge.rack import (
    FiniteRack,
    TypeDWitness,
    class_rack,
    conjugation_rack,
    maximal_abelian_subrack_through,
    subrack_closure,
    type_d_pair,
    validate_rack,
)


def cyclic_rack(n, step=1):
    """Table act(x, y) = y + step mod n, a rack where every row is the same
    rotation (not a quandle unless step is 0)."""
    return FiniteRack([[(y + step) % n for y in range(n)] for _ in range(n)])


def test_validate_rack_accepts_class_racks():
    for p, m in ((5, 5), (5, 6)):
        validate_rack(class_rack(p, m).table)


def test_validate_rack_rejects_non_bijective_rows():
    with pytest.raises(ValueError):
        FiniteRack([[0, 0], [0, 1]])


def test_validate_rack_rejects_non_distributive_table():
    # rows are bijections but (0,1,z) breaks self-distributivity
    table = [[0, 1, 2], [1, 2, 0], [0, 1, 2]]
    with pytest.raises(ValueError):
        FiniteRack(table)


def first_failing_triple(table):
    """The first (x, y, z), in lexicographic order, with x(yz) != (xy)(xz)."""
    n = len(table)
    for x, y, z in product(range(n), repeat=3):
        if table[x][table[y][z]] != table[table[x][y]][table[x][z]]:
            return x, y, z
    return None


def test_validate_rack_names_the_first_failing_triple():
    # every swap of two entries in one row of a valid table keeps the rows
    # bijective; the error must name the triple a brute-force scan finds
    tables = [class_rack(5, 5).table]
    tables += [[[(2 * x - y) % n for y in range(n)] for x in range(n)] for n in range(5, 9)]
    failing = 0
    for table in tables:
        n = len(table)
        for x in range(n):
            for y, y2 in combinations(range(n), 2):
                rows = [list(row) for row in table]
                rows[x][y], rows[x][y2] = rows[x][y2], rows[x][y]
                triple = first_failing_triple(rows)
                if triple is None:
                    validate_rack(rows)
                    continue
                failing += 1
                with pytest.raises(ValueError) as raised:
                    validate_rack(rows)
                assert str(raised.value) == "self-distributivity fails at (%d, %d, %d)" % triple
    assert failing > 1000


def test_rack_basics():
    r = cyclic_rack(5, 2)
    assert r.size == 5
    assert r.act(0, 1) == 3
    assert r.act(0, 0) != 0  # not a quandle
    q = class_rack(5, 5)
    assert all(q.act(x, x) == x for x in range(q.size))


def test_json_roundtrip_is_exact():
    r = class_rack(5, 5)
    data = r.to_json_dict()
    back = FiniteRack.from_json_dict(data)
    assert back.table == r.table
    assert back.labels == r.labels
    assert back.to_json_dict() == data


def test_from_json_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteRack.from_json_dict({"size": 2, "table": [[1, 2]]})
    with pytest.raises(ValueError):
        FiniteRack.from_json_dict({"size": 2, "table": [[1, 3], [1, 2]]})


def test_conjugation_rack_matches_conjugation():
    perms = [
        Permutation.cycle([1, 2, 3], 4),
        Permutation.cycle([1, 3, 2], 4),
        Permutation.cycle([1, 2, 4], 4),
        Permutation.cycle([1, 4, 2], 4),
        Permutation.cycle([1, 3, 4], 4),
        Permutation.cycle([1, 4, 3], 4),
        Permutation.cycle([2, 3, 4], 4),
        Permutation.cycle([2, 4, 3], 4),
    ]
    r = conjugation_rack(perms)
    assert r.size == 8
    for x in range(8):
        for y in range(8):
            assert perms[r.act(x, y)] == conjugate(perms[x], perms[y])


def test_conjugation_rack_requires_closure():
    with pytest.raises(ValueError):
        conjugation_rack([Permutation.cycle([1, 2, 3], 4), Permutation.cycle([1, 2, 4], 4)])


def test_class_rack_sizes_and_labels():
    r = class_rack(5, 5)
    assert r.size == 12
    assert r.labels[0] == "(1 2 3 4 5)"
    assert r.elements[0] == Permutation.cycle([1, 2, 3, 4, 5], 5)
    assert class_rack(5, 6).size == 72
    assert class_rack(7, 7).size == 360


def test_subrack_closure_of_single_point_is_cyclic_orbit():
    r = class_rack(5, 5)
    closed = subrack_closure(r, [0])
    # a point acts trivially on its own powers, so the closure is sigma alone
    assert closed == frozenset([0])


def test_subrack_closure_grows_to_whole_class():
    r = class_rack(5, 5)
    rng = random.Random(51)
    # two random members almost always generate everything here; pick a pair
    # known to do so by scanning
    for y in range(1, r.size):
        closed = subrack_closure(r, [0, y])
        if len(closed) == r.size:
            break
    else:
        raise AssertionError("no generating pair found")
    assert len(closed) == 12


def test_subrack_closure_is_closed_and_minimal():
    r = class_rack(5, 6)
    rng = random.Random(52)
    for _ in range(30):
        seeds = rng.sample(range(r.size), 2)
        closed = subrack_closure(r, seeds)
        assert set(seeds) <= closed
        for x in closed:
            # each translation maps the closure onto itself, so the inverse
            # translations stay inside too
            assert {r.act(x, y) for y in closed} == closed


def test_subrack_closure_rejects_bad_seed():
    with pytest.raises(ValueError):
        subrack_closure(class_rack(5, 5), [99])
    assert subrack_closure(class_rack(5, 5), []) == frozenset()


def test_twentyfour_element_subrack_exists_in_seven_class():
    r = class_rack(7, 7)
    sizes = set()
    for y in range(r.size):
        sizes.add(len(subrack_closure(r, [0, y])))
    assert 24 in sizes
    assert 360 in sizes


def test_maximal_abelian_subrack_sizes():
    # p-cycles commuting with sigma inside the class are its own powers in
    # the same alternating half: 2 at (5,5) and 3 at (7,7)
    r5 = class_rack(5, 5)
    abelian = maximal_abelian_subrack_through(r5, 0)
    assert len(abelian) == 2
    for x in abelian:
        for y in abelian:
            assert r5.act(x, y) == y
    r7 = class_rack(7, 7)
    assert len(maximal_abelian_subrack_through(r7, 0)) == 3


def test_type_d_pair_axiom_one_failures():
    sigma = Permutation.cycle([1, 2, 3, 4, 5], 5)
    result = type_d_pair(sigma, sigma)
    assert result.verdict == "Ax1Fail"
    # commuting pair at degree 10: disjoint supports
    a = Permutation.cycle([1, 2, 3, 4, 5], 10)
    b = Permutation.cycle([6, 7, 8, 9, 10], 10)
    assert type_d_pair(a, b).verdict == "Ax1Fail"


def test_type_d_pair_axiom_two_failure():
    # squares differ but the pair generates A_5 where all our 5-cycles fuse
    sigma = Permutation.cycle([1, 2, 3, 4, 5], 5)
    tau = conjugate(Permutation.cycle([1, 2, 3], 5), sigma)
    result = type_d_pair(sigma, tau)
    assert result.verdict == "Ax2Fail"
    assert result.subgroup_order == 60


def test_type_d_pair_witness():
    sigma = Permutation.cycle([1, 2, 3, 4, 5, 6, 7], 8)
    tau = parse_cycles("(1 7 5 6 2 4 3)", 8)
    result = type_d_pair(sigma, tau)
    if result.verdict != "Witness":
        # locate a genuine witness pair inside the order-56 subgroup instead
        from rackforge.classify import witness_search

        found = witness_search(7, 8, strategy="subgroup")
        result = type_d_pair(found.witness.sigma, found.witness.tau)
    assert result.verdict == "Witness"
    w = result.witness
    assert (w.sigma * w.tau) ** 2 != (w.tau * w.sigma) ** 2
    assert w.orbit_answer == "no"
    assert w.verify()


def test_witness_json_roundtrip():
    from rackforge.classify import witness_search

    found = witness_search(7, 8, strategy="subgroup")
    w = found.witness
    back = TypeDWitness.from_json_dict(w.to_json_dict())
    assert back.sigma == w.sigma and back.tau == w.tau
    assert back == w
    assert back.verify()


def test_verify_compares_the_whole_witness_record():
    from rackforge.classify import _reverify, witness_search

    w = witness_search(7, 8, strategy="subgroup").witness
    assert w.verify()
    for changed in (
        dataclasses.replace(w, orbit_answer="yes"),
        dataclasses.replace(w, orbit_answer="capped"),
        dataclasses.replace(w, subgroup_order=w.subgroup_order + 1),
    ):
        assert not changed.verify(), changed.orbit_answer
        with pytest.raises(AssertionError):
            _reverify(changed, 7, 8)
    assert {f.name for f in dataclasses.fields(TypeDWitness)} == set(w.to_json_dict())
    assert TypeDWitness.from_json_dict(w.to_json_dict()) == w


def test_self_distributivity_random_triples():
    rng = random.Random(54)
    racks = [class_rack(5, 5), class_rack(5, 6), cyclic_rack(9, 4)]
    for r in racks:
        n = r.size
        for _ in range(1000):
            x, y, z = (rng.randrange(n) for _ in range(3))
            assert r.act(x, r.act(y, z)) == r.act(r.act(x, y), r.act(x, z))


def test_rows_are_bijections_random_checks():
    rng = random.Random(55)
    r = class_rack(7, 7)
    for _ in range(200):
        x = rng.randrange(r.size)
        row = [r.act(x, y) for y in range(r.size)]
        assert sorted(row) == list(range(r.size))
