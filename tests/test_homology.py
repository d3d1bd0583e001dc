import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rackforge.homology import (
    IntegerMatrix,
    boundary_matrices,
    second_cohomology_structure,
    second_homology,
    smith_normal_form,
)
from rackforge.perm import Permutation
from rackforge.rack import FiniteRack, class_rack, conjugation_rack, subrack_closure


def minor_gcd_factors(dense):
    """Invariant factors via determinantal divisors: d_k is the gcd of all
    k by k minors and factor_k = d_k / d_(k-1). Exponential, fine below 5x5."""

    def det(rows, cols):
        if len(rows) == 1:
            return dense[rows[0]][cols[0]]
        total = 0
        r0 = rows[0]
        for i, c in enumerate(cols):
            sub = det(rows[1:], cols[:i] + cols[i + 1 :])
            term = dense[r0][c] * sub
            total += term if i % 2 == 0 else -term
        return total

    n_rows = len(dense)
    n_cols = len(dense[0]) if dense else 0
    factors = []
    previous = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for rows in combinations(range(n_rows), k):
            for cols in combinations(range(n_cols), k):
                g = gcd(g, det(rows, cols))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def trivial_rack(n):
    return FiniteRack([[y for y in range(n)] for _ in range(n)])


def test_integer_matrix_multiply():
    a = IntegerMatrix.from_dense([[1, 2], [3, 4]])
    b = IntegerMatrix.from_dense([[0, 1], [1, 0]])
    assert a.multiply(b).to_dense() == [[2, 1], [4, 3]]
    assert not a.is_zero()
    assert IntegerMatrix.from_dense([[0, 0]]).is_zero()


def test_smith_normal_form_golden_values():
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)
    assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)
    assert smith_normal_form([[1, 0], [0, 1]]) == ((1, 1), 2)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
    assert smith_normal_form([[6]]) == ((6,), 1)
    assert smith_normal_form([[2, 3]]) == ((1,), 1)


def test_smith_normal_form_divisibility_chain():
    rng = random.Random(61)
    for _ in range(300):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        dense = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        factors, rank = smith_normal_form(dense)
        assert len(factors) == rank <= min(rows, cols)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_smith_normal_form_against_minor_gcd_oracle():
    rng = random.Random(62)
    for _ in range(1000):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        dense = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        factors, rank = smith_normal_form(dense)
        oracle = minor_gcd_factors(dense)
        assert list(factors) == oracle, dense


def test_smith_normal_form_unimodular_invariance():
    # row and column operations must not change the factors
    rng = random.Random(63)
    for _ in range(200):
        dense = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(3)]
        factors, _ = smith_normal_form(dense)
        mixed = [row[:] for row in dense]
        k = rng.randrange(-3, 4)
        mixed[0] = [a + k * b for a, b in zip(mixed[0], mixed[1])]
        for row in mixed:
            row[2] += row[1]
        assert smith_normal_form(mixed)[0] == factors


def test_boundary_matrices_shapes_and_composition():
    r = class_rack(5, 5)
    d2, d3 = boundary_matrices(r)
    n = r.size
    assert (d2.rows, d2.cols) == (n, n * n)
    assert (d3.rows, d3.cols) == (n * n, n * n * n)
    assert d2.multiply(d3).is_zero()


def test_second_homology_of_trivial_racks():
    # trivial rack on n points: d2 = d3 = 0, so H_2 is free of rank n^2
    for n in (1, 2, 3):
        h = second_homology(trivial_rack(n))
        assert h.free_rank == n * n
        assert h.torsion == ()


def test_second_homology_of_cyclic_rack():
    # act(x, y) = y + 1 mod n: the dihedral-free permutation rack
    for n in (2, 3, 4):
        table = [[(y + 1) % n for y in range(n)] for _ in range(n)]
        h = second_homology(FiniteRack(table))
        assert h.free_rank == 1
        assert h.torsion in ((), (n,))


def inner_orbit_count(rack):
    """Orbits of the inner group, generated by the table rows, by
    breadth-first search on the table."""
    seen = set()
    orbits = 0
    for start in range(rack.size):
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        queue = [start]
        while queue:
            y = queue.pop()
            for row in rack.table:
                if row[y] not in seen:
                    seen.add(row[y])
                    queue.append(row[y])
    return orbits


def conjugation_closure(perms):
    """The smallest set of permutations containing perms and closed under
    conjugating one member by another."""
    members = set(perms)
    while True:
        grown = members | {g * h * g.inverse() for g in members for h in members}
        if grown == members:
            return sorted(members, key=lambda g: g.images)
        members = grown


def three_cycles_of_a4():
    return [
        Permutation.from_cycles("(%d %d %d)" % (a, b, c), 4)
        for a, b, c in ((1, 2, 3), (1, 3, 2), (1, 2, 4), (1, 4, 2),
                        (1, 3, 4), (1, 4, 3), (2, 3, 4), (2, 4, 3))
    ]


def small_conjugation_racks(count, seed):
    """Seeded racks closed from two random permutations of 4 or 5 points,
    kept to at most 12 elements."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        degree = rng.choice((4, 5))
        pair = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            pair.append(Permutation(images))
        members = conjugation_closure(pair)
        if len(members) <= 12:
            out.append(conjugation_rack(members))
    return out


def test_free_rank_of_second_homology_is_orbit_count_squared():
    # Etingof-Grana: the rational Betti numbers of a finite rack are
    # |X/Inn(X)|^n, so H_2 has free rank (number of orbits)^2
    a4 = conjugation_rack(three_cycles_of_a4())
    h = second_homology(a4)
    assert inner_orbit_count(a4) == 2
    assert (h.free_rank, h.torsion) == (4, (2, 2))
    racks = [class_rack(5, 5), FiniteRack([[(y + 1) % 4 for y in range(4)]] * 4)]
    racks += small_conjugation_racks(8, seed=71)
    orbit_counts = set()
    for rack in racks:
        orbits = inner_orbit_count(rack)
        orbit_counts.add(orbits)
        assert second_homology(rack).free_rank == orbits**2, rack.table
    assert len(orbit_counts) > 1


def test_five_cycle_class_golden_value():
    structure = second_cohomology_structure(class_rack(5, 5))
    assert structure.free_rank == 1
    assert structure.torsion == (10,)
    assert structure.pretty == "k^× × G_10"


def test_twentyfour_subrack_golden_value():
    r = class_rack(7, 7)
    partner = None
    for y in range(r.size):
        if len(subrack_closure(r, [0, y])) == 24:
            partner = y
            break
    assert partner is not None
    members = sorted(subrack_closure(r, [0, partner]))
    table = [[members.index(r.act(x, y)) for y in members] for x in members]
    structure = second_cohomology_structure(FiniteRack(table))
    assert structure.free_rank == 1
    assert structure.torsion == (14,)
    assert structure.pretty == "k^× × G_14"


def test_cohomology_pretty_rendering():
    from rackforge.homology import CohomologyStructure

    assert CohomologyStructure(0, ()).pretty == "1"
    assert CohomologyStructure(2, (3, 6)).pretty == "k^× × k^× × G_3 × G_6"
    assert CohomologyStructure(0, (2,)).to_json_dict() == {
        "free_rank": 0,
        "torsion": [2],
        "pretty": "G_2",
    }


def test_homology_result_validation():
    from rackforge.homology import HomologyResult

    with pytest.raises(ValueError):
        HomologyResult(free_rank=-1, torsion=())
    with pytest.raises(ValueError):
        HomologyResult(free_rank=0, torsion=(1,))
    with pytest.raises(ValueError):
        HomologyResult(free_rank=0, torsion=(4, 6))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_smith_normal_form_transpose_invariance(dense):
    transposed = [list(col) for col in zip(*dense)]
    assert smith_normal_form(dense)[0] == smith_normal_form(transposed)[0]
