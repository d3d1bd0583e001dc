import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rackforge.homology import (
    IntegerMatrix,
    boundary_matrices,
    second_homology,
    smith_normal_form,
)
from rackforge.perm import Permutation, parse_cycles
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
    assert a.multiply(b).entries == {(0, 0): 2, (0, 1): 1, (1, 0): 4, (1, 1): 3}
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
        parse_cycles("(%d %d %d)" % (a, b, c), 4)
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


def twentyfour_subrack():
    """The first 24-element closure of the standard 7-cycle with another
    element of the (7,7) class, as a rack on 0..23."""
    r = class_rack(7, 7)
    partner = next(y for y in range(r.size) if len(subrack_closure(r, [0, y])) == 24)
    members = sorted(subrack_closure(r, [0, partner]))
    return FiniteRack([[members.index(r.act(x, y)) for y in members] for x in members])


def test_free_rank_of_second_homology_is_orbit_count_squared():
    # Etingof-Grana: the rational Betti numbers of a finite rack are
    # |X/Inn(X)|^n, so H_2 has free rank (number of orbits)^2
    a4 = conjugation_rack(three_cycles_of_a4())
    h = second_homology(a4)
    assert inner_orbit_count(a4) == 2
    assert (h.free_rank, h.torsion) == (4, (2, 2))
    racks = [
        class_rack(5, 5),
        twentyfour_subrack(),
        FiniteRack([[(y + 1) % 4 for y in range(4)]] * 4),
    ]
    racks += small_conjugation_racks(8, seed=71)
    orbit_counts = set()
    for rack in racks:
        orbits = inner_orbit_count(rack)
        orbit_counts.add(orbits)
        assert second_homology(rack).free_rank == orbits**2, rack.table
    assert len(orbit_counts) > 1


def test_five_cycle_class_golden_value():
    structure = second_homology(class_rack(5, 5))
    assert structure.free_rank == 1
    assert structure.torsion == (10,)
    assert structure.pretty == "k^× × G_10"


def test_twentyfour_subrack_golden_value():
    structure = second_homology(twentyfour_subrack())
    assert structure.free_rank == 1
    assert structure.torsion == (14,)
    assert structure.pretty == "k^× × G_14"


def test_cohomology_pretty_rendering():
    from rackforge.homology import HomologyResult

    assert HomologyResult(0, ()).pretty == "1"
    assert HomologyResult(2, (3, 6)).pretty == "k^× × k^× × G_3 × G_6"
    assert HomologyResult(0, (2,)).to_json_dict() == {
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


def scrambled_diagonal(chain, rows, cols, rng):
    """U . D . V for D the rows x cols matrix with chain on its diagonal, U
    and V products of random elementary operations (add +-1 or +-2 times
    one row, or column, to another)."""
    a = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(chain):
        a[i][i] = d
    for _ in range(rows + cols):
        k = rng.choice((-2, -1, 1, 2))
        i, j = rng.sample(range(rows), 2)
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        i, j = rng.sample(range(cols), 2)
        for row in a:
            row[i] += k * row[j]
    return a


def with_redundant_columns(a, rng, extra):
    """a with zero, repeated and negated columns appended in turn, then the
    columns shuffled: the column lattice, hence the Smith form, is kept."""
    cols = [list(col) for col in zip(*a)]
    for t in range(extra):
        col = rng.choice(cols)
        cols.append(([0] * len(col), col[:], [-v for v in col])[t % 3])
    rng.shuffle(cols)
    return [list(row) for row in zip(*cols)]


def test_smith_normal_form_recovers_a_scrambled_diagonal():
    # sizes beyond the minor-gcd oracle, whose answer is known by construction
    rng = random.Random(64)
    for rows, cols in ((10, 30), (20, 60), (30, 90), (40, 120)):
        for scale in (1, 2):
            for _ in range(3):
                rank = rng.randrange(rows // 2, rows + 1)
                tail = rng.choice(((), (2,), (2, 2, 6), (3, 6), (2, 4, 12)))
                chain = tuple(scale * d for d in (1,) * (rank - len(tail)) + tail)
                a = scrambled_diagonal(chain, rows, cols, rng)
                if scale == 2:
                    # no unit entry, so the dense core does all the work
                    assert all(v % 2 == 0 for row in a for v in row)
                b = with_redundant_columns(a, rng, cols // 3)
                assert smith_normal_form(a) == (chain, rank)
                assert smith_normal_form(IntegerMatrix.from_dense(b)) == (chain, rank)


def relabelled(rack, perm):
    """The same rack with element x renamed perm[x]."""
    n = rack.size
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[rack.table[x][y]]
    return FiniteRack(table)


def shuffled(matrix, rng):
    """matrix with its rows and its columns put in seeded random orders."""
    row_to = list(range(matrix.rows))
    col_to = list(range(matrix.cols))
    rng.shuffle(row_to)
    rng.shuffle(col_to)
    entries = {(row_to[r], col_to[c]): v for (r, c), v in matrix.entries.items()}
    return IntegerMatrix(matrix.rows, matrix.cols, entries)


def test_smith_normal_form_does_not_depend_on_pivot_order():
    # relabelling the rack and reordering d3 change which unit pivots are
    # taken, never the invariant factors or the rank
    rng = random.Random(65)
    for rack, rank, torsion in ((class_rack(5, 5), 132, (10,)), (twentyfour_subrack(), 552, (14,))):
        _, d3 = boundary_matrices(rack)
        factors, found_rank = smith_normal_form(d3)
        assert found_rank == rank
        assert tuple(d for d in factors if d > 1) == torsion
        for _ in range(2):
            perm = list(range(rack.size))
            rng.shuffle(perm)
            _, d3_relabelled = boundary_matrices(relabelled(rack, perm))
            assert smith_normal_form(shuffled(d3_relabelled, rng)) == (factors, rank)


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
