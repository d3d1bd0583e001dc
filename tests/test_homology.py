import random
from itertools import combinations, permutations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rackforge import homology
from rackforge.homology import (
    HomologyResult,
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
    assert HomologyResult(0, ()).pretty == "1"
    assert HomologyResult(2, (3, 6)).pretty == "k^× × k^× × G_3 × G_6"
    assert HomologyResult(0, (2,)).to_json_dict() == {
        "free_rank": 0,
        "torsion": [2],
        "pretty": "G_2",
    }


def test_homology_result_validation():
    with pytest.raises(ValueError):
        HomologyResult(free_rank=-1, torsion=())
    with pytest.raises(ValueError):
        HomologyResult(free_rank=0, torsion=(1,))
    with pytest.raises(ValueError):
        HomologyResult(free_rank=0, torsion=(4, 6))


def dihedral_quandle(n):
    return FiniteRack([[(2 * x - y) % n for y in range(n)] for x in range(n)])


def alexander_quandle(n, t):
    """act(x, y) = t*y + (1 - t)*x mod n, for t a unit mod n."""
    return FiniteRack([[(t * y + (1 - t) * x) % n for y in range(n)] for x in range(n)])


def permutation_rack(images):
    """act(x, y) = f(y) for every x: a rack, and no quandle unless f = 1."""
    return FiniteRack([list(images)] * len(images))


def disjoint_union(a, b):
    """a and b side by side, each acting trivially on the other."""
    n = a.size
    rows = [list(row) + list(range(n, n + b.size)) for row in a.table]
    rows += [list(range(n)) + [n + v for v in row] for row in b.table]
    return FiniteRack(rows)


def full_d3_homology(rack):
    """H_2 from every column of d3, as second_homology computed it before
    it kept only the columns of generating points."""
    d2, d3 = boundary_matrices(rack)
    _, rank2 = smith_normal_form(d2)
    factors3, rank3 = smith_normal_form(d3)
    return HomologyResult(rack.size**2 - rank2 - rank3, tuple(d for d in factors3 if d > 1))


def test_second_homology_matches_the_full_d3():
    racks = [dihedral_quandle(n) for n in range(3, 10)]
    racks += [alexander_quandle(n, t) for n, t in ((5, 2), (7, 3), (8, 3), (8, 5), (9, 2))]
    racks += [permutation_rack(f) for f in ((1, 2, 3, 0), (1, 0, 3, 4, 2), (0, 2, 1))]
    racks += [trivial_rack(n) for n in (1, 2, 3)]
    racks.append(disjoint_union(dihedral_quandle(3), dihedral_quandle(5)))
    racks += small_conjugation_racks(8, seed=73)
    racks += relabelled_goldens()
    sizes = set()
    for rack in racks:
        generators = homology._generating_points(rack.table)
        sizes.add(len(generators))
        assert subrack_closure(rack, generators) == frozenset(range(rack.size))
        assert second_homology(rack) == full_d3_homology(rack), rack.table
    assert {1, 2, 3, 4} <= sizes
    # no column can be skipped on a trivial rack: every point generates only itself
    assert homology._generating_points(trivial_rack(3).table) == [0, 1, 2]
    eight_five = alexander_quandle(8, 5)
    assert len(homology._generating_points(eight_five.table)) == 4
    assert second_homology(eight_five).torsion == (2, 2, 2, 2)


def restricted_d3_homology(rack):
    """H_2 by the d3 route second_homology took before the adjoint group:
    rank d2 from d2's Smith form, and the torsion and rank of d3 from one
    Smith form on its columns whose first point is a generating point."""
    table = rack.table
    _, rank2 = smith_normal_form(homology._d2(table))
    factors3, rank3 = smith_normal_form(homology._d3(table, homology._generating_points(table)))
    return HomologyResult(rack.size**2 - rank2 - rank3, tuple(d for d in factors3 if d > 1))


def union_racks():
    """Disjoint unions of two and of three racks, mixing trivial racks,
    permutation racks and dihedral quandles, so several orbits share one
    torsion chain."""
    parts = [
        (trivial_rack(2), dihedral_quandle(4)),
        (permutation_rack((1, 2, 3, 0)), dihedral_quandle(6)),
        (trivial_rack(1), permutation_rack((1, 0, 3, 4, 2))),
        (dihedral_quandle(4), conjugation_rack(three_cycles_of_a4())),
        (trivial_rack(1), permutation_rack((1, 2, 3, 0)), dihedral_quandle(4)),
        (dihedral_quandle(3), trivial_rack(2), permutation_rack((0, 2, 1))),
        (permutation_rack((1, 0, 3, 4, 2)), dihedral_quandle(4), dihedral_quandle(5)),
    ]
    racks = []
    for first, *rest in parts:
        for part in rest:
            first = disjoint_union(first, part)
        racks.append(first)
    return racks


def test_second_homology_matches_the_restricted_d3():
    racks = homology_test_racks() + relabelled_goldens() + union_racks()
    racks += small_conjugation_racks(200, seed=11)
    torsions = set()
    for rack in racks:
        h = second_homology(rack)
        torsions.add(h.torsion)
        assert h == restricted_d3_homology(rack), rack.table
    assert {(), (2, 2), (2, 2, 2, 2), (10,), (30,)} <= torsions
    unions = [second_homology(rack) for rack in union_racks()]
    assert HomologyResult(25, (2, 2)) in unions
    assert HomologyResult(16, (2, 2, 2, 2)) in unions


def test_three_hundred_sixty_element_class_golden_value():
    # the (7,7) class rack: its restricted d3 alone has 2 * 360^2 columns,
    # out of the d3 route's reach
    rack = class_rack(7, 7)
    assert rack.size == 360
    assert second_homology(rack) == HomologyResult(1, (42,))


def test_second_homology_reduces_only_the_columns_of_generating_points(monkeypatch):
    # one Smith form, on the point stabilisers' relation matrix: a column
    # per Schreier generator off the transversal tree, |O|(|S| - 1) + 1 for
    # each orbit O; neither d2 nor d3 is built
    reduced = []
    real = homology.smith_normal_form

    def recording(matrix):
        reduced.append(matrix)
        return real(matrix)

    def not_built(*args):
        raise AssertionError("second_homology built a boundary matrix")

    monkeypatch.setattr(homology, "smith_normal_form", recording)
    monkeypatch.setattr(homology, "_d2", not_built)
    monkeypatch.setattr(homology, "_d3", not_built)
    for rack, torsion, columns in (
        (twentyfour_subrack(), (14,), 25),
        (disjoint_union(dihedral_quandle(3), dihedral_quandle(5)), (), 26),
    ):
        reduced.clear()
        assert second_homology(rack).torsion == torsion
        generators = homology._generating_points(rack.table)
        # the sum over the orbits of |O|(|S| - 1) + 1, as the |O| add up to n
        assert rack.size * (len(generators) - 1) + inner_orbit_count(rack) == columns
        (relations,) = reduced
        assert relations.cols == columns


def homology_test_racks():
    """Trivial, dihedral, cyclic-shift, Alexander, permutation and union
    racks, the A_4 3-cycles, seeded conjugation racks, the (5,5) and (5,6)
    class racks and the 24-element subrack."""
    racks = [trivial_rack(n) for n in (1, 2, 3)]
    racks += [dihedral_quandle(n) for n in range(3, 10)]
    racks += [FiniteRack([[(y + 1) % n for y in range(n)]] * n) for n in (2, 3, 4)]
    racks += [alexander_quandle(n, t) for n, t in ((5, 2), (7, 3), (8, 3), (8, 5), (9, 2))]
    racks += [permutation_rack(f) for f in ((1, 2, 3, 0), (1, 0, 3, 4, 2), (0, 2, 1))]
    racks.append(disjoint_union(dihedral_quandle(3), dihedral_quandle(5)))
    racks.append(conjugation_rack(three_cycles_of_a4()))
    racks += small_conjugation_racks(8, seed=71)
    racks += [class_rack(5, 5), class_rack(5, 6), twentyfour_subrack()]
    return racks


def test_rank_of_d2_is_size_minus_orbit_count():
    # im d2 is spanned by e_y - e_(xy), so Z^n / im d2 is free on the orbits
    # of the group the rows generate
    orbit_counts = set()
    for rack in homology_test_racks():
        orbits = inner_orbit_count(rack)
        orbit_counts.add(orbits)
        # the (5,6) rack's full d3 has 72^3 columns; its d2 is all this needs
        d2 = homology._d2(rack.table) if rack.size == 72 else boundary_matrices(rack)[0]
        assert rack.size - orbits == smith_normal_form(d2)[1], rack.table
    assert {1, 2, 3, 4} <= orbit_counts


def self_distributivity_failures(table, firsts):
    n = len(table)
    return [
        (x, y, z)
        for x in firsts
        for y in range(n)
        for z in range(n)
        if table[x][table[y][z]] != table[table[x][y]][table[x][z]]
    ]


def test_second_homology_checks_every_triple():
    # self-distributive at every triple whose first point generates, the
    # first points of second_homology's relators (and d2 . d3 = 0 on those
    # columns); the row of 1 is no bijection and (2, 1, 1) fails, so only
    # the check of every triple finds that the table is no rack
    table = ((0, 1, 2), (0, 2, 0), (0, 1, 0))
    generators = homology._generating_points(table)
    assert generators == [0, 1]
    assert self_distributivity_failures(table, generators) == []
    assert self_distributivity_failures(table, range(3)) == [(2, 1, 1)]
    assert homology._d2(table).multiply(homology._d3(table, generators)).is_zero()
    rack = FiniteRack(table, check=False)
    with pytest.raises(ValueError):
        second_homology(rack)
    with pytest.raises(ValueError):
        boundary_matrices(rack)


def test_bijective_rows_self_distributive_at_generating_points_make_a_rack():
    # why a table of bijections that is self-distributive at the generating
    # points is a rack, which the generating-point columns of
    # restricted_d3_homology rely on: when the rows of a and b are
    # automorphisms, the row of act(a, b) is their conjugate, so the points
    # with automorphism rows are closed and hold the generating points. All
    # 24^4 tables of bijections on 4 points, exhaustively:
    passing = 0
    for table in product(permutations(range(4)), repeat=4):
        if self_distributivity_failures(table, homology._generating_points(table)):
            continue
        passing += 1
        assert self_distributivity_failures(table, range(4)) == [], table
    assert passing > 100


def test_seventy_two_element_class_golden_value():
    rack = class_rack(5, 6)
    assert rack.size == 72
    assert homology._generating_points(rack.table) == [0, 1, 12]
    structure = second_homology(rack)
    # Etingof-Grana: free rank (Inn-orbits)^2, and the class is one orbit
    assert structure.free_rank == inner_orbit_count(rack) ** 2 == 1
    assert structure.torsion == (30,)
    assert structure.pretty == "k^× × G_30"


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


def relabelled_goldens():
    """The (5,5) class rack and the 24-element subrack, each under two
    seeded relabellings."""
    rng = random.Random(74)
    racks = []
    for golden in (class_rack(5, 5), twentyfour_subrack()):
        for _ in range(2):
            perm = list(range(golden.size))
            rng.shuffle(perm)
            racks.append(relabelled(golden, perm))
    return racks


def d3_column_by_column(table, firsts):
    """d3's entries as (key, value) items, each column's four terms merged
    in a dict of its own and then copied out in that dict's order."""
    n = len(table)
    entries = []
    for x in firsts:
        for y in range(n):
            for z in range(n):
                col = (x * n + y) * n + z
                terms = {}
                for key, delta in (
                    (y * n + z, 1),
                    (x * n + table[y][z], 1),
                    (x * n + z, -1),
                    (table[x][y] * n + table[x][z], -1),
                ):
                    total = terms.get(key, 0) + delta
                    if total:
                        terms[key] = total
                    else:
                        terms.pop(key, None)
                entries += [((key, col), v) for key, v in terms.items()]
    return entries


def test_d3_entries_come_in_the_column_by_column_order():
    # the order of d3's entries sets the Smith form's pivots, so it is
    # pinned, item by item, on the generating points and on every point
    for rack in homology_test_racks() + small_conjugation_racks(8, seed=73) + relabelled_goldens():
        table = rack.table
        n = rack.size
        firsts = [homology._generating_points(table)]
        # the (5,6) rack's full d3 has 72^3 columns: one first point at a time
        firsts += [[x] for x in range(n)] if n == 72 else [range(n)]
        for chosen in firsts:
            expected = d3_column_by_column(table, chosen)
            assert list(homology._d3(table, chosen).entries.items()) == expected


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
