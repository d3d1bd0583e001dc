import functools
import math
import random
from collections import Counter
from itertools import permutations as all_perms

import pytest

from rackforge.constructions import affine_frobenius_group, order_p_class_reps, psl_permutation_group
from rackforge.groups import (
    _aligning_conjugators,
    alternating_conjugate,
    alternating_group,
    build_bsgs,
    conjugacy_class_list,
    conjugacy_orbit_contains,
)
from rackforge.perm import Permutation, conjugate, parse_cycles


def symmetric(n):
    """S_n from a transposition and an n-cycle, n >= 2: an oracle fixture,
    since no group the package builds from p-cycles is odd."""
    return build_bsgs([Permutation.cycle([1, 2], n), Permutation.cycle(range(1, n + 1), n)])


@functools.lru_cache(maxsize=None)
def _even_perms(m):
    return [g for g in map(Permutation, all_perms(range(m))) if g.parity() == 1]


def brute_alternating_conjugate(sigma, tau):
    """Oracle: search every even conjugator of the small degree directly."""
    return any(conjugate(g, sigma) == tau for g in _even_perms(sigma.degree))


def random_even(degree, rng):
    while True:
        images = list(range(degree))
        rng.shuffle(images)
        g = Permutation(images)
        if g.parity() == 1:
            return g


def test_group_orders():
    for m in range(3, 11):
        assert alternating_group(m).order == math.factorial(m) // 2
        assert symmetric(m).order == math.factorial(m)


def test_natural_group_detection():
    assert alternating_group(6).is_natural_alternating()
    assert not symmetric(6).is_natural_alternating()
    klein = build_bsgs(
        [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)]
    )
    assert klein.order == 4
    assert not klein.is_natural_alternating()


def test_membership_by_parity():
    a7 = alternating_group(7)
    assert a7.contains(Permutation.cycle([1, 2, 3], 7))
    assert not a7.contains(Permutation.cycle([1, 2], 7))
    assert symmetric(7).contains(Permutation.cycle([1, 2], 7))


def test_membership_in_proper_subgroup():
    # <(1 2 3 4 5 6 7), (2 4 3 7 5 6)> has order 56 inside A_8 territory
    gens = [
        Permutation.cycle([1, 2, 3, 4, 5, 6, 7], 7),
        parse_cycles("(2 4 3 7 5 6)", 7),
    ]
    g = build_bsgs(gens)
    for gen in gens:
        assert g.contains(gen)
    assert not g.contains(Permutation.cycle([1, 2, 3], 7))


def test_build_bsgs_identity_only():
    g = build_bsgs([], degree=5)
    assert g.order == 1
    assert g.contains(Permutation.identity(5))
    assert not g.contains(Permutation.cycle([1, 2], 5))


def test_build_bsgs_needs_degree_for_empty_generators():
    with pytest.raises(ValueError):
        build_bsgs([])


def test_sample_is_in_group_and_uniformish():
    rng = random.Random(31)
    s3 = symmetric(3)
    counts = {}
    draws = 30_000
    for _ in range(draws):
        g = s3.sample(rng)
        assert s3.contains(g)
        counts[g] = counts.get(g, 0) + 1
    assert len(counts) == 6
    # each element expected 5000; 5 sigma of a binomial is about 322
    for n in counts.values():
        assert abs(n - draws / 6) < 5 * math.sqrt(draws * (1 / 6) * (5 / 6))


def test_sample_hits_whole_small_group():
    rng = random.Random(32)
    a4 = alternating_group(4)
    seen = {a4.sample(rng) for _ in range(600)}
    assert len(seen) == 12


def test_conjugacy_class_list_sizes():
    a5 = alternating_group(5)
    five_cycle = Permutation.cycle([1, 2, 3, 4, 5], 5)
    assert len(conjugacy_class_list(a5, five_cycle)) == 12
    three_cycle = Permutation.cycle([1, 2, 3], 5)
    assert len(conjugacy_class_list(a5, three_cycle)) == 20
    s5 = symmetric(5)
    assert len(conjugacy_class_list(s5, five_cycle)) == 24


def test_conjugacy_class_list_members_are_conjugate():
    a6 = alternating_group(6)
    x = parse_cycles("(1 2 3)(4 5 6)", 6)
    cls = conjugacy_class_list(a6, x)
    assert len(cls) == 40
    assert len(set(cls)) == 40
    for y in cls[:10]:
        assert conjugacy_orbit_contains(a6, x, y).answer == "yes"


def test_conjugacy_orbit_answers():
    a5 = alternating_group(5)
    x = Permutation.cycle([1, 2, 3, 4, 5], 5)
    # (1 2) x (1 2) is in the other A_5 class of 5-cycles
    other = conjugate(Permutation.cycle([1, 2], 5), x)
    assert conjugacy_orbit_contains(a5, x, other).answer == "no"
    assert conjugacy_orbit_contains(a5, x, x * x).answer == "no"
    assert conjugacy_orbit_contains(a5, x, conjugate(Permutation.cycle([1, 2, 3], 5), x)).answer == "yes"


def test_conjugacy_orbit_counts_are_pinned():
    # inside a proper subgroup the search enumerates the orbit: a target is
    # met at its place in BFS discovery order, and a miss visits all of it
    gens = [
        Permutation.cycle([1, 2, 3, 4, 5, 6, 7], 7),
        parse_cycles("(2 4 3 7 5 6)", 7),
    ]
    g = build_bsgs(gens)
    x = gens[0]
    cls = conjugacy_class_list(g, x)
    assert [str(y) for y in cls] == [
        "(1 2 3 4 5 6 7)",
        "(1 4 7 3 6 2 5)",
        "(1 3 5 7 2 4 6)",
        "(1 7 6 5 4 3 2)",
        "(1 5 2 6 3 7 4)",
        "(1 6 4 2 7 5 3)",
    ]
    targets = cls + [Permutation.identity(7)]
    probes = [conjugacy_orbit_contains(g, x, t) for t in targets]
    assert [(p.answer, p.visited) for p in probes] == [("yes", k) for k in range(1, 7)] + [("no", 6)]
    identity = Permutation.identity(7)
    assert conjugacy_class_list(g, identity) == [identity]


def test_conjugacy_class_list_at_degrees_one_and_two():
    # the walk conjugates with itemgetter, which returns a scalar, not a
    # tuple, when given one index
    e1 = Permutation.identity(1)
    assert conjugacy_class_list(build_bsgs([e1]), e1) == [e1]
    swap = Permutation.cycle([1, 2], 2)
    e2 = Permutation.identity(2)
    s2 = build_bsgs([swap])
    assert conjugacy_class_list(s2, swap) == [swap]
    assert conjugacy_class_list(s2, e2) == [e2]
    assert conjugacy_class_list(build_bsgs([e2]), swap) == [swap]


def _tuple_compose(a, b):
    return tuple(a[b[i]] for i in range(len(b)))


def test_orbit_search_at_degree_300_matches_brute_force():
    # the affine group of degree 7 and that of degree 5, on seeded disjoint
    # points of 1..300, with one generator acting on both: a proper group on
    # its moved points, so both searches enumerate at degree 300
    rng = random.Random(43)
    points = rng.sample(range(1, 301), 12)
    seven, five = points[:7], points[7:]

    def on(pts, cycle):
        return [pts[i - 1] for i in cycle]

    gens = []
    for cycles in (
        [on(seven, [1, 2, 3, 4, 5, 6, 7]), on(five, [1, 2, 3, 4, 5])],
        [on(seven, [2, 4, 3, 7, 5, 6])],
        [on(five, [2, 3, 5, 4])],
    ):
        images = list(range(300))
        for c in cycles:
            for a, b in zip(c, c[1:] + c[:1]):
                images[a - 1] = b - 1
        gens.append(tuple(images))
    # the group and its classes by brute force on image tuples
    elements = {tuple(range(300))}
    frontier = list(elements)
    while frontier:
        frontier = [_tuple_compose(h, s) for h in frontier for s in gens]
        frontier = [h for h in set(frontier) if h not in elements]
        elements.update(frontier)
    inverses = {h: tuple(sorted(range(300), key=h.__getitem__)) for h in elements}
    group = build_bsgs([Permutation(s) for s in gens])
    assert group.order == len(elements) == 42 * 20
    for x in rng.sample(sorted(elements), 6):
        orbit = {_tuple_compose(_tuple_compose(h, x), inverses[h]) for h in elements}
        cls = conjugacy_class_list(group, Permutation(x))
        assert cls[0].images == x
        assert len(cls) == len(orbit) and {y.images for y in cls} == orbit
        inside = Permutation(rng.choice(sorted(orbit)))
        assert conjugacy_orbit_contains(group, Permutation(x), inside).answer == "yes"
        outside = next(Permutation(h) for h in sorted(elements) if h not in orbit)
        probe = conjugacy_orbit_contains(group, Permutation(x), outside)
        assert (probe.answer, probe.visited) == ("no", len(orbit))


def test_alternating_conjugate_against_brute_force():
    rng = random.Random(33)
    for m in (4, 5, 6, 7):
        for _ in range(60):
            sigma = random_even(m, rng)
            tau = random_even(m, rng)
            assert alternating_conjugate(sigma, tau) == brute_alternating_conjugate(sigma, tau)


def test_alternating_conjugate_splitting_cases():
    # 5-cycles in A_5 split; x and x^2 land in different halves
    x = Permutation.cycle([1, 2, 3, 4, 5], 5)
    assert alternating_conjugate(x, x)
    assert not alternating_conjugate(x, x * x)
    # 3-cycles in A_5 do not split (two fixed points share a length)
    t = Permutation.cycle([1, 2, 3], 5)
    assert alternating_conjugate(t, conjugate(Permutation.cycle([1, 2], 5), t))


def test_alternating_conjugate_all_pairs_against_brute_force():
    # every ordered pair of S_n for n <= 5, odd and mixed-parity pairs too
    for n in range(1, 6):
        perms = [Permutation(images) for images in all_perms(range(n))]
        for sigma in perms:
            for tau in perms:
                assert alternating_conjugate(sigma, tau) == brute_alternating_conjugate(
                    sigma, tau
                ), (sigma, tau)


def _bfs_orbit(gens, x):
    """Oracle: the conjugacy orbit of the image tuple x under the image
    tuples gens, by plain breadth-first search."""
    orbit = {x}
    frontier = [x]
    while frontier:
        found = []
        for y in frontier:
            for g in gens:
                z = [0] * len(g)
                for i in range(len(g)):
                    z[g[i]] = g[y[i]]
                z = tuple(z)
                if z not in orbit:
                    orbit.add(z)
                    found.append(z)
        frontier = found
    return orbit


def _on_points(perm, points, degree):
    """perm of {1..len(points)} carried onto the 1-based points, rest fixed."""
    images = list(range(degree))
    for i, j in enumerate(perm.images):
        images[points[i] - 1] = points[j] - 1
    return Permutation(images)


def test_conjugacy_orbit_closed_forms_against_bfs_on_embedded_groups():
    # Alt(U) and Sym(U) for U = {2..7} inside degree 8: every answer agrees
    # with a BFS orbit, and Alt(U) answers confined pairs in closed form
    # (visited 0). Sym(U) has no closed form: the package builds no odd group
    points = list(range(2, 8))
    rng = random.Random(61)

    def on_u(*cycles):
        return build_bsgs([_on_points(Permutation.cycle(c, 6), points, 8) for c in cycles])

    alt = on_u([1, 2, 3], [2, 3, 4, 5, 6])
    sym = on_u([1, 2], [1, 2, 3, 4, 5, 6])
    assert alt.order == 360 and sym.order == 720
    for group in (alt, sym):
        gens = [g.images for g in group.generators]
        orbits = {}
        parities = set()
        yes = 0
        for _ in range(400):
            x = _on_points(Permutation(rng.sample(range(6), 6)), points, 8)
            if rng.random() < 0.5:
                target = _on_points(Permutation(rng.sample(range(6), 6)), points, 8)
            else:
                # a conjugate of x by any permutation of U: same cycle type
                g = _on_points(Permutation(rng.sample(range(6), 6)), points, 8)
                target = conjugate(g, x)
            if x.images not in orbits:
                orbits[x.images] = _bfs_orbit(gens, x.images)
            expected = target.images in orbits[x.images]
            probe = conjugacy_orbit_contains(group, x, target)
            assert probe.answer == ("yes" if expected else "no")
            if group is alt:
                assert probe.visited == 0
            parities.add((x.parity(), target.parity()))
            yes += expected
        assert parities == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert 0 < yes < 400
        # an input moving a point outside U falls back to the orbit search
        x = Permutation.cycle([1, 2, 3], 8)
        probe = conjugacy_orbit_contains(group, x, x)
        assert probe.answer == "yes" and probe.visited == 1


def test_class_fusion_matches_split_rule():
    # the A_m class of an all-odd-all-distinct type has half the S_m size
    a7 = alternating_group(7)
    s7 = symmetric(7)
    seven = Permutation.cycle(list(range(1, 8)), 7)
    assert len(conjugacy_class_list(s7, seven)) == 720
    assert len(conjugacy_class_list(a7, seven)) == 360
    mixed = parse_cycles("(1 2 3)(4 5)", 7)
    assert len(conjugacy_class_list(s7, mixed)) == 420


def _sym_centralizer_order(x):
    """|C(x)| in Sym(n) from the cycle type, fixed points as 1-cycles."""
    counts = Counter(len(c) for c in x.cycles(include_fixed=True))
    return math.prod(k**m * math.factorial(m) for k, m in counts.items())


def test_aligning_conjugators_are_the_whole_coset_against_brute_force():
    # seeded sigma of degree <= 7, many with repeated cycle lengths and
    # fixed points; every g of Sym(n) with g sigma g^-1 = tau, by brute
    # force, is yielded exactly once
    rng = random.Random(71)
    shapes = set()
    for n in (1, 2, 4, 5, 6, 7):
        perms = [Permutation(images) for images in all_perms(range(n))]
        for _ in range(6):
            sigma = rng.choice(perms)
            tau = conjugate(rng.choice(perms), sigma)
            found = list(_aligning_conjugators(sigma, tau))
            assert len(found) == len(set(found)) == _sym_centralizer_order(sigma)
            assert set(found) == {g for g in perms if conjugate(g, sigma) == tau}
            lengths = sorted(len(c) for c in sigma.cycles(include_fixed=True))
            shapes.add((len(set(lengths)) < len(lengths), 1 in lengths))
    assert shapes == {(False, True), (True, False), (True, True), (False, False)}
    # every length repeated, fixed points included: 2^2 2! 3^2 2! 1^2 2!
    sigma = parse_cycles("(1 2)(3 4)(5 6 7)(8 9 10)", 12)
    tau = parse_cycles("(2 11)(4 9)(1 5 8)(3 6 12)", 12)
    found = list(_aligning_conjugators(sigma, tau))
    assert len(set(found)) == len(found) == 2**2 * 2 * 3**2 * 2 * 2
    assert all(conjugate(g, sigma) == tau for g in found)


def test_aligning_conjugators_yield_nothing_across_cycle_types():
    rng = random.Random(72)
    perms = [Permutation(images) for images in all_perms(range(6))]
    for _ in range(200):
        sigma, tau = rng.choice(perms), rng.choice(perms)
        types = [sorted(len(c) for c in x.cycles(include_fixed=True)) for x in (sigma, tau)]
        if types[0] != types[1]:
            assert list(_aligning_conjugators(sigma, tau)) == []
    assert list(_aligning_conjugators(Permutation.identity(5), Permutation.cycle([1, 2], 5))) == []


def test_aligning_conjugators_first_element_is_pinned():
    # the first element matches the sorted cycles in order, unrotated; it
    # is the one alternating_conjugate and the subgroup strategy read
    cases = [
        ("(1 2 3)(4 5 6)(7 8)", "(2 7 4)(1 8 3)(5 6)", 9, (0, 7, 2, 1, 6, 3, 4, 5, 8)),
        ("(1 5)(2 6)(3 7 4)", "(3 4)(1 7)(2 5 6)", 8, (0, 2, 1, 5, 6, 3, 4, 7)),
        ("(1 2 3 4 5 6 7)", "(1 3 5 7 2 4 6)", 8, (0, 2, 4, 6, 1, 3, 5, 7)),
        ("(1 2)(3 4)", "(5 6)(2 3)", 7, (1, 2, 4, 5, 0, 3, 6)),
    ]
    for a, b, n, images in cases:
        sigma, tau = parse_cycles(a, n), parse_cycles(b, n)
        first = next(_aligning_conjugators(sigma, tau))
        assert first.images == images
        assert conjugate(first, sigma) == tau
    # lazily: the first of 300! * 7 conjugators comes at once
    big = Permutation.cycle([1, 2, 3, 4, 5, 6, 7], 307)
    assert next(_aligning_conjugators(big, big)) == Permutation.identity(307)


def test_coset_route_matches_the_bfs_orbit_oracle():
    # x from every order-p class and random elements; targets inside and
    # outside the orbit. The coset route answers (visited 0) exactly when
    # |C|^2 <= |H|, and agrees with the BFS oracle always
    rng = random.Random(73)
    routes = Counter()
    for group, p in (
        (psl_permutation_group(3, 3), 13),
        (psl_permutation_group(2, 16), 17),
        (affine_frobenius_group(3), 7),
    ):
        gens = [g.images for g in group.generators]
        xs = order_p_class_reps(group, p) + [group.sample(rng) for _ in range(6)]
        for x in xs:
            orbit = _bfs_orbit(gens, x.images)
            c = _sym_centralizer_order(x)
            inside = [conjugate(group.sample(rng), x) for _ in range(3)]
            outside = [y for y in (group.sample(rng) for _ in range(6)) if y.images not in orbit]
            outside += [y for y in order_p_class_reps(group, p) if y.images not in orbit]
            for target in inside + outside:
                probe = conjugacy_orbit_contains(group, x, target)
                coset = c * c <= group.order
                expected = target.images in orbit
                assert probe.answer == ("yes" if expected else "no")
                assert (probe.visited == 0) == coset
                routes[coset, expected] += 1
    assert set(routes) == {(True, True), (True, False), (False, True), (False, False)}
