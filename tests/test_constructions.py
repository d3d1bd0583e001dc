import random
import tracemalloc
from itertools import combinations, islice, permutations

import pytest

from rackforge.constructions import (
    affine_frobenius_group,
    class_elements,
    natural_class,
    order_p_class_reps,
    projective_points,
    psl_order,
    psl_permutation_group,
)
from rackforge import groups
from rackforge.groups import (
    alternating_conjugate,
    alternating_group,
    build_bsgs,
    conjugacy_orbit_contains,
)
from rackforge.perm import Permutation


def test_projective_point_counts():
    # |P^(k-1)(F_r)| = (r^k - 1)/(r - 1)
    for k, r in ((2, 4), (2, 5), (3, 2), (3, 3), (2, 16), (4, 2)):
        geometry = projective_points(k, r)
        assert geometry.count == (r**k - 1) // (r - 1)
        assert len(geometry.points) == geometry.count
        assert len(set(geometry.points)) == geometry.count


def test_projective_normalization():
    geometry = projective_points(3, 3)
    assert list(geometry.points) == sorted(geometry.points)
    for vec in geometry.points:
        nonzero = [c for c in vec if c]
        assert nonzero and nonzero[0] == 1
        assert geometry.points[geometry.index[vec] - 1] == vec
        assert geometry.normalize(tuple(2 * c % 3 for c in vec)) == vec


def test_psl_orders():
    assert psl_order(2, 4) == 60
    assert psl_order(2, 5) == 60
    assert psl_order(3, 2) == 168
    assert psl_order(2, 7) == 168
    assert psl_order(3, 3) == 5616
    assert psl_order(2, 16) == 4080
    assert psl_order(2, 11) == 660


def test_psl_groups_construct_at_expected_degree():
    for k, r, degree in ((2, 4, 5), (3, 2, 7), (2, 7, 8), (3, 3, 13), (2, 16, 17)):
        g = psl_permutation_group(k, r)
        assert g.degree == degree
        assert g.order == psl_order(k, r)


def test_psl_2_4_is_alternating_five():
    g = psl_permutation_group(2, 4)
    assert g.is_natural_alternating()
    assert g.order == 60


def test_psl_is_deterministic():
    a = psl_permutation_group(3, 2)
    b = psl_permutation_group(3, 2)
    assert [x.images for x in a.generators] == [y.images for y in b.generators]


def test_psl_rejects_bad_parameters():
    with pytest.raises(ValueError):
        psl_permutation_group(1, 5)
    with pytest.raises(ValueError):
        psl_permutation_group(2, 6)


def test_affine_frobenius_group():
    g = affine_frobenius_group(3)
    assert g.degree == 8
    assert g.order == 56
    g16 = affine_frobenius_group(4)
    assert g16.degree == 16
    assert g16.order == 240
    with pytest.raises(ValueError):
        affine_frobenius_group(1)


def test_affine_frobenius_is_regular_on_nonzero_orders():
    # Frobenius: only the identity fixes two points
    g = affine_frobenius_group(3)
    rng = random.Random(41)
    for _ in range(300):
        x = g.sample(rng)
        fixed = [a for a in range(1, 9) if x(a) == a]
        assert x == Permutation.identity(8) or len(fixed) <= 1


def test_order_p_class_reps_counts():
    # the scenario table: L_3(2) at p=7, L_3(3) at p=13, L_2(4) at p=5
    reps = order_p_class_reps(psl_permutation_group(3, 2), 7)
    assert len(reps) == 2
    reps = order_p_class_reps(psl_permutation_group(3, 3), 13)
    assert len(reps) == 4
    reps = order_p_class_reps(psl_permutation_group(2, 4), 5)
    assert len(reps) == 2
    reps = order_p_class_reps(affine_frobenius_group(3), 7)
    assert len(reps) == 6


def test_order_p_class_reps_are_distinct_classes():
    g = psl_permutation_group(3, 2)
    reps = order_p_class_reps(g, 7)
    for x in reps:
        assert x.order() == 7
        assert g.contains(x)
    probe = conjugacy_orbit_contains(g, reps[0], reps[1])
    assert probe.answer == "no"


def test_order_p_class_reps_rejects_large_sylow():
    with pytest.raises(ValueError):
        order_p_class_reps(alternating_group(6), 3)  # 9 divides 360
    with pytest.raises(ValueError):
        order_p_class_reps(alternating_group(5), 7)


# (group, p, seed) -> (reps[0] in cycle notation, exponent l of each rep
# x^l), pinned from a partition of the powers by pairwise orbit searches
PINNED_REPS = {
    (("L", 3, 2), 7, 0): ("(1 6 2 7 4 5 3)", (1, 3)),
    (("L", 3, 2), 7, 1): ("(1 6 4 5 3 7 2)", (1, 3)),
    (("L", 3, 2), 7, 5): ("(1 5 6 7 2 4 3)", (1, 3)),
    (("L", 3, 3), 13, 0): ("(1 11 3 13 6 5 8 7 2 12 10 9 4)", (1, 2, 4, 7)),
    (("L", 3, 3), 13, 1): ("(1 8 6 9 4 2 11 3 5 10 13 12 7)", (1, 2, 4, 7)),
    (("L", 3, 3), 13, 5): ("(1 4 5 13 11 7 6 8 2 10 3 12 9)", (1, 2, 4, 7)),
    (("L", 2, 4), 5, 0): ("(1 4 5 2 3)", (1, 2)),
    (("L", 2, 4), 5, 1): ("(1 4 5 2 3)", (1, 2)),
    (("L", 2, 4), 5, 5): ("(1 2 4 5 3)", (1, 2)),
    (("L", 2, 8), 7, 0): ("(1 2 6 8 3 5 9)", (1, 2, 3)),
    (("L", 2, 8), 7, 1): ("(1 5 6 9 3 4 7)", (1, 2, 3)),
    (("L", 2, 8), 7, 5): ("(1 6 7 4 9 2 3)", (1, 2, 3)),
    (("L", 2, 16), 17, 0): ("(1 2 5 4 13 16 14 3 11 17 9 12 10 15 6 7 8)", tuple(range(1, 9))),
    (("L", 2, 16), 17, 1): ("(1 15 7 9 4 6 16 17 10 8 3 2 12 14 11 13 5)", tuple(range(1, 9))),
    (("L", 2, 16), 17, 5): ("(1 9 14 12 7 17 4 3 10 11 2 5 16 6 13 15 8)", tuple(range(1, 9))),
    (("L", 2, 27), 13, 0): (
        "(1 17 26 24 7 25 21 13 18 9 19 14 23)(2 8 12 27 20 4 28 15 3 11 16 22 5)",
        tuple(range(1, 7)),
    ),
    (("L", 2, 27), 13, 1): (
        "(1 4 19 14 9 24 15 12 3 27 13 17 23)(2 18 25 26 16 6 8 7 20 28 21 11 10)",
        tuple(range(1, 7)),
    ),
    (("L", 2, 27), 13, 5): (
        "(1 20 19 11 9 13 16 28 22 5 21 25 12)(2 17 24 3 27 23 15 8 4 6 26 18 14)",
        tuple(range(1, 7)),
    ),
    (("F", 3), 7, 0): ("(1 6 5 7 3 2 8)", tuple(range(1, 7))),
    (("F", 3), 7, 1): ("(1 3 8 2 6 5 4)", tuple(range(1, 7))),
    (("F", 3), 7, 5): ("(1 7 2 5 6 8 4)", tuple(range(1, 7))),
    (("F", 5), 31, 0): (
        "(1 22 26 27 2 29 19 4 15 5 21 17 18 25 20 11 6 30 28 9 24 12 13 23 3 8 16 14 32 10 31)",
        tuple(range(1, 31)),
    ),
    (("F", 5), 31, 1): (
        "(1 8 7 11 17 26 27 15 6 31 28 3 32 24 25 23 21 13 30 16 10 5 19 2 12 29 4 20 14 18 22)",
        tuple(range(1, 31)),
    ),
    (("F", 5), 31, 5): (
        "(1 12 31 14 4 24 20 6 11 10 22 25 17 26 8 2 29 7 23 5 30 18 15 32 27 28 13 21 16 9 3)",
        tuple(range(1, 31)),
    ),
}


def _pinned_cases():
    """(group, p, seed, pinned reps[0], pinned exponents), each group built
    once."""
    built = {}
    for (key, p, seed), (first, exponents) in PINNED_REPS.items():
        if key not in built:
            built[key] = (
                psl_permutation_group(key[1], key[2]) if key[0] == "L" else affine_frobenius_group(key[1])
            )
        yield built[key], p, seed, first, exponents


def _tuple_power(x, e):
    y = tuple(range(len(x)))
    for _ in range(e):
        y = tuple(x[i] for i in y)
    return y


def _tuple_class(gens, x):
    """The class of x under the group the generators produce, by
    breadth-first conjugation y -> g y g^-1 on plain image tuples."""
    seen = {x}
    frontier = [x]
    while frontier:
        fresh = []
        for y in frontier:
            for g in gens:
                z = [0] * len(y)
                for i, yi in enumerate(y):
                    z[g[i]] = g[yi]
                z = tuple(z)
                if z not in seen:
                    seen.add(z)
                    fresh.append(z)
        frontier = fresh
    return seen


def test_order_p_class_reps_match_pins_and_brute_force_classes():
    for group, p, seed, first, exponents in _pinned_cases():
        reps = order_p_class_reps(group, p, seed=seed)
        x = reps[0].images
        assert str(reps[0]) == first
        assert [r.images for r in reps] == [_tuple_power(x, e) for e in exponents]
        gens = [g.images for g in group.generators]
        classes = [_tuple_class(gens, r.images) for r in reps]
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                assert a.isdisjoint(b)
        for l in range(1, p):
            assert sum(_tuple_power(x, l) in c for c in classes) == 1


def test_order_p_class_reps_power_classes_are_cosets():
    # H = {e : x^e ~ x}, by brute force, is a subgroup of (Z/p)^* whose
    # cosets are the classes of the powers, one rep each at its least exponent
    for group, p, seed, _, exponents in _pinned_cases():
        reps = order_p_class_reps(group, p, seed=seed)
        x = reps[0].images
        cls = _tuple_class([g.images for g in group.generators], x)
        h = {e for e in range(1, p) if _tuple_power(x, e) in cls}
        assert all(a * b % p in h for a in h for b in h)
        assert len(h) * len(reps) == p - 1
        assert exponents == tuple(
            l for l in range(1, p) if all(l * e % p >= l for e in h)
        )


def test_order_p_class_reps_decides_h_prime_by_prime(monkeypatch):
    # |H| is found from the prime powers of p - 1, stopping at the first
    # failure for each prime: at most Omega(p - 1) conjugacy tests (3 at
    # p = 13, 4 at p = 17), not p - 1. L_3(3) has |H| = 3: x ~ x^-1 fails,
    # then the order-3 test passes and 9 does not divide 12. L_2(16) has
    # |H| = 2: x ~ x^-1 passes, then the order-4 test fails.
    from rackforge import constructions

    answers = []
    original = constructions.conjugacy_orbit_contains

    def counted(group, x, target):
        probe = original(group, x, target)
        answers.append(probe.answer)
        return probe

    monkeypatch.setattr(constructions, "conjugacy_orbit_contains", counted)
    expected = {13: (["no", "yes"], 4), 17: (["yes", "no"], 8)}
    for k, r, p in ((3, 3, 13), (2, 16, 17)):
        answers.clear()
        reps = order_p_class_reps(psl_permutation_group(k, r), p)
        assert (answers, len(reps)) == expected[p]


def test_order_p_class_reps_uses_the_closed_form_on_natural_groups(monkeypatch):
    # A_13 has 239,500,800 elements and a 13-cycle class of 23,950,080:
    # any class walk here is a regression. Every walk, in the class list
    # and in the orbit search, goes through the one generator _conjugates
    def no_walk(*args, **kwargs):
        raise AssertionError("class enumerated on a natural group")

    monkeypatch.setattr(groups, "_conjugates", no_walk)
    assert len(order_p_class_reps(alternating_group(13), 13)) == 2
    # S_13 has no closed form; the coset sift answers (|C(x)| = 13)
    s13 = build_bsgs([Permutation.cycle([1, 2], 13), Permutation.cycle(range(1, 14), 13)])
    assert len(order_p_class_reps(s13, 13)) == 1


def test_order_p_class_reps_sift_the_coset_on_the_search_groups(monkeypatch):
    # every group the subgroup strategy searches, and L_3(3) and L_2(16)
    # at degree p, decides each x ~ x^e without walking a class: the group
    # is proper on its points, so it is the coset sift that answers
    from rackforge.classify import _candidate_subgroups

    groups_by_p = [(psl_permutation_group(3, 3), 13), (psl_permutation_group(2, 16), 17)]
    for p in (7, 13, 17):
        for m in (p, p + 1):
            groups_by_p += [(group, p) for group in _candidate_subgroups(p, m)]
    assert len(groups_by_p) == 9

    def no_walk(*args, **kwargs):
        raise AssertionError("class enumerated on a search group")

    monkeypatch.setattr(groups, "_conjugates", no_walk)
    for group, p in groups_by_p:
        assert not group.is_natural_alternating()
        reps = order_p_class_reps(group, p, seed=5)
        assert len(reps) > 1 and (p - 1) % len(reps) == 0


def test_natural_class_sizes():
    assert natural_class(5, 5).class_size == 12
    assert natural_class(5, 6).class_size == 72
    assert natural_class(7, 7).class_size == 360
    assert natural_class(7, 8).class_size == 2880
    assert natural_class(11, 11).class_size == 1814400
    assert natural_class(5, 5).sigma == Permutation.cycle([1, 2, 3, 4, 5], 5)


def test_natural_class_rejects_bad_input():
    with pytest.raises(ValueError):
        natural_class(4, 4)
    with pytest.raises(ValueError):
        natural_class(3, 3)
    with pytest.raises(ValueError):
        natural_class(5, 7)


def _class_in_walk_order(p, m):
    """Every p-cycle at degree m, by support and then by the lexicographic
    order of the cycle after its least point, kept when groups decides it is
    an A_m-conjugate of the standard p-cycle: no sign rule of the walk."""
    sigma = natural_class(p, m).sigma
    for support in combinations(range(1, m + 1), p):
        for tail in permutations(support[1:]):
            cycle = Permutation.cycle([support[0], *tail], m)
            if alternating_conjugate(sigma, cycle, m):
                yield cycle


def test_class_elements_enumerates_exactly_the_class():
    for p, m in ((5, 5), (5, 6), (7, 7)):
        info = natural_class(p, m)
        elems = list(class_elements(p, m))
        assert len(elems) == info.class_size
        assert len(set(elems)) == info.class_size
        for tau in elems[:40]:
            assert tau.order() == p
            assert alternating_conjugate(info.sigma, tau, m)
    # the order is pinned too: whole classes, then the head of larger ones
    for p, m, count in ((5, 5, None), (5, 6, None), (7, 7, None), (7, 8, None),
                        (11, 11, 20000), (11, 12, 20000), (13, 13, 20000)):
        walked = list(islice(class_elements(p, m), count))
        assert walked == list(islice(_class_in_walk_order(p, m), count)), (p, m)
        assert len(walked) == (count or natural_class(p, m).class_size)


@pytest.mark.parametrize("p", [13, 17, 23, 31])
def test_class_elements_is_lazy_at_every_degree(p):
    # a table or list as long as the (p-1)! tails would blow the bound
    tracemalloc.start()
    try:
        first = next(class_elements(p, p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == Permutation.cycle(list(range(1, p + 1)), p)
    assert peak < 1 << 20


def test_class_elements_matches_group_enumeration():
    from rackforge.groups import conjugacy_class_list

    a6 = alternating_group(6)
    sigma = Permutation.cycle([1, 2, 3, 4, 5], 6)
    assert set(class_elements(5, 6)) == set(conjugacy_class_list(a6, sigma))
