import math
import random
from itertools import permutations as all_perms

import pytest

from rackforge.groups import (
    alternating_conjugate,
    alternating_group,
    build_bsgs,
    conjugacy_class_list,
    conjugacy_orbit_contains,
    symmetric_group,
)
from rackforge.perm import Permutation, conjugate


def brute_alternating_conjugate(sigma, tau):
    """Oracle: search every even conjugator of the small degree directly."""
    m = sigma.degree
    for images in all_perms(range(m)):
        g = Permutation(images)
        if g.parity() == 1 and conjugate(g, sigma) == tau:
            return True
    return False


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
        assert symmetric_group(m).order == math.factorial(m)


def test_natural_group_detection():
    assert alternating_group(6).is_natural_alternating()
    assert not alternating_group(6).is_natural_symmetric()
    assert symmetric_group(6).is_natural_symmetric()
    assert not symmetric_group(6).is_natural_alternating()
    klein = build_bsgs(
        [Permutation.from_cycles("(1 2)(3 4)", 4), Permutation.from_cycles("(1 3)(2 4)", 4)]
    )
    assert klein.order == 4
    assert not klein.is_natural_alternating()


def test_membership_by_parity():
    a7 = alternating_group(7)
    assert a7.contains(Permutation.cycle([1, 2, 3], 7))
    assert not a7.contains(Permutation.cycle([1, 2], 7))
    assert symmetric_group(7).contains(Permutation.cycle([1, 2], 7))


def test_membership_in_proper_subgroup():
    # <(1 2 3 4 5 6 7), (2 4 3 7 5 6)> has order 56 inside A_8 territory
    gens = [
        Permutation.cycle([1, 2, 3, 4, 5, 6, 7], 7),
        Permutation.from_cycles("(2 4 3 7 5 6)", 7),
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
    s3 = symmetric_group(3)
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
    s5 = symmetric_group(5)
    assert len(conjugacy_class_list(s5, five_cycle)) == 24


def test_conjugacy_class_list_members_are_conjugate():
    a6 = alternating_group(6)
    x = Permutation.from_cycles("(1 2 3)(4 5 6)", 6)
    cls = conjugacy_class_list(a6, x)
    assert len(cls) == 40
    assert len(set(cls)) == 40
    for y in cls[:10]:
        assert conjugacy_orbit_contains(a6, x, y).answer == "yes"


def test_conjugacy_class_list_cap():
    a8 = alternating_group(8)
    with pytest.raises(ValueError):
        conjugacy_class_list(a8, Permutation.cycle([1, 2, 3], 8), cap=10)


def test_conjugacy_orbit_answers():
    a5 = alternating_group(5)
    x = Permutation.cycle([1, 2, 3, 4, 5], 5)
    # (1 2) x (1 2) is in the other A_5 class of 5-cycles
    other = conjugate(Permutation.cycle([1, 2], 5), x)
    assert conjugacy_orbit_contains(a5, x, other).answer == "no"
    assert conjugacy_orbit_contains(a5, x, x * x).answer == "no"
    assert conjugacy_orbit_contains(a5, x, conjugate(Permutation.cycle([1, 2, 3], 5), x)).answer == "yes"


def test_conjugacy_orbit_cap_reports_capped():
    # inside a proper subgroup the search must enumerate, so a tiny cap trips
    gens = [
        Permutation.cycle([1, 2, 3, 4, 5, 6, 7], 7),
        Permutation.from_cycles("(2 4 3 7 5 6)", 7),
    ]
    g = build_bsgs(gens)
    x = Permutation.cycle([1, 2, 3, 4, 5, 6, 7], 7)
    probe = conjugacy_orbit_contains(g, x, Permutation.identity(7), cap=2)
    assert probe.answer in ("no", "capped")
    if probe.answer == "capped":
        assert probe.visited > probe.cap


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


def test_alternating_conjugate_rejects_odd_inputs():
    with pytest.raises(ValueError):
        alternating_conjugate(Permutation.cycle([1, 2], 4), Permutation.cycle([3, 4], 4))


def test_class_fusion_matches_split_rule():
    # the A_m class of an all-odd-all-distinct type has half the S_m size
    a7 = alternating_group(7)
    s7 = symmetric_group(7)
    seven = Permutation.cycle(list(range(1, 8)), 7)
    assert len(conjugacy_class_list(s7, seven)) == 720
    assert len(conjugacy_class_list(a7, seven)) == 360
    mixed = Permutation.from_cycles("(1 2 3)(4 5)", 7)
    assert len(conjugacy_class_list(s7, mixed)) == 420
