"""The subgroup a pair generates: one route to its chain, its order
against a closure on plain tuples and against a fresh chain, and the
chain a recognised Alt(U) builds on first use."""

import random
import sys
from collections import Counter
from itertools import islice
from math import factorial

import pytest

from rackforge import groups
from rackforge.classify import fw_identify, lemma_square_check, subrack_census
from rackforge.constructions import class_elements, natural_class, seeded_conjugates
from rackforge.groups import pair_subgroup
from rackforge.perm import Permutation
from rackforge.rack import type_d_pair


def closure_order(*gens):
    """Order of the group the 0-based image tuples generate: the closure of
    the identity under composition with the generators. Shares no code with
    the package."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        frontier = found
    return len(seen)


# (p, m, budget, seed): the whole class at (5,5) and (5,6), 20 seeded
# partners at (7,7) and (7,8), matching the pairs subrack_census takes
PAIR_SETS = [(5, 5, None, 0), (5, 6, None, 0), (7, 7, 20, 1), (7, 8, 20, 2)]


@pytest.mark.parametrize("p, m, budget, seed", PAIR_SETS)
def test_pair_orders_match_a_tuple_closure(p, m, budget, seed):
    sigma = natural_class(p, m).sigma
    if budget is None:
        taus = list(class_elements(p, m))
    else:
        taus = list(islice(seeded_conjugates(p, m, seed), budget))
    orders = Counter()
    for tau in taus:
        order = closure_order(sigma.images, tau.images)
        orders[order] += 1
        assert pair_subgroup(sigma, tau).order == order
        assert fw_identify(sigma, tau).order == order
        result = type_d_pair(sigma, tau)
        if result.verdict != "Ax1Fail":
            assert result.subgroup_order == order
    census = Counter()
    for row in subrack_census(p, m, budget=budget, seed=seed).rows:
        census[row.subgroup_order] += row.count
    assert census == orders


def test_pair_subgroup_rejects_a_degree_mismatch():
    with pytest.raises(ValueError):
        pair_subgroup(Permutation.cycle([1, 2, 3], 3), Permutation.cycle([1, 2, 3], 4))


@pytest.fixture
def chains(monkeypatch):
    """The name of the function that called groups.build_bsgs, once per
    chain built through it."""
    built = []
    original = groups.build_bsgs

    def counted(*args, **kwargs):
        built.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(groups, "build_bsgs", counted)
    return built


def test_every_pair_chain_comes_from_pair_subgroup(chains):
    sigma = natural_class(5, 5).sigma
    tau = next(
        t for t in class_elements(5, 5) if (sigma * t) ** 2 != (t * sigma) ** 2
    )
    assert type_d_pair(sigma, tau).verdict != "Ax1Fail"
    assert chains == ["pair_subgroup"]
    fw_identify(sigma, tau)
    assert chains == ["pair_subgroup"] * 2
    chains.clear()
    subrack_census(5, 5)
    assert chains == ["pair_subgroup"] * 12
    chains.clear()
    report = lemma_square_check(5, 5)
    assert report.square_pairs > 0
    assert chains == ["pair_subgroup"] * report.square_pairs


def overlapping_pair(p, k, rng):
    """Two p-cycles on 2p points whose supports share exactly k points, with
    random supports and random cyclic orders."""
    points = rng.sample(range(1, 2 * p + 1), 2 * p)
    second = points[p - k : 2 * p - k]
    rng.shuffle(second)
    return Permutation.cycle(points[:p], 2 * p), Permutation.cycle(second, 2 * p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_jordan_recognition_matches_a_fresh_chain(chains, p):
    # the union has 2p - k points: the rule needs 1 <= k (meeting supports)
    # and 2p - k >= p + 3; k = p - 2 (u = p + 2) and k = 0 still build
    rng = random.Random(p)
    for k in range(p + 1):
        for _ in range(2):
            sigma, tau = overlapping_pair(p, k, rng)
            group = pair_subgroup(sigma, tau)
            assert chains == ([] if 1 <= k <= p - 3 else ["pair_subgroup"]), k
            assert group.order == groups.build_bsgs([sigma, tau]).order
            if 1 <= k <= p - 3:
                assert group.order == factorial(2 * p - k) // 2
            chains.clear()


def test_jordan_recognition_matches_a_tuple_closure(chains):
    # two 5-cycles covering 8 points generate A_8, 20160 elements
    rng = random.Random(8)
    for _ in range(3):
        points = rng.sample(range(1, 9), 8)
        second = points[5:] + rng.sample(points[:5], 2)
        rng.shuffle(second)
        sigma, tau = Permutation.cycle(points[:5], 8), Permutation.cycle(second, 8)
        assert pair_subgroup(sigma, tau).order == closure_order(sigma.images, tau.images) == 20160
    assert chains == []


def test_an_eligible_pair_is_identified_and_tested_without_a_chain(chains):
    sigma, tau = overlapping_pair(11, 3, random.Random(3))
    case = fw_identify(sigma, tau)
    assert (case.tag, case.m, case.order) == ("xiii", 19, factorial(19) // 2)
    result = type_d_pair(sigma, tau)
    assert result.verdict != "Ax1Fail"
    assert result.subgroup_order == factorial(19) // 2
    assert chains == []


def test_a_recognised_group_builds_the_eager_chain_on_first_use(chains):
    sigma, tau = overlapping_pair(7, 2, random.Random(5))
    group = pair_subgroup(sigma, tau)
    assert chains == []
    moved = group.moved_points()
    outside = next(x for x in range(1, 15) if x not in moved)
    probes = [
        Permutation.cycle(moved[:3], 14),
        Permutation.cycle(moved[:2], 14),
        Permutation.cycle([moved[0], moved[1], outside], 14),
    ]
    assert group.contains(probes[0])
    assert chains == ["_levels"]
    answers = [group.contains(x) for x in probes]
    base = group.base
    rng = random.Random(9)
    samples = [group.sample(rng) for _ in range(5)]
    assert chains == ["_levels"]
    eager = groups.build_bsgs([sigma, tau])
    assert base == eager.base
    assert answers == [eager.contains(x) for x in probes] == [True, False, False]
    rng = random.Random(9)
    assert samples == [eager.sample(rng) for _ in range(5)]
    assert group.order == eager.order == factorial(12) // 2
