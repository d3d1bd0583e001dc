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
    # and 2p - k >= p + 3; at k = p (one support) a word certificate
    # recognises every pair drawn here from p = 11 on; k = p - 1, k = p - 2
    # (u = p + 1, p + 2) and k = 0 still build, and so does k = p below 11
    rng = random.Random(p)
    for k in range(p + 1):
        for _ in range(2):
            sigma, tau = overlapping_pair(p, k, rng)
            group = pair_subgroup(sigma, tau)
            recognised = 1 <= k <= p - 3 or (k == p and p >= 11)
            assert chains == ([] if recognised else ["pair_subgroup"]), k
            assert group.order == groups.build_bsgs([sigma, tau]).order
            if recognised:
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
    # contains answers in closed form; base and sample build the chain an
    # eager build gives, once
    sigma, tau = overlapping_pair(7, 2, random.Random(5))
    group = pair_subgroup(sigma, tau)
    moved = group.moved_points()
    outside = next(x for x in range(1, 15) if x not in moved)
    probes = [
        Permutation.cycle(moved[:3], 14),
        Permutation.cycle(moved[:2], 14),
        Permutation.cycle([moved[0], moved[1], outside], 14),
    ]
    answers = [group.contains(x) for x in probes]
    assert chains == []
    base = group.base
    assert chains == ["_levels"]
    rng = random.Random(9)
    samples = [group.sample(rng) for _ in range(5)]
    assert chains == ["_levels"]
    eager = groups.build_bsgs([sigma, tau])
    assert base == eager.base
    assert answers == [eager.contains(x) for x in probes] == [True, False, False]
    rng = random.Random(9)
    assert samples == [eager.sample(rng) for _ in range(5)]
    assert group.order == eager.order == factorial(12) // 2


def same_support_pairs(p, m, count, seed):
    """The pairs (sigma, tau) of the class of the standard p-cycle at
    degree m in which tau moves the same p points as sigma: every such
    tau of the class when count is None, else those among `count` seeded
    conjugates."""
    sigma = natural_class(p, m).sigma
    taus = class_elements(p, m) if count is None else islice(seeded_conjugates(p, m, seed), count)
    return [(sigma, tau) for tau in taus if tau.support() == sigma.support()]


# (p, m, count, seed, pairs with one support, pairs the words certify):
# every u = p pair at p = 7, and seeded pairs at (11,11), (13,13), (11,12)
CERTIFICATE_SETS = [
    (7, 7, None, 0, 360, 217),
    (7, 8, None, 0, 360, 217),
    (11, 11, 200, 0, 200, 193),
    (13, 13, 50, 0, 50, 50),
    (11, 12, 300, 0, 21, 21),
]


@pytest.mark.parametrize("p, m, count, seed, pairs, certified", CERTIFICATE_SETS)
def test_the_word_certificate_names_only_the_full_alternating_group(p, m, count, seed, pairs, certified):
    # a pair the words certify has order p!/2 in a fresh chain and, at
    # (7,7), in a closure on plain tuples; pair_subgroup takes the
    # certificate from p = 11 on and otherwise gives that fresh chain
    full = factorial(p) // 2
    found = same_support_pairs(p, m, count, seed)
    assert len(found) == pairs
    hits = 0
    for sigma, tau in found:
        proven = groups._jordan_certificate(sigma.images, tau.images, sigma.support())
        group = pair_subgroup(sigma, tau)
        fresh = groups.build_bsgs([sigma, tau])
        assert group.order == fresh.order
        assert (group._chain is None) == (proven and p >= 11)
        if proven:
            hits += 1
            assert fresh.order == full
            if m == 7:
                assert closure_order(sigma.images, tau.images) == full
        else:
            assert group.base == fresh.base
    assert hits == certified


def test_closed_form_membership_matches_the_eager_chain(chains):
    # probes even and odd on U, and even ones that move a point outside U
    sigma, tau = same_support_pairs(11, 12, 300, 0)[0]
    group = pair_subgroup(sigma, tau)
    eager = groups.build_bsgs([sigma, tau])
    rng = random.Random(12)
    probes = [Permutation.identity(12), sigma, tau, sigma * tau]
    for _ in range(40):
        points = rng.sample(range(1, 13), 4)
        probes += [
            Permutation.cycle(points[:3], 12),
            Permutation.cycle(points[:2], 12),
            Permutation.cycle(points, 12),
            Permutation.cycle(points[:2], 12) * Permutation.cycle(points[2:], 12),
        ]
    chains.clear()
    answers = [group.contains(x) for x in probes]
    assert chains == []
    assert answers == [eager.contains(x) for x in probes]
    kinds = {(x.parity(), 12 in x.support(), answer) for x, answer in zip(probes, answers)}
    assert kinds == {
        (1, False, True),
        (-1, False, False),
        (1, True, False),
        (-1, True, False),
    }


def random_even_conjugate(sigma, rng):
    """g sigma g^-1 for g uniform in the alternating group: a uniform
    shuffle, made even by swapping two images."""
    m = sigma.degree
    g = list(range(m))
    rng.shuffle(g)
    if Permutation(g).parity() == -1:
        g[0], g[1] = g[1], g[0]
    image = [0] * m
    for i in range(m):
        image[g[i]] = g[sigma.images[i]]
    return Permutation(image)


@pytest.mark.parametrize("seed, certified", [(1, 40), (26, 38)])
def test_seeded_p_pairs_build_chains_only_when_uncertified(chains, seed, certified):
    # 40 pair tests at (11,11) drawn as the alt-identify workload draws them
    sigma = natural_class(11, 11).sigma
    points = sigma.support()
    rng = random.Random(seed)
    hits = 0
    for _ in range(40):
        tau = random_even_conjugate(sigma, rng)
        assert type_d_pair(sigma, tau).verdict == "Ax2Fail"
        proven = groups._jordan_certificate(sigma.images, tau.images, points)
        assert chains == ([] if proven else ["pair_subgroup"])
        hits += proven
        chains.clear()
    assert hits == certified
