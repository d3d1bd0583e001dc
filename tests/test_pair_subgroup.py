"""The subgroup a pair generates: one route to its chain, and its order
against a closure on plain tuples."""

import sys
from collections import Counter
from itertools import islice

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
