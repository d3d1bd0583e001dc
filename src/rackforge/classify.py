"""Classification of p-cycle classes and the machinery behind it.

Four layers: the closed-form verdict for the class of p-cycles in the
alternating group of degree p or p+1; identification of the subgroup two
p-cycles generate against the thirteen-case list; witness search that
exhibits or refutes pairs satisfying the two axioms; and censuses over the
class (subrack closures and the square-commuting dichotomy).

Searches fix the first element to the standard p-cycle: conjugation by any
even permutation carries pairs to pairs and preserves both axioms, so the
class acts transitively on first coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import factorial
from typing import Optional

from .constructions import (
    _check_class,
    affine_frobenius_group,
    class_elements,
    natural_class,
    order_p_class_reps,
    psl_order,
    psl_permutation_group,
    seeded_conjugates,
)
from .groups import (
    _aligning_conjugators,
    _conjugates,
    alternating_conjugate,
    conjugacy_orbit_contains,
    pair_subgroup,
)
from .numth import cyclotomic_decompositions, is_prime, prime_power_decompose
from .perm import Permutation, _conjugator, _json, conjugate
from .rack import TypeDWitness, type_d_pair

__all__ = [
    "ClassVerdict",
    "classify_class",
    "FwCase",
    "fw_identify",
    "SearchOutcome",
    "witness_search",
    "symmetric_group_witness",
    "CensusRow",
    "CensusReport",
    "subrack_census",
    "SquareCheckReport",
    "lemma_square_check",
    "DEEP_GATE",
]

# exhaustive enumeration above this class size requires deep=True
DEEP_GATE = 100_000


@dataclass(frozen=True)
class ClassVerdict:
    """Closed-form answer for the class of p-cycles at degree m."""

    p: int
    m: int
    verdict: str  # "TypeD" | "NotTypeD"
    reason: dict

    def to_json_dict(self):
        return _json(self)


def classify_class(p, m):
    """Decide whether the class of p-cycles in the alternating group of
    degree m is of type D.

    For m = p the class is of type D exactly when p >= 13 and p is a
    cyclotomic prime (r^k - 1)/(r - 1); for m = p + 1 the threshold drops
    to p >= 7 with the same cyclotomic condition. The reason dict carries
    the decomposition list and, when it blocks, the threshold rule.
    """
    _check_class(p, m)
    decomposition = [[r, k] for (r, k) in cyclotomic_decompositions(p)]
    threshold = 13 if m == p else 7
    if p >= threshold and decomposition:
        return ClassVerdict(p, m, "TypeD", {"cyclotomic": decomposition})
    reason = {"cyclotomic": decomposition}
    if p < threshold:
        reason["threshold"] = "p < %d" % threshold
    return ClassVerdict(p, m, "NotTypeD", reason)


@dataclass(frozen=True)
class FwCase:
    """Identification of the subgroup generated by two p-cycles: case tag,
    the support-union size m, the exact group order, and candidate names."""

    tag: str
    p: int
    m: int
    order: int
    names: tuple

    def to_json_dict(self):
        return _json(self)


def _case_candidates(p, m, order):
    """All case-table rows matching (p, m, order). Each row is (tag, name)."""
    out = []
    if m == p and order == p:
        out.append(("i", "Z/%d" % p))
    if m == 2 * p and order == p * p:
        out.append(("ii", "Z/%d x Z/%d" % (p, p)))
    if m == p:
        for r, k in cyclotomic_decompositions(p):
            if order == psl_order(k, r):
                out.append(("iii", "L_%d(%d)" % (k, r)))
    if m == p + 2 and prime_power_decompose(p + 1) is not None:
        if order == psl_order(2, p + 1):
            out.append(("iv", "L_2(%d)" % (p + 1)))
    if m == p + 1 and order == psl_order(2, p):
        out.append(("v", "L_2(%d)" % p))
    if m == p == 11:
        if order == 660:
            out.append(("vi", "L_2(11)"))
        if order == 7920:
            out.append(("vi", "M_11"))
    if m == p == 23 and order == 10_200_960:
        out.append(("vii", "M_23"))
    if m == 12 and p == 11:
        if order == 95_040:
            out.append(("viii", "M_12"))
        if order == 7920:
            out.append(("viii", "M_11"))
        if order == 660:
            out.append(("viii", "L_2(11)"))
    if m == 24 and p == 23 and order == 244_823_040:
        out.append(("ix", "M_24"))
    if m == p + 1:
        two_power = prime_power_decompose(m)
        if two_power is not None and two_power[0] == 2:
            k = two_power[1]
            if order == m * p:
                out.append(("x", "Frobenius(%d)" % (m * p)))
            if order == m * psl_order(k, 2):
                out.append(("xi", "2^%d:L_%d(2)" % (k, k)))
    if m == 3 and order == 6:
        out.append(("xii", "S_3"))
    if order == factorial(m) // 2:
        out.append(("xiii", "A_%d" % m))
    return out


def _resolve_case(p, m, order, candidates):
    """The case of the rows matching (p, m, order). Rows overlap only where
    they name one group (L_2(4) = A_5, L_2(11) in rows (v) and (viii), and
    small coincidences at p <= 3 such as L_2(3) = A_4), so the last matching
    row gives the tag and the names run from the last row to the first,
    each once."""
    if not candidates:
        raise ValueError(
            "no case matches p=%d, m=%d, order=%d; outside the thirteen-case table"
            % (p, m, order)
        )
    names = tuple(dict.fromkeys(name for _, name in reversed(candidates)))
    return FwCase(candidates[-1][0], p, m, order, names)


def _p_cycle_prime(perm):
    """The prime p when perm is a p-cycle (all other points fixed)."""
    lengths = [len(c) for c in perm.cycles()]
    if len(lengths) != 1 or not is_prime(lengths[0]):
        raise ValueError("expected a p-cycle with p prime, got %s" % perm)
    return lengths[0]


def fw_identify(sigma, tau):
    """Match the subgroup generated by two p-cycles against the case table.

    m is the size of the union of the two supports; the order comes from
    the pair's stabilizer chain. A pair whose (m, order) matches no row
    raises, since the table is exhaustive for pairs of p-cycles.
    """
    p = _p_cycle_prime(sigma)
    if _p_cycle_prime(tau) != p:
        raise ValueError("the two cycles must have one common prime length")
    return _case_of(p, pair_subgroup(sigma, tau))


def _case_of(p, group):
    """Case row of the group two p-cycles generate; m counts the points it moves."""
    m = len(group.moved_points())
    order = group.order
    return _resolve_case(p, m, order, _case_candidates(p, m, order))


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a witness search: found, proven absent, or budget ran out.

    Absence is only ever claimed after a completed exhaustive enumeration.
    Every pair test ends in a verdict, so the report's "indeterminate"
    count is always 0.
    """

    p: int
    m: int
    strategy: str
    status: str  # "witness" | "absence" | "exhausted"
    witness: Optional[TypeDWitness]
    pairs_tested: int
    seed: Optional[int] = None
    budget: Optional[int] = None

    def to_json_dict(self):
        return {**_json(self), "indeterminate": 0}


def _first_witness(sigma, taus):
    """Test (sigma, tau) for each tau in order, stopping at the first
    witness; returns (witness or None, pairs tested)."""
    tested = 0
    for tau in taus:
        tested += 1
        result = type_d_pair(sigma, tau)
        if result.verdict == "Witness":
            return result.witness, tested
    return None, tested


def witness_search(p, m, strategy="subgroup", budget=None, seed=0, deep=False):
    """Search the class of p-cycles at degree m for a pair satisfying both
    axioms, the first element pinned to the standard p-cycle.

    Every strategy is a stream of partners tau for the standard cycle,
    tested one at a time until the first witness or the budget:
    exhaustive: every class element as tau (proves absence when it
    completes); a run testing more than 100000 elements, the budget
    included, is gated by deep.
    random: seeded uniform conjugates of the standard cycle.
    subgroup: candidate pairs inside the linear groups attached to the
    cyclotomic decompositions of p, plus the affine Frobenius group when
    m = p + 1 is a power of two, carried to the standard cycle.

    Every witness is re-verified from scratch before being returned.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be a non-negative integer")
    spec = natural_class(p, m)
    if strategy == "exhaustive":
        limit = spec.class_size if budget is None else min(budget, spec.class_size)
        if limit > DEEP_GATE and not deep:
            raise ValueError("exhaustive search over %d elements needs deep=True" % limit)
        taus = class_elements(p, m)
    elif strategy == "random":
        limit = 10_000 if budget is None else budget
        taus = seeded_conjugates(p, m, seed)
    elif strategy == "subgroup":
        limit = 1_000_000 if budget is None else budget
        taus = _subgroup_partners(p, m, seed)
    else:
        raise ValueError("unknown strategy %r" % strategy)
    witness, tested = _first_witness(spec.sigma, islice(taus, limit))
    if witness is not None:
        status = "witness"
        witness = _reverify(witness, p, m)
    elif strategy == "exhaustive" and tested == spec.class_size:
        status = "absence"
    else:
        status = "exhausted"
    return SearchOutcome(p, m, strategy, status, witness, tested, seed, budget)


def _subgroup_partners(p, m, seed):
    """Partners of the standard cycle from the candidate subgroups. For
    representatives first and second of two distinct order-p subgroup
    classes in the same alternating half, each tau in the subgroup class of
    second is carried by the g with g first g^-1 = the standard cycle.
    Conjugation preserves both axioms, the generated subgroup's order and
    the orbit search, so (standard cycle, g tau g^-1) tests as (first, tau).
    A linear group on p < m points is read at degree m with point m fixed;
    every conjugator between two of its p-cycles fixes that point, so they
    are conjugate in A_m exactly when they are in A_p."""
    nat = natural_class(p, m).sigma
    for group in _candidate_subgroups(p, m):
        reps = order_p_class_reps(group, p, seed=seed)
        fixed = tuple(range(group.degree, m))
        for i, first in enumerate(reps):
            at_m = first.extend(m)
            g = next(_aligning_conjugators(at_m, nat), None)
            if g is None or conjugate(g, at_m) != nat:
                raise AssertionError("alignment failed to produce the standard cycle")
            carry = _conjugator(g.images)
            for j, second in enumerate(reps):
                if i == j or not alternating_conjugate(first, second):
                    continue
                for z in _conjugates(group, second.images):
                    yield Permutation._of(carry(z + fixed))


def _candidate_subgroups(p, m):
    """Groups searched by the subgroup strategy: each linear group on its
    p projective points, and at m = p + 1 a power of two the affine
    Frobenius group on its m points."""
    for r, k in cyclotomic_decompositions(p):
        yield psl_permutation_group(k, r)
    if m == p + 1:
        two_power = prime_power_decompose(m)
        if two_power is not None and two_power[0] == 2:
            yield affine_frobenius_group(two_power[1])


def _reverify(witness, p, m):
    """Re-check a witness for (p, m): sigma is the standard p-cycle, tau
    lies in its class, and `TypeDWitness.verify` holds. That last check
    re-runs the same pair test that found the witness, so it guards the
    record, not the test."""
    nat = natural_class(p, m).sigma
    if witness.sigma != nat:
        raise AssertionError("witness first coordinate is not the standard cycle")
    if not alternating_conjugate(nat, witness.tau, m):
        raise AssertionError("witness second coordinate left the class")
    if not witness.verify():
        raise AssertionError("stored witness failed re-verification")
    return witness


def symmetric_group_witness(p):
    """The explicit pair for the symmetric-group class of p-cycles:
    sigma the standard cycle, tau its conjugate by the transposition of 1
    and 3. The two lie in different alternating halves, so no even
    subgroup can conjugate one to the other; verification is loud."""
    sigma = natural_class(p, p).sigma
    swap = Permutation.cycle([1, 3], p)
    tau = conjugate(swap, sigma)
    if alternating_conjugate(sigma, tau, p):
        raise AssertionError("conjugate by a transposition stayed in the same half")
    result = type_d_pair(sigma, tau)
    if result.verdict != "Witness":
        raise AssertionError("the standard symmetric-class pair gave %s" % result.verdict)
    return result.witness


@dataclass(frozen=True)
class CensusRow:
    closure_size: int
    case_tag: str
    subgroup_order: int
    abelian: bool
    count: int

    def to_json_dict(self):
        return _json(self)


@dataclass(frozen=True)
class CensusReport:
    p: int
    m: int
    exhaustive: bool
    pairs: int
    rows: tuple

    def to_json_dict(self):
        return _json(self)


def _closure_size(sigma, tau, subgroup):
    """|sigma^H union tau^H| for H generated by the pair: the closure of
    {sigma, tau} consists of exactly these conjugates, since every element
    of the closure is a word conjugate and every word conjugate arises.

    Classes of H are equal or disjoint, and |x^H| = |H| / |C_H(x)| by
    orbit-stabiliser. C_H(x) is the part of x's centraliser in Sym(m), the
    conjugators of x onto itself, that H contains; for a p-cycle that
    centraliser has p (m - p)! elements, at most p as the census runs only
    at m in {p, p + 1}.
    """

    def class_size(x):
        fixers = sum(1 for g in _aligning_conjugators(x, x) if subgroup.contains(g))
        return subgroup.order // fixers

    if conjugacy_orbit_contains(subgroup, sigma, tau).answer == "yes":
        return class_size(sigma)
    return class_size(sigma) + class_size(tau)


def _class_or_sample(p, m, budget, seed):
    """(taus, count, exhaustive): the whole class of the standard p-cycle
    when it fits the budget (default 10000), else that many seeded
    conjugates."""
    if budget is not None and budget < 0:
        raise ValueError("budget must be a non-negative integer")
    spec = natural_class(p, m)
    limit = 10_000 if budget is None else budget
    if spec.class_size <= limit:
        return class_elements(p, m), spec.class_size, True
    return islice(seeded_conjugates(p, m, seed), limit), limit, False


def subrack_census(p, m, budget=None, seed=0):
    """Histogram of (closure size, case tag) over pairs in the class, the
    first element pinned to the standard cycle.

    Exhaustive when the class size fits the budget (default 10000),
    otherwise seeded uniform sampling; the report records which."""
    sigma = natural_class(p, m).sigma
    taus, total, exhaustive = _class_or_sample(p, m, budget, seed)
    counter = {}
    for tau in taus:
        subgroup = pair_subgroup(sigma, tau)
        case = _case_of(p, subgroup)
        size = _closure_size(sigma, tau, subgroup)
        abelian = subgroup.order in (p, p * p)
        key = (size, case.tag, subgroup.order, abelian)
        counter[key] = counter.get(key, 0) + 1
    rows = tuple(
        CensusRow(closure_size=s, case_tag=t, subgroup_order=o, abelian=a, count=c)
        for (s, t, o, a), c in sorted(counter.items())
    )
    return CensusReport(p=p, m=m, exhaustive=exhaustive, pairs=total, rows=rows)


@dataclass(frozen=True)
class SquareCheckReport:
    """Over pairs with (st)^2 = (ts)^2: they commute or st has order 2,
    and the generated subgroup has order at most p^2. Violations record the
    offending tau, which clause broke, and the observed order.

    The order-bound clause is recorded over all square pairs. It is a
    theorem only for commuting pairs and is known to fail on the
    involution branch, so `holds`, the conjunction of both clauses, is
    False at (7,7)."""

    p: int
    m: int
    exhaustive: bool
    pairs_checked: int
    square_pairs: int
    commuting: int
    order_two: int
    violations: tuple

    @property
    def holds(self):
        return not self.violations

    def to_json_dict(self):
        violations = [
            {"tau": str(tau), "clause": clause, "order": order}
            for tau, clause, order in self.violations
        ]
        return {**_json(self), "violations": violations, "holds": self.holds}


def lemma_square_check(p, m, budget=None, seed=0):
    """Verify the square dichotomy over the class, first element pinned."""
    sigma = natural_class(p, m).sigma
    taus, checked, exhaustive = _class_or_sample(p, m, budget, seed)
    square_pairs = commuting = order_two = 0
    violations = []
    for tau in taus:
        st = sigma * tau
        ts = tau * sigma
        if st * st != ts * ts:
            continue
        square_pairs += 1
        if st == ts:
            commuting += 1
        elif st.order() == 2:
            order_two += 1
        else:
            violations.append((tau, "dichotomy", st.order()))
        order = pair_subgroup(sigma, tau).order
        if order > p * p:
            violations.append((tau, "order bound", order))
    return SquareCheckReport(
        p=p,
        m=m,
        exhaustive=exhaustive,
        pairs_checked=checked,
        square_pairs=square_pairs,
        commuting=commuting,
        order_two=order_two,
        violations=tuple(violations),
    )
