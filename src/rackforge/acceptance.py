"""Desk-scale verification suite.

Thirteen named checks covering the classification table, the witness and
absence searches, subgroup identification, the cohomology golden values,
and the structural property suites. Each check is deterministic (fixed
seeds), records its runtime, and fails when its stated time bound is
exceeded. The whole suite runs from the CLI (verify-all) and from pytest.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass
from itertools import combinations, islice
from math import factorial, gcd
from typing import Callable, Optional

from .classify import (
    classify_class,
    fw_identify,
    lemma_square_check,
    subrack_census,
    symmetric_group_witness,
    witness_search,
)
from .constructions import (
    natural_class,
    order_p_class_reps,
    psl_permutation_group,
    seeded_conjugates,
)
from .groups import (
    alternating_conjugate,
    alternating_group,
    pair_subgroup,
)
from .homology import boundary_matrices, second_homology, smith_normal_form
from .numth import cyclotomic_decompositions, cyclotomic_primes_below, jacobi
from .perm import Permutation
from .rack import (
    class_rack,
    conjugation_rack,
    maximal_abelian_subrack_through,
    subrack_closure,
    type_d_pair,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    bound_seconds: Optional[float]
    details: str

    def line(self):
        """One text line: status, number, name, the seconds used (against
        the time bound when there is one) and the details."""
        status = "PASS" if self.passed else "FAIL"
        used = "%.2fs" % self.seconds
        if self.bound_seconds is not None:
            used += " of %gs" % self.bound_seconds
        return "%s %2d %s (%s): %s" % (
            status,
            self.number,
            self.name,
            used,
            self.details,
        )

    def to_json_dict(self):
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "bound_seconds": self.bound_seconds,
            "details": self.details,
        }


def _classification_table():
    expected = {
        (5, 5): "NotTypeD",
        (5, 6): "NotTypeD",
        (7, 7): "NotTypeD",
        (7, 8): "TypeD",
        (11, 11): "NotTypeD",
        (11, 12): "NotTypeD",
        (13, 13): "TypeD",
        (13, 14): "TypeD",
        (17, 17): "TypeD",
        (23, 23): "NotTypeD",
        (23, 24): "NotTypeD",
        (31, 31): "TypeD",
    }
    bad = []
    for (p, m), verdict in sorted(expected.items()):
        got = classify_class(p, m).verdict
        if got != verdict:
            bad.append("(%d,%d) expected %s got %s" % (p, m, verdict, got))
    if bad:
        return False, "; ".join(bad)
    return True, "all 12 verdicts match the classification table"


def _cyclotomic_primes():
    want = [3, 5, 7, 13, 17, 31, 73, 127, 257, 307, 757]
    got = list(cyclotomic_primes_below(1000))
    if got != want:
        return False, "primes below 1000: expected %s, got %s" % (want, got)
    decomp = cyclotomic_decompositions(31)
    if decomp != [(2, 5), (5, 3)]:
        return False, "31 decompositions: expected [(2,5),(5,3)], got %s" % (decomp,)
    return True, "11 primes below 1000; 31 decomposes as (2,5) and (5,3)"


def _check_witness_evidence(outcome, want_order):
    if outcome.status != "witness":
        return "no witness found (status %s)" % outcome.status
    w = outcome.witness
    if w.subgroup_order != want_order:
        return "subgroup order %d, expected %d" % (w.subgroup_order, want_order)
    if not w.verify():
        return "stored witness failed re-verification"
    return None


def _positive_witnesses():
    pieces = []
    t0 = time.monotonic()
    out = witness_search(7, 8, strategy="subgroup")
    dt = time.monotonic() - t0
    problem = _check_witness_evidence(out, 56)
    if problem:
        return False, "(7,8): " + problem
    if dt >= 1.0:
        return False, "(7,8) took %.2fs, bound 1 s" % dt
    pieces.append("(7,8) order-56 subgroup %.2fs" % dt)

    t0 = time.monotonic()
    for m in (13, 14):
        out = witness_search(13, m, strategy="subgroup")
        problem = _check_witness_evidence(out, 5616)
        if problem:
            return False, "(13,%d): %s" % (m, problem)
    dt = time.monotonic() - t0
    if dt >= 60.0:
        return False, "(13,13)+(13,14) took %.1fs, bound 60 s" % dt
    pieces.append("(13,13)/(13,14) order-5616 subgroup %.2fs" % dt)

    t0 = time.monotonic()
    out = witness_search(17, 17, strategy="subgroup")
    dt = time.monotonic() - t0
    problem = _check_witness_evidence(out, 4080)
    if problem:
        return False, "(17,17): " + problem
    if dt >= 300.0:
        return False, "(17,17) took %.1fs, bound 300 s" % dt
    pieces.append("(17,17) order-4080 subgroup %.2fs" % dt)
    return True, "; ".join(pieces)


def _exhaustive_absence():
    t0 = time.monotonic()
    counts = {(5, 5): 12, (5, 6): 72, (7, 7): 360}
    for (p, m), want in sorted(counts.items()):
        out = witness_search(p, m, strategy="exhaustive")
        if out.status != "absence":
            return False, "(%d,%d) status %s, expected absence" % (p, m, out.status)
        if out.pairs_tested != want:
            return False, "(%d,%d) tested %d pairs, expected %d" % (
                p,
                m,
                out.pairs_tested,
                want,
            )
    dt_small = time.monotonic() - t0
    if dt_small >= 30.0:
        return False, "small exhaustions took %.1fs, bound 30 s" % dt_small

    t0 = time.monotonic()
    sigma = natural_class(11, 11).sigma
    allowed = {11, 660, 7920, factorial(11) // 2}
    spectrum = {}
    for tau in islice(seeded_conjugates(11, 11, seed=0), 10_000):
        result = type_d_pair(sigma, tau)
        if result.verdict == "Witness":
            return False, "(11,11) sample produced a witness: tau = %s" % tau
        order = result.subgroup_order or pair_subgroup(sigma, tau).order
        if order not in allowed:
            return False, "(11,11) subgroup order %d outside the spectrum" % order
        spectrum[order] = spectrum.get(order, 0) + 1
    dt_big = time.monotonic() - t0
    if dt_big >= 600.0:
        return False, "(11,11) sampling took %.1fs, bound 600 s" % dt_big
    return True, (
        "absence proven over 12+72+360 pairs (%.1fs); 10000 seeded (11,11) samples, "
        "zero witnesses, orders %s (%.1fs)"
        % (dt_small, sorted(spectrum.items()), dt_big)
    )


def _random_p_cycle(p, degree, rng):
    points = rng.sample(range(1, degree + 1), p)
    return Permutation.cycle(points, degree)


def _pair_identification_coverage():
    listed = {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii", "xiii"}
    histogram = {}
    for p in (5, 7, 11, 13):
        rng = random.Random(100 + p)
        degree = 2 * p
        for _ in range(1000):
            sigma = _random_p_cycle(p, degree, rng)
            tau = _random_p_cycle(p, degree, rng)
            case = fw_identify(sigma, tau)
            if case.tag not in listed:
                return False, "p=%d: tag %r outside the case list" % (p, case.tag)
            histogram[case.tag] = histogram.get(case.tag, 0) + 1
            disjoint = not (set(sigma.support()) & set(tau.support()))
            if disjoint and (case.tag != "ii" or case.order != p * p):
                return False, "p=%d: disjoint pair gave tag %s order %d" % (
                    p,
                    case.tag,
                    case.order,
                )
        shift = list(range(p + 1, 2 * p + 1))
        for _ in range(25):
            sigma = Permutation.cycle(rng.sample(range(1, p + 1), p), degree)
            tau = Permutation.cycle(rng.sample(shift, p), degree)
            case = fw_identify(sigma, tau)
            if case.tag != "ii" or case.order != p * p:
                return False, "p=%d: built disjoint pair gave tag %s order %d" % (
                    p,
                    case.tag,
                    case.order,
                )
        histogram["ii"] = histogram.get("ii", 0) + 25
    return True, "4100 pairs identified, tags %s" % sorted(histogram.items())


def _jacobi_split_law():
    for p in (5, 7, 11, 13, 17, 23):
        sigma = Permutation.cycle(list(range(1, p + 1)), p)
        for ell in range(1, p):
            same_class = alternating_conjugate(sigma, sigma**ell, p)
            if same_class != (jacobi(ell, p) == 1):
                return False, "p=%d, ell=%d: split law disagrees" % (p, ell)
    return True, "conjugacy of sigma^ell matches the jacobi symbol for 6 primes"


def _order_p_class_counts():
    table = ((3, 2, 7, 2), (3, 3, 13, 4), (2, 4, 5, 2))
    for k, r, p, want in table:
        group = psl_permutation_group(k, r)
        reps = order_p_class_reps(group, p)
        if len(reps) != want:
            return False, "L_%d(%d): %d classes, expected %d" % (k, r, len(reps), want)
        same_half = sum(1 for x in reps if alternating_conjugate(reps[0], x, p))
        if same_half != want // 2:
            return False, "L_%d(%d): %d of %d classes in the first half" % (
                k,
                r,
                same_half,
                want,
            )
    return True, "class counts 2/4/2 for L_3(2), L_3(3), L_2(4), evenly split"


def _twentyfour_element_subrack():
    rack = class_rack(7, 7)
    sigma = rack.elements[0]
    for idx, tau in enumerate(rack.elements):
        if pair_subgroup(sigma, tau).order == 168:
            members = sorted(subrack_closure(rack, {0, idx}))
            return conjugation_rack([rack.elements[i] for i in members])
    raise AssertionError("no order-168 pair found in the 7-cycle class")


def _cohomology_golden_values():
    t0 = time.monotonic()
    small = second_homology(class_rack(5, 5))
    dt_small = time.monotonic() - t0
    if small.free_rank != 1 or small.torsion != (10,):
        return False, "12-element class rack gave %s" % small.pretty
    if dt_small >= 60.0:
        return False, "12-element case took %.1fs, bound 60 s" % dt_small

    t0 = time.monotonic()
    sub = _twentyfour_element_subrack()
    if sub.size != 24:
        return False, "subrack closure has %d elements, expected 24" % sub.size
    big = second_homology(sub)
    dt_big = time.monotonic() - t0
    if big.free_rank != 1 or big.torsion != (14,):
        return False, "24-element subrack gave %s" % big.pretty
    if dt_big >= 3600.0:
        return False, "24-element case took %.1fs, bound 3600 s" % dt_big
    return True, "%s (%.1fs) and %s (%.1fs)" % (
        small.pretty,
        dt_small,
        big.pretty,
        dt_big,
    )


def _square_commuting_dichotomy():
    """Every square pair, (st)^2 = (ts)^2, commutes or has st of order 2,
    and every commuting square pair generates a subgroup of order at most
    p^2 (two commuting elements of order p generate an abelian group of
    order p or p^2). No bound holds on the involution branch, where a
    p-cycle and an involution may generate the whole group, so order-bound
    violations there are reported by their order spectrum, not failed."""
    summaries = []
    failures = []
    for (p, m) in ((5, 5), (7, 7)):
        report = lemma_square_check(p, m)
        if not report.exhaustive:
            return False, "(%d,%d) run was not exhaustive" % (p, m)
        summary = (
            "(%d,%d): %d square pairs, %d commuting, %d with |st|=2"
            % (p, m, report.square_pairs, report.commuting, report.order_two)
        )
        if report.commuting + report.order_two != report.square_pairs:
            failures.append(
                "(%d,%d): %d commuting + %d with |st|=2 do not add up to %d square pairs"
                % (p, m, report.commuting, report.order_two, report.square_pairs)
            )
        sigma = natural_class(p, m).sigma
        spectrum = {}
        example = None
        for tau, clause, value in report.violations:
            st = sigma * tau
            commutes = st == tau * sigma
            if clause == "dichotomy" or not (commutes or st.order() == 2):
                failures.append(
                    "(%d,%d): dichotomy broken by tau=%s with |st|=%d"
                    % (p, m, tau, st.order())
                )
            elif commutes:
                failures.append(
                    "(%d,%d): commuting pair tau=%s generates order %d > p^2 = %d"
                    % (p, m, tau, value, p * p)
                )
            else:
                spectrum[value] = spectrum.get(value, 0) + 1
                example = example or (tau, value)
        if spectrum:
            summary += (
                ", %d involution-branch pairs above p^2 = %d with orders %s, "
                "e.g. tau=%s of order %d"
                % ((sum(spectrum.values()), p * p, sorted(spectrum.items())) + example)
            )
        summaries.append(summary)
    if failures:
        return False, "; ".join(summaries + failures)
    return True, "; ".join(summaries)


def _symmetric_class_witness():
    for p in (5, 7, 11, 13):
        witness = symmetric_group_witness(p)
        if not witness.verify():
            return False, "p=%d: witness failed re-verification" % p
    return True, "odd-conjugate pair verified for p in {5, 7, 11, 13}"


def _maximal_abelian_subracks():
    for (p, m), want in (((5, 5), 2), ((7, 7), 3)):
        rack = class_rack(p, m)
        found = maximal_abelian_subrack_through(rack, 0)
        if len(found) != want:
            return False, "(%d,%d): maximal abelian size %d, expected %d" % (
                p,
                m,
                len(found),
                want,
            )
    return True, "maximal abelian subracks: size 2 in the 12-element rack, 3 in the 360-element rack"


def _seven_cycle_subrack_census():
    report = subrack_census(7, 7)
    if not report.exhaustive:
        return False, "census was not exhaustive"
    class_size = natural_class(7, 7).class_size
    proper = [
        row
        for row in report.rows
        if not row.abelian and row.closure_size != class_size
    ]
    bad = [row for row in proper if row.closure_size != 24]
    if bad:
        return False, "non-abelian proper closures %s" % [r.closure_size for r in bad]
    pairs_24 = sum(row.count for row in proper)
    return True, "every non-abelian proper closure has 24 elements (%d pairs)" % pairs_24


def _minor_gcd_factors(rows):
    """Invariant factors by the gcd-of-k-minors formula, for small dense
    matrices. d_k = gcd of all k x k minors; factor_k = d_k / d_{k-1}."""

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        sign = 1
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += sign * sub[0][j] * det(minor)
            sign = -sign
        return total

    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    factors = []
    previous = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for ri in combinations(range(n_rows), k):
            for ci in combinations(range(n_cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def _property_suites():
    rng = random.Random(2026)
    pieces = []

    racks = [class_rack(5, 5), class_rack(5, 6), class_rack(7, 7)]
    triples = 0
    for rack in racks:
        table = rack.table
        n = rack.size
        full = frozenset(range(n))
        for _ in range(1200):
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if table[x][table[y][z]] != table[table[x][y]][table[x][z]]:
                return False, "self-distributivity broken at (%d,%d,%d)" % (x, y, z)
            triples += 1
        for _ in range(200):
            if frozenset(table[rng.randrange(n)]) != full:
                return False, "non-bijective translation row"
    pieces.append("%d rack axiom triples over 3 class racks" % triples)

    composite_entries = 0
    for rack in (class_rack(5, 5), _twentyfour_element_subrack()):
        d2, d3 = boundary_matrices(rack)
        if not d2.multiply(d3).is_zero():
            return False, "composite boundary map is nonzero on a %d-element rack" % rack.size
        composite_entries += d2.rows * d3.cols
    pieces.append("boundary composite vanishes (%d entries)" % composite_entries)

    groups = {}
    for m in range(3, 15):
        groups[m] = alternating_group(m)
        if groups[m].order != factorial(m) // 2:
            return False, "alternating order wrong at degree %d" % m
    membership_trials = 0
    for _ in range(1000):
        m = rng.randrange(4, 11)
        group = groups[m]
        element = group.sample(rng)
        if not group.contains(element):
            return False, "sampled element rejected at degree %d" % m
        odd = element * Permutation.cycle([1, 2], m)
        if group.contains(odd):
            return False, "odd permutation accepted at degree %d" % m
        membership_trials += 1
    pieces.append(
        "alternating orders for degrees 3..14; %d membership trials" % membership_trials
    )

    snf_cases = 0
    for _ in range(1000):
        n_rows = rng.randrange(1, 5)
        n_cols = rng.randrange(1, 5)
        rows = [
            [rng.randrange(-6, 7) for _ in range(n_cols)] for _ in range(n_rows)
        ]
        factors, _ = smith_normal_form(rows)
        if factors != _minor_gcd_factors(rows):
            return False, "smith form disagrees with minor gcd oracle on %s" % rows
        snf_cases += 1
    pieces.append("%d smith form cases against the minor gcd oracle" % snf_cases)

    return True, "; ".join(pieces)


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    bound_seconds: Optional[float]
    func: Callable


CRITERIA = (
    Criterion(1, "classification-table", 1.0, _classification_table),
    Criterion(2, "cyclotomic-primes", 1.0, _cyclotomic_primes),
    Criterion(3, "positive-witnesses", 361.0, _positive_witnesses),
    Criterion(4, "exhaustive-absence", 630.0, _exhaustive_absence),
    Criterion(5, "pair-identification-coverage", 300.0, _pair_identification_coverage),
    Criterion(6, "jacobi-split-law", 10.0, _jacobi_split_law),
    Criterion(7, "order-p-class-counts", 120.0, _order_p_class_counts),
    Criterion(8, "cohomology-golden-values", 3660.0, _cohomology_golden_values),
    Criterion(9, "square-commuting-dichotomy", 30.0, _square_commuting_dichotomy),
    Criterion(10, "symmetric-class-witness", 60.0, _symmetric_class_witness),
    Criterion(11, "maximal-abelian-subracks", 30.0, _maximal_abelian_subracks),
    Criterion(12, "seven-cycle-subrack-census", 300.0, _seven_cycle_subrack_census),
    Criterion(13, "property-suites", None, _property_suites),
)


def _criterion(number):
    """The criterion with this number; ValueError when there is none."""
    for criterion in CRITERIA:
        if criterion.number == number:
            return criterion
    raise ValueError("no criterion numbered %d" % number)


def run_criterion(number):
    """Run one numbered criterion; exceptions become failures, and a run
    past the stated time bound fails even when its checks succeed."""
    criterion = _criterion(number)
    start = time.monotonic()
    try:
        ok, details = criterion.func()
    except Exception:
        ok = False
        details = "raised: " + traceback.format_exc(limit=3).strip().replace("\n", " | ")
    seconds = time.monotonic() - start
    if ok and criterion.bound_seconds is not None and seconds > criterion.bound_seconds:
        ok = False
        details += " [exceeded %.0fs bound: %.1fs]" % (criterion.bound_seconds, seconds)
    return CriterionResult(
        number=criterion.number,
        name=criterion.name,
        passed=ok,
        seconds=seconds,
        bound_seconds=criterion.bound_seconds,
        details=details,
    )
