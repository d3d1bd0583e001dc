"""The verification suite, one test per numbered criterion.

Each test runs its criterion at the stated time bound and prints the
PASS/FAIL line. Criterion 9 checks, exhaustively at (5,5) and (7,7), that
every square pair commutes or has a product of order 2, and that every
commuting square pair generates a subgroup of order at most p^2. The order
bound is no theorem on the involution branch: at (7,7), 28 such pairs
generate subgroups of order 168 or 2520, and the PASS line reports that
order spectrum with an explicit counterexample.
"""

import sys

import pytest

from rackforge.acceptance import CRITERIA, CriterionResult, run_criterion


@pytest.mark.parametrize(
    "number",
    [c.number for c in CRITERIA],
    ids=["%02d-%s" % (c.number, c.name) for c in CRITERIA],
)
def test_criterion(number):
    result = run_criterion(number)
    print(result.line(), file=sys.stderr)
    assert result.passed, result.line()


def test_criteria_are_numbered_consecutively():
    assert [c.number for c in CRITERIA] == list(range(1, 14))
    assert len({c.name for c in CRITERIA}) == len(CRITERIA)


def test_the_line_shows_the_seconds_used_against_the_bound():
    bounded = CriterionResult(5, "pair-identification-coverage", True, 2.314, 300.0, "ok")
    assert bounded.line() == "PASS  5 pair-identification-coverage (2.31s of 300s): ok"
    assert CriterionResult(13, "property-suites", False, 1.5, None, "x").line() == (
        "FAIL 13 property-suites (1.50s): x"
    )
