"""Each output check must reject a fabricated wrong result.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rackforge import classify, rack  # noqa: E402
from rackforge.perm import Permutation, parse_cycles  # noqa: E402

SEVEN = tuple(Permutation.cycle(range(1, 8), 7).images)
SEVEN_ON_8 = tuple(Permutation.cycle(range(1, 8), 8).images)


def cyc(text, degree):
    return tuple(parse_cycles(text, degree).images)


def test_ax1_verdict_must_match_the_squares():
    tau = cyc("(1 2 3 4 5 6 7)", 7)  # commutes with sigma, so the squares agree
    assert checks.check_pair(7, SEVEN, tau, "Ax1Fail", None) == []
    assert checks.check_pair(7, SEVEN, tau, "Ax2Fail", 7)
    other = cyc("(1 3 2 4 5 6 7)", 7)
    assert not checks.squares_agree(SEVEN, other)
    assert checks.check_pair(7, SEVEN, other, "Ax1Fail", None)


def test_wrong_subgroup_order_is_rejected():
    tau = cyc("(1 3 2 4 5 6 7)", 7)
    verdict = rack.type_d_pair(Permutation(SEVEN), Permutation(tau))
    good = checks.check_pair(7, SEVEN, tau, verdict.verdict, verdict.subgroup_order)
    assert good == []
    assert checks.check_pair(7, SEVEN, tau, verdict.verdict, 7 * 11)  # does not divide 7!/2
    assert checks.check_pair(7, SEVEN, tau, verdict.verdict, 20)  # not a multiple of 7
    assert checks.check_pair(7, SEVEN, tau, verdict.verdict, verdict.subgroup_order, group_order=168 * 5)
    assert checks.check_order_by_closure([SEVEN, tau], verdict.subgroup_order) == []
    assert checks.check_order_by_closure([SEVEN, tau], 168)


def test_false_witness_is_rejected():
    # sigma^2 is a real non-conjugate: <sigma> is cyclic, so sigma's orbit is {sigma}
    square = cyc("(1 3 5 7 2 4 6)", 7)
    assert checks.orbit_contains([SEVEN, square], SEVEN, square) is False
    # a conjugate of sigma by (1 2 3), which lies in <sigma, tau>
    g = cyc("(1 2 3)", 7)
    tau = tuple(g[SEVEN[checks.inverse(g)[i]]] for i in range(7))
    assert checks.orbit_contains([SEVEN, tau], SEVEN, tau) is True
    order = checks.closure_order([SEVEN, tau])
    assert checks.check_pair(7, SEVEN, tau, "Ax2Fail", order, decide_ax2=True) == []
    problems = checks.check_pair(7, SEVEN, tau, "Witness", order)
    assert any("conjugate" in p for p in problems)
    # a witness in a class that is not of type D is rejected outright; tau
    # lies in the other A_7 class, so the pair itself is a real witness
    other_class = cyc("(1 3 2 4 5 6 7)", 7)
    assert checks.check_pair(7, SEVEN, other_class, "Witness", 2520) == []
    assert checks.check_pair(7, SEVEN, other_class, "Witness", 2520, witness_expected=False)


def test_identification_checks():
    s, t = cyc("(1 2 3 4 5 6 7)", 8), cyc("(2 3 4 5 6 7 8)", 8)
    assert checks.check_identification(7, s, t, "xiii", 8, 20160) == []
    assert checks.check_identification(7, s, t, "xiii", 7, 20160)
    assert checks.check_identification(7, s, t, "xiv", 8, 20160)
    assert checks.check_identification(7, s, t, "xiii", 8, 20160 * 2)
    # the tag must be (xiii) exactly when the order is m!/2
    assert checks.check_identification(7, s, t, "x", 8, 20160)
    assert checks.check_identification(7, s, t, "Ambiguous", 8, 20160)
    assert checks.check_identification(7, s, t, "xiii", 8, 1344)
    assert checks.check_identification(7, s, t, "xi", 8, 1344) == []


def no_row_message(s, t):
    try:
        classify.fw_identify(Permutation(s), Permutation(t))
    except ValueError as exc:
        return str(exc)
    return None


def test_no_row_failure_must_be_the_documented_gap():
    s, t = cyc("(1 2 3 4 5 6 7)", 8), cyc("(1 3 2 4 5 6 8)", 8)  # generates AGL(3,2)
    message = no_row_message(s, t) or "no case matches p=7, m=8, order=1344"
    assert checks.check_no_row_failure(7, s, t, message) == []
    assert checks.check_no_row_failure(7, s, t, "no case matches p=7, m=8, order=168")
    assert checks.check_no_row_failure(7, s, t, "something else broke")
    # a pair generating A_8: the closure confirms 20160, but that order has a
    # row, so a failure naming it is a fault, not the gap
    a8 = cyc("(2 3 4 5 6 7 8)", 8)
    assert checks.closure_order([s, a8]) == 20160
    assert checks.check_no_row_failure(7, s, a8, "no case matches p=7, m=8, order=20160")
    # the gap's order named for a pair whose closure is larger
    assert checks.check_no_row_failure(7, s, a8, "no case matches p=7, m=8, order=1344")


def test_walk_failures_must_be_every_gap_pair_or_none():
    sigma = Permutation(SEVEN_ON_8)
    agl = Permutation(cyc("(1 3 2 4 5 6 8)", 8))
    op = workloads.Op(classify, "fw_identify", (sigma, agl), ("walk", 7))
    failure = workloads.summarize(op, ValueError("no case matches p=7, m=8, order=1344"))
    assert workloads.alt_identify_check([op], [("xi", 8, 1344)], 0) == []
    assert workloads.alt_identify_check([op] * 252, [failure] * 252, 0) == []
    problems = workloads.alt_identify_check([op], [failure], 0)
    assert problems and all("walk failures" in p for p in problems)


def test_homology_reference_rejects_wrong_rank_or_torsion_prime():
    table = rack.class_rack(5, 5).table
    ref = checks.H2Reference(table)
    assert ref.orbits == 1
    assert ref.check(1, (10,)) == []
    assert ref.check(4, (10,))  # free rank must be orbits^2
    assert ref.check(1, (30,))  # 3 does not divide an invariant factor
    assert ref.check(1, (2,))  # the 5-torsion is missing
    assert ref.check(1, ())


def test_rank_mod_is_exact_on_a_known_matrix():
    # one column (row0 - row1), one (2 row1): rank 2 over Q, 1 over F_2
    slots = ([[0, 1], [1, 0], [0, 0], [0, 0]], [[1, 2], [-1, 0], [0, 0], [0, 0]])
    assert checks.rank_mod(slots, 2, 65521) == 2
    assert checks.rank_mod(slots, 2, 2) == 1


def test_tracer_counts_repeat_and_self_time_excludes_children():
    sigma = Permutation(SEVEN)
    taus = [cyc(text, 7) for text in ("(1 3 2 4 5 6 7)", "(1 2 3 4 5 7 6)", "(1 2 3 4 5 6 7)")]
    agree = sum(checks.squares_agree(SEVEN, tau) for tau in taus)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for phase in range(2):
            tracer.begin_phase("round", phase)
            for tau in taus:
                rack.type_d_pair(sigma, Permutation(tau))
    finally:
        tracer.restore()
    assert not hasattr(rack.type_d_pair, "__wrapped__")
    figures = tracer.layer_metrics()
    assert figures["rack.type_d_pair.calls"] == 3
    assert 1 <= agree < 3
    assert figures["rack.type_d_pair.ax1fail"] == agree
    assert figures["groups.build_bsgs.calls"] == 3 - agree
    assert 0 < figures["rack.type_d_pair.self_s"] < figures["rack.type_d_pair.s"]
    assert tracer.spans_per_round() == len(tracer.spans) / 2 > 3
    assert 0 < tracing.wrapper_cost_s(calls=2000, batches=3) < 1e-3


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: run.layer_unit(name) for name, _, _ in tracing.LAYER_METRICS}
    for name in ("compose", "conjugate"):
        for degree in (11, 26):
            expected["perm.%s_ns.d%d" % (name, degree)] = "ns"
    expected["trace.overhead_s"] = "s"
    assert layer == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert run.percentile(values, 50) == 100
    assert run.percentile(values, 99) == 198
