import json

import pytest

from rackforge.cli import main
from rackforge.rack import FiniteRack, class_rack


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def strip_clock(report):
    report = dict(report)
    report.pop("wall_clock_seconds")
    return report


def test_classify_json_report():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["classify", "--p", "13", "--m", "13", "--json"])
    assert code == 0
    report = json.loads(buf.getvalue())
    assert report["schema"] == 1
    assert report["command"] == "classify"
    assert report["config"] == {"p": 13, "m": 13}
    assert report["result"] == {
        "p": 13,
        "m": 13,
        "verdict": "TypeD",
        "reason": {"cyclotomic": [[3, 3]]},
    }
    assert isinstance(report["wall_clock_seconds"], float)


def test_classify_human_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "13", "--m", "13")
    assert code == 0
    assert "TypeD" in out
    code, out, _ = run_cli(capsys, "classify", "--p", "7", "--m", "7")
    assert code == 0
    assert "NotTypeD" in out


def test_classify_domain_error_exit(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "4", "--m", "4")
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--p", "13"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 64


def test_witness_exit_codes(capsys):
    code, report, _ = run_json(capsys, "witness", "--p", "7", "--m", "8", "--json")
    assert code == 0
    assert report["result"]["status"] == "witness"
    code, report, _ = run_json(
        capsys, "witness", "--p", "5", "--m", "5", "--strategy", "random", "--budget", "50", "--json"
    )
    assert code == 2
    assert report["result"]["status"] == "exhausted"
    code, report, _ = run_json(
        capsys, "witness", "--p", "5", "--m", "5", "--strategy", "exhaustive", "--json"
    )
    assert code == 0
    assert report["result"]["status"] == "absence"
    assert report["result"]["pairs_tested"] == 12


def test_negative_budget_is_a_domain_error(capsys):
    runs = [("witness", "--strategy", strategy) for strategy in ("exhaustive", "random", "subgroup")]
    runs.append(("census",))
    for head in runs:
        code, out, err = run_cli(capsys, *head, "--p", "7", "--m", "8", "--budget", "-1")
        assert code == 1, head
        assert out == ""
        assert "error: budget must be a non-negative integer" in err.splitlines()


def test_witness_reports_are_byte_identical_minus_clock(capsys):
    args = ("witness", "--p", "7", "--m", "8", "--strategy", "exhaustive", "--json")
    _, first, _ = run_json(capsys, *args)
    _, second, _ = run_json(capsys, *args)
    assert strip_clock(first) == strip_clock(second)


def test_witness_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "witness.json"
    args = ("witness", "--p", "7", "--m", "8", "--cache", str(cache), "--json")
    code, first, _ = run_json(capsys, *args)
    assert code == 0
    stored = json.loads(cache.read_text())
    assert stored["schema"] == 1
    assert len(stored["entries"]) == 1
    (key,) = stored["entries"]
    assert key == "p=7,m=8,strategy=subgroup,seed=0"
    code, second, _ = run_json(capsys, *args)
    assert code == 0
    assert strip_clock(second)["result"] == strip_clock(first)["result"]


def test_witness_cache_keeps_one_entry_per_budget(tmp_path, capsys):
    cache = tmp_path / "witness.json"
    args = ("witness", "--p", "7", "--m", "8", "--cache", str(cache), "--json")
    errs = [run_json(capsys, *args, *extra)[2] for extra in (("--budget", "50"), (), ("--budget", "50"))]
    assert "searching again" not in "".join(errs)
    assert "cache hit for p=7,m=8,strategy=subgroup,seed=0,budget=50" in errs[2]
    assert sorted(json.loads(cache.read_text())["entries"]) == [
        "p=7,m=8,strategy=subgroup,seed=0",
        "p=7,m=8,strategy=subgroup,seed=0,budget=50",
    ]


def test_witness_cache_does_not_read_an_unbudgeted_entry_for_a_budgeted_request(tmp_path, capsys):
    cache = tmp_path / "witness.json"
    args = ("witness", "--p", "7", "--m", "8", "--cache", str(cache), "--json")
    errs = [run_json(capsys, *args, *extra)[2] for extra in ((), ("--budget", "50"))]
    assert "searching again" not in "".join(errs)
    assert "cache hit" not in "".join(errs)


SEARCH_13 = ("witness", "--p", "13", "--m", "13", "--strategy", "random", "--budget", "5", "--json")
KEY_13 = "p=13,m=13,strategy=random,seed=0,budget=5"


def write_cache(path, key, entry):
    path.write_text(json.dumps({"schema": 1, "entries": {key: entry}}))


def test_witness_cache_never_serves_an_absence(tmp_path, capsys):
    cache = tmp_path / "witness.json"
    write_cache(cache, KEY_13, {"status": "absence", "witness": None})
    code, cached, err = run_json(capsys, *SEARCH_13, "--cache", str(cache))
    assert "searching again" in err
    _, fresh, _ = run_json(capsys, *SEARCH_13)
    assert cached["result"] == fresh["result"]
    assert cached["result"]["status"] != "absence"
    assert code == (0 if fresh["result"]["status"] == "witness" else 2)


def test_witness_cache_rejects_a_witness_of_another_class(tmp_path, capsys):
    cache = tmp_path / "witness.json"
    _, found, _ = run_json(capsys, "witness", "--p", "7", "--m", "8", "--json")
    assert found["result"]["status"] == "witness"
    write_cache(cache, KEY_13, found["result"])
    _, cached, err = run_json(capsys, *SEARCH_13, "--cache", str(cache))
    assert "searching again" in err
    _, fresh, _ = run_json(capsys, *SEARCH_13)
    assert cached["result"] == fresh["result"]


def test_witness_cache_recovers_from_a_truncated_file(tmp_path, capsys):
    cache = tmp_path / "witness.json"
    args = ("witness", "--p", "7", "--m", "8", "--cache", str(cache), "--json")
    _, first, _ = run_json(capsys, *args)
    cache.write_text(cache.read_text()[:40])
    code, second, err = run_json(capsys, *args)
    assert code == 0
    assert "corrupt" in err
    assert second["result"] == first["result"]
    assert list(json.loads(cache.read_text())["entries"]) == ["p=7,m=8,strategy=subgroup,seed=0"]
    assert list(tmp_path.iterdir()) == [cache]


def test_witness_cache_that_cannot_be_written_still_reports_the_search(tmp_path, capsys):
    cache = tmp_path / "nodir" / "w.json"
    code, out, err = run_cli(capsys, "witness", "--p", "7", "--m", "8", "--cache", str(cache))
    assert code == 1
    assert "search p=7 m=8 strategy=subgroup seed=0: witness" in out
    assert "conjugacy search: no" in out
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_witness_cache_on_a_directory_reports_the_search_and_leaves_no_temporary(tmp_path, capsys):
    directory = tmp_path / "store"
    directory.mkdir()
    _, fresh, _ = run_json(capsys, *SEARCH_7)
    code, out, err = run_cli(capsys, *SEARCH_7, "--cache", str(directory))
    assert code == 1
    assert strip_clock(json.loads(out)) == strip_clock(fresh)
    assert err.splitlines()[-1].startswith("error: ")
    assert list(tmp_path.iterdir()) == [directory]
    assert list(directory.iterdir()) == []


SEARCH_7 =("witness", "--p", "7", "--m", "8", "--json")
KEY_7 = "p=7,m=8,strategy=subgroup,seed=0"


def _tampered(entry, path, value):
    entry = json.loads(json.dumps(entry))
    *outer, last = path
    target = entry
    for name in outer:
        target = target[name]
    target[last] = value
    return entry


@pytest.mark.parametrize(
    "changes",
    [
        # the recorded repro: a negative count and a conjugate pair served
        [(("pairs_tested",), -5), (("witness", "orbit_answer"), "yes")],
        [(("p",), 13)],
        [(("m",), 7)],
        [(("strategy",), "random")],
        [(("seed",), 1)],
        [(("seed",), False)],
        [(("budget",), 5)],
        [(("pairs_tested",), True)],
        [(("pairs_tested",), 3.0)],
        [(("indeterminate",), -1)],
        [(("indeterminate",), "0")],
        [(("pairs_tested",), 1), (("indeterminate",), 1)],
        [(("witness", "orbit_answer"), "capped")],
        # fields that re-verify but are not what a fresh search reports
        [(("witness", "subgroup_order"), 56.0)],
        [(("extra",), "planted")],
        [(("witness", "note"), "planted")],
    ],
)
def test_witness_cache_rejects_an_entry_that_does_not_fit_the_request(tmp_path, capsys, changes):
    cache = tmp_path / "witness.json"
    _, fresh, _ = run_json(capsys, *SEARCH_7)
    assert fresh["result"]["status"] == "witness"
    entry = fresh["result"]
    for path, value in changes:
        entry = _tampered(entry, path, value)
    write_cache(cache, KEY_7, entry)
    code, cached, err = run_json(capsys, *SEARCH_7, "--cache", str(cache))
    assert code == 0
    if any(path[0] in ("p", "m", "strategy", "seed", "budget") for path, _ in changes):
        assert "was stored for another request, searching again" in err
        assert "failed re-verification" not in err
    else:
        assert "failed re-verification, searching again" in err
    assert "cache hit" not in err
    assert cached["result"] == fresh["result"]
    code, out, err = run_cli(capsys, "witness", "--p", "7", "--m", "8", "--cache", str(cache))
    assert "cache hit" in err
    assert "pairs tested %d, indeterminate 0" % fresh["result"]["pairs_tested"] in out
    assert "conjugacy search: no" in out


def test_census_json(capsys):
    code, report, _ = run_json(capsys, "census", "--p", "5", "--m", "5", "--json")
    assert code == 0
    result = report["result"]
    assert result["exhaustive"] is True
    assert result["pairs"] == 12
    sizes = {row["closure_size"]: row["count"] for row in result["rows"]}
    assert sizes == {1: 1, 2: 1, 12: 10}


def test_census_identifies_every_pair_at_eight_points(capsys):
    # the 252 pairs generating 2^3:L_3(2) have row (xi)
    code, report, _ = run_json(capsys, "census", "--p", "7", "--m", "8", "--json")
    assert code == 0
    result = report["result"]
    assert result["exhaustive"] is True
    assert sum(row["count"] for row in result["rows"]) == result["pairs"] == 2880
    affine = [row for row in result["rows"] if row["case_tag"] == "xi"]
    assert [(row["subgroup_order"], row["count"]) for row in affine] == [(1344, 252)]
    rows = [
        (row["closure_size"], row["case_tag"], row["subgroup_order"], row["abelian"], row["count"])
        for row in result["rows"]
    ]
    assert rows == [
        (1, "i", 7, True, 1),
        (2, "i", 7, True, 2),
        (8, "x", 56, False, 14),
        (16, "x", 56, False, 28),
        (24, "iii", 168, False, 42),
        (24, "v", 168, False, 21),
        (192, "xi", 1344, False, 252),
        (360, "xiii", 2520, False, 315),
        (2880, "xiii", 20160, False, 2205),
    ]


def test_census_human_table(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "5", "--m", "5")
    assert code == 0
    assert "closure" in out
    assert "xiii" in out


def test_fw_identify_command(capsys):
    code, report, _ = run_json(
        capsys,
        "fw-identify",
        "--sigma",
        "(1 2 3 4 5)",
        "--tau",
        "(1 3 5 2 4)",
        "--json",
    )
    assert code == 0
    assert report["result"]["tag"] == "i"
    assert report["result"]["order"] == 5
    code, report, _ = run_json(
        capsys,
        "fw-identify",
        "--sigma",
        "(1 2 3 4 5)",
        "--tau",
        "(6 7 8 9 10)",
        "--degree",
        "10",
        "--json",
    )
    assert code == 0
    assert report["result"]["tag"] == "ii"


def test_fw_identify_rejects_non_cycle(capsys):
    code, _, err = run_cli(capsys, "fw-identify", "--sigma", "(1 2 3 4)", "--tau", "(1 2 3 4)")
    assert code == 1
    assert "error:" in err


def test_primes_command(capsys):
    code, report, _ = run_json(capsys, "primes", "--below", "400", "--json")
    assert code == 0
    assert report["result"]["primes"] == [3, 5, 7, 13, 17, 31, 73, 127, 257, 307]
    by_p = {p: forms for p, forms in report["result"]["decompositions"]}
    assert by_p[31] == [[2, 5], [5, 3]]


def test_construct_class_rack_and_cohomology(tmp_path, capsys):
    out_path = tmp_path / "rack.json"
    code, _, _ = run_cli(
        capsys, "construct", "class-rack", "--p", "5", "--m", "5", "--out", str(out_path)
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    rack = FiniteRack.from_json_dict(data)
    assert rack.table == class_rack(5, 5).table
    code, report, _ = run_json(capsys, "cohomology", "--rack", str(out_path), "--json")
    assert code == 0
    assert report["result"]["free_rank"] == 1
    assert report["result"]["torsion"] == [10]
    assert report["result"]["pretty"] == "k^× × G_10"


def test_cohomology_rejects_malformed_rack_files(tmp_path, capsys):
    # each file differs from the valid 2-element trivial rack in one field
    bad = [
        {"size": 2, "table": [[1.0, 2], [1, 2]]},
        {"size": 2, "table": [[True, 2], [1, 2]]},
        {"size": 2, "table": [["1", 2], [1, 2]]},
        {"size": 2.0, "table": [[1, 2], [1, 2]]},
        {"size": 2, "table": [[1, 2], 3]},
        {"size": 2, "table": [[1, 2], [1, 2]], "labels": 7},
        {"table": [[1, 2], [1, 2]]},
        {"size": 2},
        [[1, 2], [1, 2]],
    ]
    path = tmp_path / "rack.json"
    path.write_text(json.dumps({"size": 2, "table": [[1, 2], [1, 2]]}))
    assert run_cli(capsys, "cohomology", "--rack", str(path))[0] == 0
    for data in bad:
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "cohomology", "--rack", str(path))
        assert code == 1, data
        assert err.startswith("error: ") and "Traceback" not in err, data
        assert out == ""


def test_cohomology_reports_an_unreadable_rack_file(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run_cli(capsys, "cohomology", "--rack", str(path))
        assert code == 1, path
        assert err.startswith("error: ") and "Traceback" not in err, path
        assert out == ""


def test_construct_reports_an_unwritable_output_file(tmp_path, capsys):
    out_path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(
        capsys, "construct", "class-rack", "--p", "5", "--m", "5", "--out", str(out_path)
    )
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_cohomology_from_class_parameters(capsys):
    code, report, _ = run_json(capsys, "cohomology", "--p", "5", "--m", "5", "--json")
    assert code == 0
    assert report["result"]["pretty"] == "k^× × G_10"


def test_cohomology_guard_runs_before_the_class_rack_is_built(monkeypatch, capsys):
    from rackforge import cli

    def refuse(p, m):
        pytest.fail("the class rack was built before the size guard")

    monkeypatch.setattr(cli, "class_rack", refuse)
    code, _, err = run_cli(capsys, "cohomology", "--p", "7", "--m", "8")
    assert code == 1
    assert "rack of size 2880 exceeds the n^3 <= 100000000 guard" in err


def test_construct_requires_flags(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "class-rack", "--p", "5"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["construct", "subrack", "--p", "7", "--m", "7"])
    assert info.value.code == 64


def test_construct_subrack_rejects_foreign_tau(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "construct",
        "subrack",
        "--p",
        "5",
        "--m",
        "5",
        "--tau",
        "(1 2 3 4 6)",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "error:" in err


def test_construct_psl_and_frobenius_reports(capsys):
    code, report, _ = run_json(capsys, "construct", "psl", "--k", "3", "--r", "2", "--json")
    assert code == 0
    assert report["result"]["order"] == 168
    assert report["result"]["degree"] == 7
    assert report["result"]["generators"]
    code, report, _ = run_json(capsys, "construct", "frobenius", "--h", "3", "--json")
    assert code == 0
    assert report["result"]["order"] == 56
    assert report["result"]["degree"] == 8


def test_verify_all_subset(capsys):
    code, out, err = run_cli(capsys, "verify-all", "--criteria", "1,2", "--json")
    assert code == 0
    report = json.loads(out)
    results = report["result"]["criteria"]
    assert [entry["number"] for entry in results] == [1, 2]
    assert all(entry["passed"] for entry in results)


def test_verify_all_rejects_unknown_criterion(capsys):
    code, _, err = run_cli(capsys, "verify-all", "--criteria", "99")
    assert code == 1
    assert "error:" in err


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
