"""Compare rackforge's --json outputs at another checkout and at this one.

    python3 tools/same_outputs.py PARENT_CHECKOUT

Runs the same commands with each checkout's src/ on PYTHONPATH:
`verify-all --desk`, `classify` at (13,13), `primes --below 1000`,
`fw-identify` on two 5-cycles, `construct psl --k 3 --r 2` and
`construct frobenius --h 3`, `cohomology` at (5,5), (5,6) and on the
24-element subrack of the (7,7) class, `census` at (5,5), (5,6), (7,7)
and (7,8), `witness --strategy subgroup` at (7,8), (13,14) and (31,32),
and `witness --strategy exhaustive` at (5,5) and (5,6). Last, it runs
`witness --p 7 --m 8 --cache F` twice with F in a fresh temporary
directory, and compares the second report, served from the cache, and
whether the second run logged a cache hit.
The clock fields (`wall_clock_seconds`, `seconds`, and figures such as
"0.3s" inside detail strings) are masked. Every difference is printed;
the exit status is 1 if there is one. Stdlib only.
"""

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLOCK_KEYS = {"wall_clock_seconds", "seconds"}
CLOCK_IN_TEXT = re.compile(r"\d+\.\d+s\b")
SUBRACK_TAU = "(1 2 4 3 7 6 5)"  # closes with the standard 7-cycle to 24 elements


def run(checkout, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    return subprocess.run(
        [sys.executable, "-m", "rackforge.cli", *args, "--json"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )


def report(proc):
    if proc.returncode:
        return {"exit": proc.returncode, "stderr": proc.stderr}
    return mask(json.loads(proc.stdout))


def cli(checkout, args):
    return report(run(checkout, args))


def cache_round_trip(checkout):
    """The second of two cached witness searches in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        args = ["witness", "--p", "7", "--m", "8", "--cache", os.path.join(tmp, "w.json")]
        run(checkout, args)
        second = run(checkout, args)
        return {"cache hit": "cache hit" in second.stderr, "report": report(second)}


def mask(value):
    if isinstance(value, dict):
        return {k: "<clock>" if k in CLOCK_KEYS else mask(v) for k, v in value.items()}
    if isinstance(value, list):
        return [mask(v) for v in value]
    if isinstance(value, str):
        return CLOCK_IN_TEXT.sub("<clock>s", value)
    return value


def commands(subrack_path):
    yield ["verify-all", "--desk"]
    yield ["classify", "--p", "13", "--m", "13"]
    yield ["primes", "--below", "1000"]
    yield ["fw-identify", "--sigma", "(1 2 3 4 5)", "--tau", "(1 3 5 2 4)"]
    yield ["construct", "psl", "--k", "3", "--r", "2"]
    yield ["construct", "frobenius", "--h", "3"]
    for p, m in ((5, 5), (5, 6)):
        yield ["cohomology", "--p", str(p), "--m", str(m)]
    yield ["cohomology", "--rack", subrack_path]
    for p, m in ((5, 5), (5, 6), (7, 7), (7, 8)):
        yield ["census", "--p", str(p), "--m", str(m)]
    for p, m in ((7, 8), (13, 14), (31, 32)):
        yield ["witness", "--p", str(p), "--m", str(m), "--strategy", "subgroup"]
    for p, m in ((5, 5), (5, 6)):
        yield ["witness", "--p", str(p), "--m", str(m), "--strategy", "exhaustive"]


def runs(subrack_path):
    """(label, function of a checkout giving its output) for each comparison."""
    for args in commands(subrack_path):
        yield " ".join(args), lambda checkout, args=args: cli(checkout, args)
    yield "witness --p 7 --m 8 --cache F, second run", cache_round_trip


def main(argv):
    if len(argv) != 2 or not os.path.isdir(os.path.join(argv[1], "src", "rackforge")):
        sys.exit("usage: same_outputs.py PARENT_CHECKOUT (a directory with src/rackforge)")
    parent = os.path.abspath(argv[1])
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        subrack_path = os.path.join(tmp, "sub24.json")
        built = cli(HERE, ["construct", "subrack", "--p", "7", "--m", "7",
                           "--tau", SUBRACK_TAU, "--out", subrack_path])
        if built.get("result", {}).get("size") != 24:
            sys.exit("could not build the 24-element subrack: %r" % built)
        for label, output in runs(subrack_path):
            before, after = (json.dumps(output(c), indent=1, sort_keys=True).splitlines()
                             for c in (parent, HERE))
            same = before == after
            differences += not same
            print("%-4s %s" % ("same" if same else "DIFF", label))
            for line in difflib.unified_diff(before, after, "parent", "head", lineterm=""):
                print("     " + line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
