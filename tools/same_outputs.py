"""Compare rackforge's --json outputs at another checkout and at this one.

    python3 tools/same_outputs.py PARENT_CHECKOUT

Runs the same commands with each checkout's src/ on PYTHONPATH:
`verify-all --desk`, `cohomology` at (5,5), (5,6) and on the 24-element
subrack of the (7,7) class, `census` at (5,5), (5,6), (7,7) and (7,8),
`witness --strategy subgroup` at (7,8), (13,14) and (31,32), and
`witness --strategy exhaustive` at (5,6).
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


def cli(checkout, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rackforge.cli", *args, "--json"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        return {"exit": proc.returncode, "stderr": proc.stderr}
    return mask(json.loads(proc.stdout))


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
    for p, m in ((5, 5), (5, 6)):
        yield ["cohomology", "--p", str(p), "--m", str(m)]
    yield ["cohomology", "--rack", subrack_path]
    for p, m in ((5, 5), (5, 6), (7, 7), (7, 8)):
        yield ["census", "--p", str(p), "--m", str(m)]
    for p, m in ((7, 8), (13, 14), (31, 32)):
        yield ["witness", "--p", str(p), "--m", str(m), "--strategy", "subgroup"]
    yield ["witness", "--p", "5", "--m", "6", "--strategy", "exhaustive"]


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
        for args in commands(subrack_path):
            before, after = (json.dumps(cli(c, args), indent=1, sort_keys=True).splitlines()
                             for c in (parent, HERE))
            same = before == after
            differences += not same
            print("%-4s %s" % ("same" if same else "DIFF", " ".join(args)))
            for line in difflib.unified_diff(before, after, "parent", "head", lineterm=""):
                print("     " + line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
