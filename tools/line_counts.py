"""Count the lines of each module of src/rackforge by kind.

    python3 tools/line_counts.py [CHECKOUT]

For each module prints its total lines and how many of them are
docstring, comment, blank and code lines, then the totals. A docstring
line is any line of a module, class or function docstring, blank ones
inside it included; a comment line holds only a comment; code lines are
the rest. CHECKOUT defaults to the checkout holding this script. Stdlib
only.
"""

import ast
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("total", "docstring", "comment", "blank", "code")


def docstring_lines(tree):
    """Line numbers spanned by every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        counts["total"] += 1
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv):
    root = os.path.abspath(argv[1]) if len(argv) > 1 else HERE
    package = os.path.join(root, "src", "rackforge")
    if len(argv) > 2 or not os.path.isdir(package):
        sys.exit("usage: line_counts.py [CHECKOUT] (a directory with src/rackforge)")
    totals = dict.fromkeys(KINDS, 0)
    print("%-18s" % "module" + "".join("%10s" % kind for kind in KINDS))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            counts = count(os.path.join(package, name))
            for kind in KINDS:
                totals[kind] += counts[kind]
            print("%-18s" % name + "".join("%10d" % counts[kind] for kind in KINDS))
    print("%-18s" % "total" + "".join("%10d" % totals[kind] for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
