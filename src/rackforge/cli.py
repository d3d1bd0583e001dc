"""Command line front end.

Every subcommand prints a report to stdout: JSON with --json (sorted keys,
so identical inputs give byte-identical output apart from the wall clock
field), human text otherwise. Progress notes go to stderr. Exit codes:
0 success, 1 domain error, 2 budget ran out without a decision, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import __version__
from .acceptance import CRITERIA, _criterion, run_criterion
from .classify import (
    SearchOutcome,
    _reverify,
    classify_class,
    fw_identify,
    subrack_census,
    witness_search,
)
from .constructions import (
    affine_frobenius_group,
    natural_class,
    psl_permutation_group,
)
from .homology import second_homology, size_guard
from .numth import cyclotomic_decompositions, cyclotomic_primes_below
from .perm import format_cycles, parse_cycles
from .rack import (
    FiniteRack,
    TypeDWitness,
    class_rack,
    conjugation_rack,
    subrack_closure,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _log(message):
    print(message, file=sys.stderr)


def _emit(args, command, config, result, started):
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
        "wall_clock_seconds": round(time.monotonic() - started, 3),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    return report


def _parse_permutation(text, degree=None):
    """Cycle string to Permutation; degree defaults to the largest point."""
    points = [int(tok) for tok in re.findall(r"\d+", text)]
    needed = max(points) if points else 1
    if degree is None:
        degree = needed
    if degree < needed:
        raise ValueError("degree %d is below the largest point %d" % (degree, needed))
    return parse_cycles(text, degree)


def _cmd_classify(args):
    started = time.monotonic()
    verdict = classify_class(args.p, args.m)
    _emit(args, "classify", {"p": args.p, "m": args.m}, verdict.to_json_dict(), started)
    if not args.json:
        print("class of %d-cycles at degree %d: %s" % (args.p, args.m, verdict.verdict))
        decomposition = verdict.reason.get("cyclotomic", [])
        if decomposition:
            forms = ", ".join(
                "%d = (%d^%d-1)/(%d-1)" % (args.p, r, k, r) for r, k in decomposition
            )
            print("cyclotomic decompositions: %s" % forms)
        else:
            print("no cyclotomic decomposition")
        if "threshold" in verdict.reason:
            print("blocked by threshold: %s" % verdict.reason["threshold"])
    return EXIT_OK


def _cache_key(args):
    key = "p=%d,m=%d,strategy=%s,seed=%d" % (args.p, args.m, args.strategy, args.seed)
    return key if args.budget is None else key + ",budget=%d" % args.budget


# what a malformed cache file or entry can raise on load
_CACHE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, AssertionError)


class _OtherRequest(ValueError):
    """A cache entry stored under this key for a different request."""


def _cache_entries(path):
    """The entries of a cache file: {} when it is missing, None when it
    cannot be read."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return dict(json.load(handle)["entries"])
    except _CACHE_ERRORS:
        return None


def _cache_load(path, key, args):
    """The cached outcome for key, or None. Only witnesses are served. An
    entry is served only when it was stored for this very request (p, m,
    strategy, seed and budget), its count of pairs tested is a positive
    int, its witness re-checks for (p, m) as a fresh search would, and it
    holds exactly the fields, types and values that a fresh search's
    report of that witness would hold."""
    if not path:
        return None
    entries = _cache_entries(path)
    if entries is None:
        _log("cache file %s is corrupt, searching again" % path)
        return None
    entry = entries.get(key)
    if entry is None:
        return None
    try:
        request = (args.p, args.m, args.strategy, args.seed, args.budget)
        stored = tuple(entry[name] for name in ("p", "m", "strategy", "seed", "budget"))
        if [(type(v), v) for v in stored] != [(type(v), v) for v in request]:
            raise _OtherRequest()
        tested = entry["pairs_tested"]
        if type(tested) is not int or tested < 1:
            raise ValueError("pair count out of range")
        witness = _reverify(TypeDWitness.from_json_dict(entry["witness"]), args.p, args.m)
        rebuilt = SearchOutcome(*request[:3], "witness", witness, tested, *request[3:])
        # dumps, not dicts: 1.0 == 1 and True == 1 in Python, but not in a report
        if json.dumps(entry, sort_keys=True) != json.dumps(rebuilt.to_json_dict(), sort_keys=True):
            raise ValueError("the entry holds fields a fresh search does not report")
    except _OtherRequest:
        _log("cache entry for %s was stored for another request, searching again" % key)
        return None
    except _CACHE_ERRORS as error:
        _log("cache entry for %s failed re-verification, searching again: %r" % (key, error))
        return None
    return entry


def _cache_store(path, key, outcome_dict):
    """Add a witness outcome, writing a temporary file and renaming it over
    the cache so an interrupted write never leaves a truncated file."""
    entries = _cache_entries(path) or {}
    entries[key] = outcome_dict
    temporary = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump({"schema": SCHEMA, "entries": entries}, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(temporary, path)
    finally:
        if os.path.isfile(temporary):  # the write or the rename failed
            os.remove(temporary)


def _cmd_witness(args):
    started = time.monotonic()
    config = {
        "p": args.p,
        "m": args.m,
        "strategy": args.strategy,
        "seed": args.seed,
        "budget": args.budget,
        "deep": args.deep,
    }
    key = _cache_key(args)
    result = _cache_load(args.cache, key, args)
    searched = result is None
    if searched:
        outcome = witness_search(
            args.p,
            args.m,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            deep=args.deep,
        )
        result = outcome.to_json_dict()
    else:
        _log("cache hit for %s" % key)
    _emit(args, "witness", config, result, started)
    if not args.json:
        print(
            "search p=%d m=%d strategy=%s seed=%d: %s"
            % (args.p, args.m, args.strategy, args.seed, result["status"])
        )
        print(
            "pairs tested %d, indeterminate %d"
            % (result["pairs_tested"], result["indeterminate"])
        )
        if result["witness"]:
            witness = TypeDWitness.from_json_dict(result["witness"])
            print("sigma = %s" % format_cycles(witness.sigma))
            print("tau   = %s" % format_cycles(witness.tau))
            print(
                "subgroup order %d; product squares differ; conjugacy search: %s"
                % (witness.subgroup_order, witness.orbit_answer)
            )
    # stored after the report, so a cache that cannot be written loses no result
    if args.cache and searched and result["status"] == "witness":
        _cache_store(args.cache, key, result)
    return EXIT_UNDECIDED if result["status"] == "exhausted" else EXIT_OK


def _cmd_census(args):
    started = time.monotonic()
    report = subrack_census(args.p, args.m, budget=args.budget, seed=args.seed)
    config = {"p": args.p, "m": args.m, "budget": args.budget, "seed": args.seed}
    _emit(args, "census", config, report.to_json_dict(), started)
    if not args.json:
        mode = "exhaustive" if report.exhaustive else "sampled"
        print(
            "census p=%d m=%d (%s over %d pairs)" % (args.p, args.m, mode, report.pairs)
        )
        print("closure  case  order      abelian  count")
        for row in report.rows:
            print(
                "%7d  %-4s  %-9d  %-7s  %d"
                % (row.closure_size, row.case_tag, row.subgroup_order, row.abelian, row.count)
            )
    return EXIT_OK


def _cmd_fw_identify(args):
    started = time.monotonic()
    sigma = _parse_permutation(args.sigma, args.degree)
    tau = _parse_permutation(args.tau, args.degree)
    degree = max(sigma.degree, tau.degree)
    sigma = sigma.extend(degree)
    tau = tau.extend(degree)
    case = fw_identify(sigma, tau)
    config = {"sigma": args.sigma, "tau": args.tau, "degree": args.degree}
    _emit(args, "fw-identify", config, case.to_json_dict(), started)
    if not args.json:
        print(
            "case %s: %s (order %d, support union %d)"
            % (case.tag, " or ".join(case.names), case.order, case.m)
        )
    return EXIT_OK


def _load_rack(path):
    with open(path, "r", encoding="utf-8") as handle:
        return FiniteRack.from_json_dict(json.load(handle))


def _cmd_cohomology(args):
    started = time.monotonic()
    if args.rack:
        rack = _load_rack(args.rack)
        config = {"rack": args.rack}
    else:
        if args.p is None or args.m is None:
            raise ValueError("give either --rack FILE or both --p and --m")
        size_guard(natural_class(args.p, args.m).class_size)
        rack = class_rack(args.p, args.m)
        config = {"p": args.p, "m": args.m}
    h2 = second_homology(rack)
    result = h2.to_json_dict()
    result["rack_size"] = rack.size
    _emit(args, "cohomology", config, result, started)
    if not args.json:
        print("rack size %d" % rack.size)
        print("second cohomology: %s" % h2.pretty)
    return EXIT_OK


def _write_rack(rack, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rack.to_json_dict(), handle, sort_keys=True)
        handle.write("\n")


def _group_report(args, config, group, label, started):
    result = {
        "degree": group.degree,
        "order": group.order,
        "generators": [format_cycles(g) for g in group.generators],
    }
    _emit(args, "construct", config, result, started)
    if not args.json:
        print("%s group on %d points, order %d" % (label, group.degree, group.order))
        for line in result["generators"]:
            print("  %s" % line)
    return EXIT_OK


def _cmd_construct(args):
    started = time.monotonic()
    if args.what == "class-rack":
        rack = class_rack(args.p, args.m)
        _write_rack(rack, args.out)
        config = {"what": args.what, "p": args.p, "m": args.m, "out": args.out}
        result = {"path": args.out, "size": rack.size}
        _emit(args, "construct", config, result, started)
        if not args.json:
            print("wrote %d-element class rack to %s" % (rack.size, args.out))
        return EXIT_OK
    if args.what == "subrack":
        rack = class_rack(args.p, args.m)
        sigma = natural_class(args.p, args.m).sigma
        tau = _parse_permutation(args.tau, sigma.degree)
        elements = list(rack.elements)
        try:
            seeds = {elements.index(sigma), elements.index(tau)}
        except ValueError:
            raise ValueError("tau is not in the class of the standard cycle")
        members = sorted(subrack_closure(rack, seeds))
        sub = conjugation_rack([elements[i] for i in members])
        _write_rack(sub, args.out)
        config = {
            "what": args.what,
            "p": args.p,
            "m": args.m,
            "tau": args.tau,
            "out": args.out,
        }
        result = {"path": args.out, "size": sub.size}
        _emit(args, "construct", config, result, started)
        if not args.json:
            print("wrote %d-element subrack closure to %s" % (sub.size, args.out))
        return EXIT_OK
    if args.what == "psl":
        group = psl_permutation_group(args.k, args.r)
        config = {"what": args.what, "k": args.k, "r": args.r}
        return _group_report(args, config, group, "linear", started)
    if args.what == "frobenius":
        group = affine_frobenius_group(args.h)
        config = {"what": args.what, "h": args.h}
        return _group_report(args, config, group, "affine", started)
    raise ValueError("unknown construction %r" % args.what)


def _cmd_primes(args):
    started = time.monotonic()
    primes = list(cyclotomic_primes_below(args.below))
    result = {
        "below": args.below,
        "primes": primes,
        "decompositions": [
            [p, [[r, k] for r, k in cyclotomic_decompositions(p)]] for p in primes
        ],
    }
    _emit(args, "primes", {"below": args.below}, result, started)
    if not args.json:
        print("cyclotomic primes below %d: %s" % (args.below, primes))
        for p, decomposition in result["decompositions"]:
            forms = ", ".join("(%d^%d-1)/(%d-1)" % (r, k, r) for r, k in decomposition)
            print("  %d = %s" % (p, forms))
    return EXIT_OK


def _cmd_verify_all(args):
    started = time.monotonic()
    if args.criteria is None:
        numbers = [criterion.number for criterion in CRITERIA]
    else:
        try:
            numbers = sorted({int(tok) for tok in args.criteria.split(",")})
        except ValueError:
            raise ValueError(
                "--criteria takes comma-separated criterion numbers, got %r" % args.criteria
            ) from None
        for number in numbers:
            _criterion(number)  # an unknown number fails before any criterion runs
    results = []
    for number in numbers:
        _log("running criterion %d" % number)
        results.append(run_criterion(number))
    passed = sum(1 for r in results if r.passed)
    payload = {
        "passed": passed,
        "total": len(results),
        "criteria": [r.to_json_dict() for r in results],
    }
    _emit(args, "verify-all", {"desk": args.desk, "criteria": args.criteria}, payload, started)
    if not args.json:
        for r in results:
            print(r.line())
        print("passed %d of %d" % (passed, len(results)))
    return EXIT_OK if passed == len(results) else EXIT_DOMAIN


def build_parser():
    parser = _Parser(prog="rackforge", description=__doc__)
    parser.add_argument("--version", action="version", version="rackforge " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="JSON report to stdout")

    p = sub.add_parser("classify", help="closed-form type D verdict for a class")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="search the class for a verified pair")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--strategy",
        choices=("exhaustive", "random", "subgroup"),
        default="subgroup",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--deep", action="store_true", help="allow large exhaustions")
    p.add_argument("--cache", default=None, help="witness cache JSON path")
    common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("census", help="histogram of subrack closures over the class")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("fw-identify", help="match a two-cycle subgroup to the case list")
    p.add_argument("--sigma", required=True, help="cycle string, e.g. '(1 2 3 4 5)'")
    p.add_argument("--tau", required=True)
    p.add_argument("--degree", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_fw_identify)

    p = sub.add_parser("cohomology", help="second cohomology of a rack")
    p.add_argument("--rack", default=None, help="rack JSON file")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("construct", help="build racks and groups")
    p.add_argument("what", choices=("class-rack", "subrack", "psl", "frobenius"))
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--tau", default=None, help="cycle string for subrack closures")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--out", default=None, help="output path for rack JSON")
    common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("primes", help="cyclotomic primes below a bound")
    p.add_argument("--below", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("verify-all", help="run the verification suite")
    p.add_argument("--desk", action="store_true", help="desk-scale suite (the default)")
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    common(p)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def _validate_construct(parser, args):
    if args.command != "construct":
        return
    needs = {
        "class-rack": ("p", "m", "out"),
        "subrack": ("p", "m", "tau", "out"),
        "psl": ("k", "r"),
        "frobenius": ("h",),
    }[args.what]
    missing = [name for name in needs if getattr(args, name) is None]
    if missing:
        parser.error(
            "construct %s requires %s" % (args.what, ", ".join("--" + n for n in missing))
        )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_construct(parser, args)
    try:
        return args.func(args)
    except (ValueError, AssertionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
