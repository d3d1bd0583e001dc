"""Run-time spans around rackforge's public functions, for the traced run.

A `Tracer` replaces each listed function, in every loaded rackforge module
that holds a reference to it, by a wrapper that records one span: name,
phase, parent span, start, duration and the counts read off the result.
Spans stay in memory; `write` dumps them once, when the run ends, and
`layer_metrics` turns them into per-layer figures. Nothing in the package
itself changes, and `restore` puts every original function back.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _verdict_counts(args, kwargs, result):
    return {result.verdict.lower(): 1}


def _base_points(args, kwargs, result):
    return {"base_points": len(result.base)}


def _orbit_counts(args, kwargs, result):
    # the class-splitting shortcut answers without enumerating, visited = 0
    return {"visited": result.visited, "closed_form": int(result.visited == 0)}


def _element_count(args, kwargs, result):
    return {"elements": len(result)}


def _d3_nnz(args, kwargs, result):
    return {"d3_nnz": result[1].nnz}


def _snf_rank(args, kwargs, result):
    return {"rank": result[1]}


# (module, function, counts read off the result, fields reported); the span
# is "module.function" and each field gives the metric "span.field". Field
# "s" is inclusive seconds, "self_s" excludes traced children, "calls"
# counts spans, anything else sums the named count.
TRACED = (
    ("groups", "build_bsgs", _base_points, ("calls", "s", "base_points")),
    ("groups", "conjugacy_orbit_contains", _orbit_counts, ("calls", "s", "visited", "closed_form")),
    ("groups", "conjugacy_class_list", _element_count, ("calls", "s", "elements")),
    ("constructions", "class_elements", None, ("s", "elements")),
    ("constructions", "psl_permutation_group", None, ("s",)),
    ("constructions", "order_p_class_reps", None, ("s",)),
    ("rack", "type_d_pair", _verdict_counts,
     ("calls", "s", "self_s", "ax1fail", "ax2fail", "witness", "indeterminate")),
    ("rack", "conjugation_rack", None, ("s",)),
    ("rack", "subrack_closure", None, ("s",)),
    ("classify", "fw_identify", None, ("calls", "s", "self_s", "failed")),
    ("homology", "boundary_matrices", _d3_nnz, ("s", "d3_nnz")),
    ("homology", "smith_normal_form", _snf_rank, ("s", "rank")),
)
RENAMED = {"homology.boundary_matrices.d3_nnz": "homology.d3_nnz"}


def _layer_metrics():
    out = []
    for module, func, _, fields in TRACED:
        span = module + "." + func
        for field in fields:
            metric = span + "." + field
            out.append((RENAMED.get(metric, metric), span, field))
    return tuple(out)


# every per-layer figure the traced run reports, as (metric, span name, field)
LAYER_METRICS = _layer_metrics()

TIME_FIELDS = {"s", "self_s"}


class Tracer:
    """Spans kept in memory as lists [name, phase, parent, start, dur, counts].

    The caller opens a phase, ("setup", i) or ("round", j), around each
    set-up and each round, so the figures can be given per set-up and per
    round.
    """

    def __init__(self):
        self.spans = []
        self.phases = []
        self.phase = None
        self._stack = []
        self._patched = []

    def begin_phase(self, kind, index):
        self.phase = (kind, index)
        self.phases.append(self.phase)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "rackforge" or n.startswith("rackforge.")]
        for module_name, func_name, counter, _ in TRACED:
            original = getattr(sys.modules["rackforge." + module_name], func_name)
            span_name = "%s.%s" % (module_name, func_name)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(span_name, original)
            else:
                wrapper = self._wrap(span_name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _open(self, name, counts=None):
        parent = self._stack[-1] if self._stack else None
        record = [name, self.phase, parent, perf_counter(), 0.0, counts]
        self.spans.append(record)
        return record

    def _wrap(self, name, func, counter):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            self._stack.append(len(self.spans) - 1)
            try:
                result = func(*args, **kwargs)
            except Exception:
                record[5] = {"failed": 1}
                raise
            finally:
                record[4] = perf_counter() - record[3]
                self._stack.pop()
            if counter is not None:
                record[5] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _wrap_generator(self, name, func):
        """A generator's span lasts only as long as its own next() calls,
        which the consumer's code interleaves; it is never a parent."""

        def wrapper(*args, **kwargs):
            record = self._open(name, {"elements": 0})
            inner = func(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    record[4] += perf_counter() - t0
                record[5]["elements"] += 1
                yield item

        wrapper.__wrapped__ = func
        return wrapper

    def self_times(self):
        """Each span's duration minus the durations of its direct children.
        The run is single-threaded, so children never overlap."""
        selfs = [span[4] for span in self.spans]
        for span in self.spans:
            if span[2] is not None:
                selfs[span[2]] -= span[4]
        return selfs

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w") as fh:
            for span_id, (name, phase, parent, start, dur, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "phase": list(phase), "parent": parent,
                    "start": start, "dur": dur, "self": selfs[span_id], "counts": counts or {},
                }) + "\n")

    def layer_metrics(self):
        """Per-layer figures for one set-up plus one round: each phase kind's
        per-instance totals, median over its instances, summed over the two
        kinds. Counts are the same in every instance, so they come out exact."""
        selfs = self.self_times()
        # phase -> span name -> field -> total
        totals = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for span_id, (name, phase, parent, start, dur, counts) in enumerate(self.spans):
            fields = totals[phase][name]
            fields["calls"] += 1
            fields["s"] += dur
            fields["self_s"] += selfs[span_id]
            for key, value in (counts or {}).items():
                fields[key] += value
        kinds = defaultdict(list)
        for phase in self.phases:
            kinds[phase[0]].append(phase)
        out = {}
        for metric, name, field in LAYER_METRICS:
            value = sum(
                statistics.median(totals[p][name][field] for p in phases)
                for phases in kinds.values()
            )
            out[metric] = value if field in TIME_FIELDS else int(round(value))
        return out

    def spans_per_round(self):
        """Spans opened in one round, the median over the rounds."""
        per_phase = defaultdict(int)
        for span in self.spans:
            per_phase[span[1]] += 1
        return statistics.median(per_phase[phase] for phase in self.phases if phase[0] == "round")


def wrapper_cost_s(calls=20_000, batches=7):
    """Seconds a span wrapper adds to one call: a no-op called through a
    fresh tracer's wrapper, less the bare no-op, median of batches."""

    def noop():
        return None

    tracer = Tracer()
    # the counter does what a verdict counter does: one small dict per span
    wrapped = tracer._wrap("noop", noop, lambda args, kwargs, result: {"witness": 1})
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - t0 - bare) / calls)
    return statistics.median(costs)

