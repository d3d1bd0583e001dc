"""The benchmark in perfbench/ reaches the package by name: its tracer wraps
the functions listed in tracing.TRACED, and its workloads call the public
API. Some of those functions, such as groups.conjugacy_class_list, have no
caller in src/, so these checks keep them from being deleted as unused.
They read perfbench/ and change nothing in it."""

import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_every_traced_function_resolves_and_the_tracer_installs(perfbench):
    tracing, _ = perfbench
    for module, name, _, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module("rackforge." + module), name, None)), (module, name)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()


def test_class_elements_stays_a_generator_function():
    # the tracer wraps generator functions so that it counts the elements
    # they yield; a plain function returning an iterator would lose the count
    from rackforge import constructions

    assert inspect.isgeneratorfunction(constructions.class_elements)


@pytest.mark.parametrize("name", ["alt-identify", "linear-search", "cohomology"])
def test_workload_sets_up_and_runs_one_op_of_each_kind(perfbench, name):
    _, workloads = perfbench
    setup, check = workloads.WORKLOADS[name]
    ops = setup(1)
    first = {}
    for op in ops:
        first.setdefault(op.label[0], op)
    sample = list(first.values())
    summaries = [workloads.summarize(op, op()) for op in sample]
    assert check(sample, summaries, 1) == []
