"""Self-tests of the benchmark's tracer and metric definitions.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from tracer import LAYERS, UNATTRIBUTED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 3.0, 6.0))

    def inner():
        return "done"

    inner = tracer.wrap(inner, "inner", "storage")

    def outer():
        return inner()

    outer = tracer.wrap(outer, "outer", "runtime")
    assert outer() == "done"
    ledger = tracer.ledger(-1.0, 7.0)
    assert ledger["runtime"] == 4.0
    assert ledger["storage"] == 2.0
    assert ledger[UNATTRIBUTED] == 2.0
    assert sum(ledger.values()) == 8.0
    # A window cuts spans; self time is what the window sees.
    clipped = tracer.ledger(2.0, 5.0)
    assert clipped["runtime"] == 2.0 and clipped["storage"] == 1.0
    assert list(tracer.parent) == [-1, 0]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=fake_clock(0.0, 2.0))

    def broken():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(broken, "broken", "txn")()
    assert tracer.ledger(0.0, 2.0)["txn"] == 2.0
    assert tracer._stack == [-1]


def test_generator_spans_time_each_resume():
    tracer = Tracer(clock=fake_clock(*range(100)),
                    txn_of={"child": lambda name: name})

    def child(name):
        got = yield "first"
        try:
            yield got
        except ValueError:
            pass
        return name.upper()

    def parent():
        result = yield from child("t1")
        yield result

    child = tracer.wrap(child, "child", "runtime")
    parent = tracer.wrap(parent, "parent", "sim")
    gen = parent()
    assert gen.__name__ == "parent"
    assert next(gen) == "first"
    assert gen.send("second") == "second"
    assert gen.throw(ValueError("into child")) == "T1"
    with pytest.raises(StopIteration):
        next(gen)
    names = [tracer.names[i] for i in tracer.span_name]
    # One span per resume of each generator; the child's resumes nest.
    assert names == ["parent", "child", "parent", "child",
                     "parent", "child", "parent"]
    assert tracer.created == {"child": 1, "parent": 1}
    assert [tracer.txn_names[t] for t in tracer.txn if t >= 0] == ["t1"] * 3
    assert tracer._stack == [-1]


def test_closing_a_traced_generator_closes_the_original():
    tracer = Tracer()
    closed = []

    def body():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = tracer.wrap(body, "body", "sim")()
    next(gen)
    gen.close()
    assert closed == [True]


def _layer_modules():
    sys.path.insert(0, HERE)
    from worker import import_layer_modules

    return import_layer_modules()


def test_install_patches_imported_names_and_uninstall_restores():
    import repro.workloads.arrivals as arrivals
    import repro.workloads.runner as runner
    from repro.sim.simulator import Simulator

    before = {id(module): dict(vars(module)) for module in _layer_modules()}
    run_before = vars(Simulator)["run"]
    drive_before = runner.drive
    tracer = Tracer()
    assert tracer.install(_layer_modules()) > 100
    assert vars(Simulator)["run"] is not run_before
    assert runner.drive is arrivals.drive is not drive_before
    tracer.uninstall()
    assert vars(Simulator)["run"] is run_before
    assert runner.drive is drive_before
    for module in _layer_modules():
        assert dict(vars(module)) == before[id(module)], module.__name__


def test_traced_experiment_matches_untraced_and_adds_up():
    import time

    from repro.workloads import run_recording_experiment

    kwargs = dict(nodes=3, duration=5.0, seed=4, update_rate=5.0)

    def outcome(result):
        return (result.system.sim.scheduled_count, result.history.count(),
                result.system.network.stats.total_sent)

    plain = outcome(run_recording_experiment("3v", **kwargs))
    tracer = Tracer()
    tracer.install(_layer_modules())
    try:
        t0 = time.perf_counter()
        traced = outcome(run_recording_experiment("3v", **kwargs))
        t1 = time.perf_counter()
    finally:
        tracer.uninstall()
    assert traced == plain
    ledger = tracer.ledger(t0, t1)
    assert sum(ledger.values()) == pytest.approx(t1 - t0)
    assert all(value >= -1e-9 for value in ledger.values())
    assert ledger["sim"] > 0 and ledger["runtime"] > 0


def test_metric_names_and_units_are_valid():
    names = list(run.E2E) + list(run.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    units = [unit for unit, _b, _m in run.E2E.values()]
    units += list(run.per_layer_units().values())
    for unit in units:
        assert UNIT.match(unit), unit
    for layer in LAYERS + (UNATTRIBUTED,):
        assert f"{layer}.share" in run.per_layer_units()


def test_benchmark_json_matches_the_command():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        assert workload["name"] in WORKLOADS
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        unit, better, _meaning = run.E2E[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert metric["name"] not in run.E2E_PRINTED_ONLY
    assert {m["name"] for m in spec["end_to_end"]} == (
        set(run.E2E) - set(run.E2E_PRINTED_ONLY))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units())
