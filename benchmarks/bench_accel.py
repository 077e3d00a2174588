"""Side-by-side pure vs compiled kernel microbenchmarks.

Measures the same storms as :mod:`bench_hotpath` twice in one process —
once with the pure-Python kernel classes (from the loader's pre-swap
namespace snapshots) and once with the compiled twins (imported directly)
— so the ``accel_*`` speedup cells in ``BENCH_hotpath.json`` are
apples-to-apples regardless of which build the ambient process selected.

Every storm asserts that both implementations produced identical results
before any rate is reported: these are benchmarks *and* coarse
differential checks (the fine-grained oracles live in the test suite).

Skipped entirely (``run_accel_suite`` returns ``None``) when no compiled
build is present, so pure checkouts and toolchain-less CI runs never see
these cells.
"""

from __future__ import annotations

import time
import typing

from repro._accel import (
    KERNEL_MODULES,
    AccelUnavailableError,
    load_accel,
    pure_namespace,
)
from repro.storage.values import Increment

import bench_hotpath



def available() -> bool:
    """Whether every compiled twin the accel cells measure is importable."""
    try:
        for canonical in KERNEL_MODULES:
            load_accel(canonical)
    except AccelUnavailableError:
        return False
    return True


def _best_of(fn: typing.Callable[[], typing.Any], repeat: int
             ) -> typing.Tuple[float, typing.Any]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, result


# ----------------------------------------------------------------------
# Class-parameterized storms (same shapes and sizings as bench_hotpath)
# ----------------------------------------------------------------------

def counter_storm(n: int, counter_cls) -> typing.Tuple[dict, dict]:
    table = counter_cls("p")
    table.ensure_version(1)
    inc_r, inc_c = table.inc_request, table.inc_completion
    for _ in range(n):
        inc_r(1, "q")
        inc_c(1, "q")
    return table.requests(1), table.completions(1)


def mvstore_storm(n: int, store_cls) -> dict:
    store = store_cls()
    for k in range(100):
        store.load(k, 0)
    for i in range(n):
        k = i % 100
        store.read_max_leq(k, 5)
        store.exists_above(k, 5)
        store.ensure_version(k, 1)
    # Same round as bench_hotpath plus a write tail so the snapshot
    # equality assert covers the apply path too.
    for k in range(100):
        store.apply_geq(k, 0, Increment(k))
    return store.snapshot()


def callback_storm(n: int, sim_cls) -> int:
    return bench_hotpath.kernel_callback_storm(n, sim_class=sim_cls)


def process_storm(n: int, sim_cls) -> int:
    return bench_hotpath.kernel_process_storm(n, sim_class=sim_cls)


def _measure(name: str, fn, pure_arg, accel_arg, repeat: int,
             metrics: typing.Dict[str, float], rate_of) -> None:
    """Time ``fn`` under both implementations; record rate + speedup."""
    pure_wall, pure_result = _best_of(lambda: fn(pure_arg), repeat)
    accel_wall, accel_result = _best_of(lambda: fn(accel_arg), repeat)
    assert pure_result == accel_result, (
        f"accel {name} diverged from pure: "
        f"{accel_result!r} != {pure_result!r}"
    )
    metrics[f"accel_{name}_per_sec"] = rate_of(accel_result) / accel_wall
    metrics[f"accel_{name}_speedup"] = pure_wall / accel_wall


def run_accel_suite(mode: str = "full"
                    ) -> typing.Optional[typing.Dict[str, typing.Any]]:
    """``{"backend": ..., "metrics": {...}}`` or ``None`` when not built."""
    if not available():
        return None
    cfg = bench_hotpath.CONFIGS[mode]
    repeat = cfg["repeat"]

    pure_sim = pure_namespace("repro.sim.simulator")["Simulator"]
    accel_sim = load_accel("repro.sim.simulator").Simulator
    pure_counter = pure_namespace("repro.storage.counters")["CounterTable"]
    accel_counter = load_accel("repro.storage.counters").CounterTable
    pure_store = pure_namespace("repro.storage.mvstore")["MVStore"]
    accel_store = load_accel("repro.storage.mvstore").MVStore

    metrics: typing.Dict[str, float] = {}
    n = cfg["counter_incs"]
    _measure("counter_incs", lambda cls: counter_storm(n, cls),
             pure_counter, accel_counter, repeat, metrics,
             rate_of=lambda _result: 2 * n)
    rounds = cfg["mvstore_rounds"]
    _measure("mvstore_ops", lambda cls: mvstore_storm(rounds, cls),
             pure_store, accel_store, repeat, metrics,
             rate_of=lambda _result: 3 * rounds)
    events = cfg["kernel_events"]
    _measure("kernel_callback_events", lambda cls: callback_storm(events, cls),
             pure_sim, accel_sim, repeat, metrics,
             rate_of=lambda result: result)
    items = cfg["process_items"]
    _measure("kernel_process_events", lambda cls: process_storm(items, cls),
             pure_sim, accel_sim, repeat, metrics,
             rate_of=lambda result: result)
    return {"backend": "ckernel", "metrics": metrics}


if __name__ == "__main__":
    import json
    import sys

    mode = "smoke" if "--smoke" in sys.argv else "full"
    suite = run_accel_suite(mode)
    if suite is None:
        print("no compiled accel build present; nothing to measure")
        sys.exit(0)
    print(json.dumps(suite, indent=2))
