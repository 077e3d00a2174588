"""The repo benchmark: audited 3V experiments, e2e metrics, per-layer ledger.

    python3 perfbench/run.py --workload recording --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: it starts one fresh
single-threaded interpreter per audited experiment (``worker.py``), one
after another, until ``--seconds`` have passed and at least seven have
run.  Host times are medians over all of them.  The first two run the same
experiment under two ``PYTHONHASHSEED`` values and must produce the same
outcome digest.  The ``_sim`` metrics are means over a fixed set of six
experiment seeds, so they depend on ``--seed`` alone.

``--trace 1`` gives the per-layer metrics: the same experiment runs three
times on the pure build, untraced, under the span tracer and under
cProfile.  All three must produce the same outcome digest.

Every experiment must pass its correctness checks (clean audit, the 3V
invariants, no update waiting on remote activity, transaction accounting).
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every check passed.  Results and spans are also
written under ``.perfbench-out/`` in the checkout; ``compare.py`` compares
two result files.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

sys.path.insert(0, HERE)

from tracer import LAYERS, UNATTRIBUTED  # noqa: E402
from workloads import WORKLOADS, experiment_seed  # noqa: E402

#: Distinct experiment seeds whose mean gives the ``_sim`` metrics: a
#: fixed set, so those metrics are a deterministic function of ``--seed``.
SIM_EXPERIMENTS = 6
#: Workers per untraced run at least: experiment 0 twice (the hash-seed
#: check), then the rest of the ``_sim`` set.  More run until ``--seconds``
#: have passed, and every host time reported is a median over all.
MIN_WORKERS = SIM_EXPERIMENTS + 1
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 120

#: End-to-end metrics: name -> (unit, better, meaning).
E2E = {
    "txns_per_s": ("txn/s", "higher",
                   "committed txns / host s from first System.run to the "
                   "audited summary"),
    "setup_s": ("s", "lower",
                "fresh interpreter -> first simulated event"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the worker"),
    "update_latency_p95_sim": ("sim_s", "lower",
                               "p95 whole-tree commit latency of updates"),
    "read_staleness_p95_sim": ("sim_s", "lower", "p95 read staleness"),
    "failed_share": ("ratio", "lower",
                     "submitted txns that did not commit / submitted"),
}
#: Printed, but carried in the JSON line only as ``failed / attempted``:
#: it is 0 on every listed workload, so it has no spread to judge.
E2E_PRINTED_ONLY = ("failed_share",)


def per_layer_units():
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for layer in LAYERS + (UNATTRIBUTED,):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.profile_share"] = "ratio"
    units.update({
        "sim.events_per_txn": "count",
        "sim.processes_per_txn": "count",
        "runtime.subtxns_per_txn": "count",
        "runtime.executor_wait_sim": "sim_s",
        "core.waves": "count",
        "core.wave_sim_median": "sim_s",
        "core.polls_per_wave": "count",
        "net.user_msgs_per_txn": "count",
        "net.control_msgs_per_wave": "count",
        "net.retransmits": "count",
        "storage.counter_incs_per_txn": "count",
        "storage.max_versions_per_item": "count",
        "storage.lock_grant_ratio": "ratio",
        "storage.lock_retries_per_txn": "count",
        "txn.validate_us": "us",
        "txn.validate_calls": "count",
        "placement.writes_skipped": "count",
        "placement.reads_gated": "count",
        "placement.refreshes": "count",
        "analysis.reads_checked": "count",
        "setup.import_s": "s",
        "setup.build_s": "s",
        "setup.arrivals_s": "s",
        "mem.run_growth_mb": "MB",
        "trace.overhead": "ratio",
    })
    return units


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def hash_seed(seed: int, index: int) -> str:
    """``PYTHONHASHSEED`` of the ``index``-th worker of a run."""
    return str(1 + (seed * 16 + index) % 4_000_000_000)


def spawn(workload: str, exp_seed: int, hashseed: str, mode: str = "plain",
          pure: bool = False, spans: str = None) -> dict:
    """Run one worker to completion and return its result."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    if pure:
        env["REPRO_ACCEL"] = "0"
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(exp_seed),
               "--mode", mode]
    if spans:
        command += ["--spans", spans]
    spawned = time.perf_counter()
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"worker {mode} seed {exp_seed} exceeded {WORKER_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchmarkError(
            f"worker {mode} seed {exp_seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(spawned=spawned, hashseed=hashseed, exp_seed=exp_seed,
                  mode=mode)
    return result


def check_failures(runs) -> list:
    """Every failed check of ``runs``, as printable lines."""
    failures = []
    for run in runs:
        for name, problem in run["checks"].items():
            if problem is not None:
                failures.append(f"{name} (seed {run['exp_seed']}, "
                                f"{run['mode']}): {problem}")
    stamps = {json.dumps(run["build"], sort_keys=True) for run in runs}
    if len(stamps) > 1:
        failures.append(f"build stamps differ within one run, refusing to "
                        f"compare: {sorted(stamps)}")
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["exp_seed"], []).append(run)
    for exp_seed, same in sorted(by_seed.items()):
        digests = {run["digest"] for run in same}
        if len(digests) > 1:
            detail = ", ".join(
                f"{run['mode']} PYTHONHASHSEED={run['hashseed']}: digest "
                f"{run['digest']}, {run['counts']['events']} events"
                for run in same)
            failures.append(f"outcome digest of seed {exp_seed} depends on "
                            f"the process: {detail}")
    return failures


def e2e_run(workload: str, seed: int, seconds: float):
    deadline = time.perf_counter() + seconds
    runs = []
    while len(runs) < MIN_WORKERS or time.perf_counter() < deadline:
        # Experiments 0 and 1 are one seed under two hash seeds.
        exp_index = max(0, len(runs) - 1)
        runs.append(spawn(workload, experiment_seed(seed, exp_index),
                          hash_seed(seed, len(runs))))
    sim_set = [runs[0]] + runs[2:MIN_WORKERS]
    submitted = sum(run["submitted"] for run in runs)
    failed = sum(run["submitted"] - run["committed"] for run in runs)
    metrics = {
        "txns_per_s": statistics.median(
            run["committed"] / run["unit_s"] for run in runs),
        "setup_s": statistics.median(
            run["first_run"] - run["spawned"] for run in runs),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "failed_share": failed / submitted,
    }
    for name in ("update_latency_p95_sim", "read_staleness_p95_sim",
                 "update_local_p95_sim"):
        metrics[name] = statistics.fmean(run["sim"][name] for run in sim_set)
    extra = {"experiments": len(runs)}
    return runs, metrics, extra, submitted, failed


def traced_run(workload: str, seed: int, spans_path: str):
    exp_seed = experiment_seed(seed, 0)
    plain = spawn(workload, exp_seed, hash_seed(seed, 0), pure=True)
    traced = spawn(workload, exp_seed, hash_seed(seed, 1), mode="traced",
                   pure=True, spans=spans_path)
    profiled = spawn(workload, exp_seed, hash_seed(seed, 2), mode="profile",
                     pure=True)
    runs = [plain, traced, profiled]

    counts, spans = traced["counts"], traced["spans"]
    txns = max(1, traced["committed"])
    waves = max(1, counts["waves"])
    recorded_waves = max(1, counts["recorded_waves"])
    lock_attempts = counts["lock_grants"] + counts["lock_aborts"]
    metrics = {}
    wall = traced["unit_s"]
    profile_wall = sum(profiled["ledger"].values())
    for layer in LAYERS + (UNATTRIBUTED,):
        metrics[f"{layer}.self_s"] = traced["ledger"][layer]
        metrics[f"{layer}.share"] = traced["ledger"][layer] / wall
        metrics[f"{layer}.profile_share"] = (
            profiled["ledger"][layer] / profile_wall)
    metrics.update({
        "sim.events_per_txn": counts["events"] / txns,
        "sim.processes_per_txn": spans["processes"] / txns,
        "runtime.subtxns_per_txn": spans["subtxns"] / txns,
        "runtime.executor_wait_sim": counts["executor_wait"] / txns,
        "core.waves": counts["waves"],
        "core.wave_sim_median": counts["wave_sim_median"],
        "core.polls_per_wave": counts["counter_polls"] / recorded_waves,
        "net.user_msgs_per_txn": counts["user_msgs"] / txns,
        "net.control_msgs_per_wave": counts["control_msgs"] / waves,
        "net.retransmits": counts["retransmits"],
        "storage.counter_incs_per_txn": spans["counter_incs"] / txns,
        "storage.max_versions_per_item": counts["max_versions_per_item"],
        # No lock requests wasted nothing: the ratio is 1 without locks.
        "storage.lock_grant_ratio": (counts["lock_grants"] / lock_attempts
                                     if lock_attempts else 1.0),
        "storage.lock_retries_per_txn": counts["lock_aborts"] / txns,
        "txn.validate_us": (1e6 * spans["validate_s"]
                            / max(1, spans["validate_calls"])),
        "txn.validate_calls": spans["validate_calls"],
        "placement.writes_skipped": counts["writes_skipped"],
        "placement.reads_gated": counts["reads_gated"],
        "placement.refreshes": counts["refreshes"],
        "analysis.reads_checked": counts["reads_checked"],
        "setup.import_s": plain["import_s"],
        "setup.build_s": plain["build_s"],
        "setup.arrivals_s": plain["arrivals_s"],
        "mem.run_growth_mb": plain["run_growth_mb"],
        "trace.overhead": wall / plain["unit_s"],
    })
    extra = {"spans": spans["count"], "spans_file": spans_path}
    return runs, metrics, extra, plain["submitted"], (
        plain["submitted"] - plain["committed"])


def print_e2e(metrics, extra):
    print(f"{'metric':<26}{'value':>16}  {'unit':<7}better")
    for name, (unit, better, meaning) in E2E.items():
        print(f"{name:<26}{metrics[name]:>16.6g}  {unit:<7}{better:<7}"
              f"  {meaning}")
    print(f"{'update_local_p95_sim':<26}"
          f"{metrics['update_local_p95_sim']:>16.6g}  sim_s  lower    p95 "
          f"root-local commit latency (Theorem 4.2: never waits remotely)")
    print(f"experiments: {extra['experiments']} (host metrics: medians over "
          f"all; _sim metrics: means over the first {SIM_EXPERIMENTS} seeds)")


def print_layers(metrics, extra):
    print(f"{'layer':<14}{'self_s':>10}{'share':>9}{'profile':>9}{'gap':>8}")
    for layer in LAYERS + (UNATTRIBUTED,):
        share = metrics[f"{layer}.share"]
        profile = metrics[f"{layer}.profile_share"]
        print(f"{layer:<14}{metrics[f'{layer}.self_s']:>10.4f}"
              f"{share:>9.3f}{profile:>9.3f}{share - profile:>+8.3f}")
    units = per_layer_units()
    for name, unit in units.items():
        if name.rsplit(".", 1)[1] in ("self_s", "share", "profile_share"):
            continue
        print(f"{name:<30}{metrics[name]:>16.6g}  {unit}")
    print(f"traced run forces the pure build (REPRO_ACCEL=0): compiled "
          f"kernel types cannot be wrapped; {extra['spans']} spans written "
          f"to {os.path.relpath(extra['spans_file'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # Bytecode is compiled once per checkout, not on every set-up.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    os.makedirs(OUT_DIR, exist_ok=True)

    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    try:
        if args.trace:
            spans = os.path.join(OUT_DIR, f"{args.workload}.spans.npz")
            runs, metrics, extra, attempted, failed = traced_run(
                args.workload, args.seed, spans)
        else:
            runs, metrics, extra, attempted, failed = e2e_run(
                args.workload, args.seed, args.seconds)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    build = runs[0]["build"]
    print(f"build: {build['mode']} (backend {build['backend']}, "
          f"python {build['python']})")
    if args.trace:
        print_layers(metrics, extra)
        units = per_layer_units()
    else:
        print_e2e(metrics, extra)
        units = {name: unit for name, (unit, _b, _m) in E2E.items()
                 if name not in E2E_PRINTED_ONLY}
    failures = check_failures(runs)
    for line in failures:
        print(f"CHECK FAILED: {line}")
    if not failures:
        print(f"checks passed on {len(runs)} experiments: clean audit, "
              f"3V invariants, no remote wait for updates, accounting, "
              f"equal digests across hash seeds")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "build": build, "correct": not failures, "failures": failures,
        "metrics": metrics, "units": units, "extra": extra, "runs": runs,
    }
    result_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
