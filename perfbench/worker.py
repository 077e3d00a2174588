"""One audited experiment in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py --workload recording --seed 13 --mode plain

The unit of work is an audited experiment: simulate, drain, audit (the
post-hoc audit for a materialized history, the inline rolling auditor for a
streaming one) and summarize.  ``--mode plain`` runs it untraced,
``traced`` under the span tracer and ``profile`` under cProfile.  The last
line of standard output is one JSON object with the timings, the
post-run counts, the correctness checks and the build stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: Spans of these entry points carry the transaction they serve.
TXN_OF = {
    "repro.runtime.node.ProtocolNode.run_subtxn":
        lambda node, instance: instance.txn.name,
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PhaseProbe:
    """Timestamps the set-up phases by wrapping three runner entry points.

    The first call to ``drive``/``drive_streaming`` ends the build phase;
    the first ``System.run`` ends set-up and starts the unit of work (and
    cProfile, when one is given).
    """

    def __init__(self, profiler=None):
        from repro.runtime.system import System
        from repro.workloads import runner

        self.profiler = profiler
        self.first_drive = None
        self.first_run = None
        self.rss_at_run = None
        self._restore = []
        for name in ("drive", "drive_streaming"):
            self._wrap(runner, name, self._on_drive)
        self._wrap(System, "run", self._on_run)

    def _wrap(self, owner, name, hook):
        original = vars(owner)[name]

        def probed(*args, **kwargs):
            hook()
            return original(*args, **kwargs)

        setattr(owner, name, probed)
        self._restore.append((owner, name, original))

    def _on_drive(self):
        if self.first_drive is None:
            self.first_drive = time.perf_counter()

    def _on_run(self):
        if self.first_run is None:
            self.first_run = time.perf_counter()
            self.rss_at_run = _rss_mb()
            if self.profiler is not None:
                self.profiler.enable()

    def close(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)


def import_layer_modules():
    """Import every module of every layer package (the tracer wraps them)."""
    import importlib
    import pkgutil

    from tracer import LAYERS

    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules.append(package)
        for info in pkgutil.walk_packages(package.__path__,
                                          prefix=f"repro.{layer}."):
            modules.append(importlib.import_module(info.name))
    return modules


def profile_ledger(profiler):
    """cProfile ``tottime`` per layer; a builtin's time goes to its caller."""
    import pstats

    from tracer import LAYERS, UNATTRIBUTED

    def layer_of_file(path):
        parts = path.replace("\\", "/").split("/src/repro/")
        if len(parts) == 2 and "/" in parts[1]:
            layer = parts[1].split("/")[0]
            if layer in LAYERS:
                return layer
        return UNATTRIBUTED

    ledger = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
    stats = pstats.Stats(profiler).stats
    for (path, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        if path != "~":
            ledger[layer_of_file(path)] += tottime
            continue
        for (caller_path, _l, _n), caller_stats in callers.items():
            ledger[layer_of_file(caller_path)] += caller_stats[2]
    return ledger


def checks(result, report, submitted, committed, aborted):
    """The correctness checks of one experiment: name -> failure or None."""
    from repro.analysis import max_remote_wait
    from repro.core.invariants import check_all
    from repro.errors import InvariantViolation

    found = {}
    found["audit_clean"] = None if report.clean else (
        f"{report.fractured_reads} fractured reads, "
        f"{report.snapshot_mismatches} snapshot mismatches")
    try:
        check_all(result.system)
        found["invariants"] = None
    except InvariantViolation as violation:
        found["invariants"] = str(violation)
    remote = max_remote_wait(result.history, kind="update")
    found["no_remote_wait"] = None if remote == 0 else (
        f"an update waited {remote!r} on remote activity")
    begun = result.history.total_txns
    found["accounting"] = None if committed + aborted <= begun <= submitted \
        else (f"committed {committed} + aborted {aborted} vs begun {begun} "
              f"vs submitted {submitted}")
    return found


def counts(result, report):
    """Post-run counts read from the program's public state."""
    from repro.analysis import wait_summary
    from repro.txn.history import WaitReason

    system = result.system
    history = result.history
    stats = system.network.stats
    waves = [a.gc_done - a.started for a in history.advancements
             if a.gc_done is not None]
    nodes = list(system.nodes.values())
    placement = getattr(system, "placement", None)
    counters = placement.counters() if placement is not None else {}
    return {
        "events": system.sim.scheduled_count,
        "user_msgs": stats.user_messages,
        "control_msgs": stats.control_messages,
        "retransmits": stats.retransmits,
        "waves": system.coordinator.completed_runs,
        "wave_sim_median": statistics.median(waves) if waves else 0.0,
        "counter_polls": sum(a.counter_polls for a in history.advancements),
        "recorded_waves": len(history.advancements),
        "max_versions_per_item": max(n.store.max_live_versions for n in nodes),
        "lock_grants": sum(n.locks.immediate_grants + n.locks.waits
                           for n in nodes),
        "lock_aborts": sum(n.locks.deadlock_aborts for n in nodes),
        "executor_wait": wait_summary(history).get(WaitReason.EXECUTOR, 0.0),
        "writes_skipped": counters.get("writes_skipped", 0),
        "reads_gated": counters.get("reads_gated", 0),
        "refreshes": counters.get("refreshes_completed", 0),
        "reads_checked": report.reads_checked,
    }


def digest(summary, fields) -> str:
    """Outcome digest: the program's determinism digest plus our metrics."""
    payload = [summary.determinism_digest(), summary.messages_total,
               summary.advancement_runs] + [fields[k] for k in sorted(fields)]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "profile"),
                        default="plain")
    parser.add_argument("--spans", help="write the spans to this .npz file")
    args = parser.parse_args(argv)

    t_begin = time.perf_counter()
    import repro
    from repro.analysis import latency_summary, staleness_summary
    from repro.exp.summary import audit_result, summarize
    from repro.workloads import run_recording_experiment

    from workloads import WORKLOADS, make_spec, run_kwargs
    t_import = time.perf_counter()

    tracer = profiler = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer(txn_of=TXN_OF)
        tracer.install(import_layer_modules())
    elif args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    probe = PhaseProbe(profiler)

    workload = WORKLOADS[args.workload]
    spec = make_spec(workload, args.seed)
    result = run_recording_experiment(spec.protocol,
                                      **run_kwargs(workload, spec))
    report = audit_result(result, check_snapshots=True)
    summary = summarize(spec, result, report)
    t_end = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    probe.close()
    peak_rss = _rss_mb()
    if tracer is not None:
        tracer.uninstall()

    history = result.history
    committed = history.count()
    aborted = history.aborted_count()
    sim_metrics = {
        "update_latency_p95_sim":
            latency_summary(history, kind="update", which="global").p95,
        "update_local_p95_sim": latency_summary(history, kind="update").p95,
        "read_staleness_p95_sim": staleness_summary(history).p95,
    }
    post = counts(result, report)
    out = {
        "build": {"mode": repro.build_mode(),
                  "backend": repro.accel_backend() or "none",
                  "python": sys.version.split()[0]},
        "import_s": t_import - t_begin,
        "build_s": probe.first_drive - t_import,
        "arrivals_s": probe.first_run - probe.first_drive,
        "first_run": probe.first_run,
        "unit_s": t_end - probe.first_run,
        "peak_rss_mb": peak_rss,
        "run_growth_mb": peak_rss - probe.rss_at_run,
        "submitted": result.submitted,
        "committed": committed,
        "aborted": aborted,
        "sim": sim_metrics,
        "counts": post,
        "checks": checks(result, report, result.submitted, committed,
                         aborted),
        "digest": digest(summary, dict(sim_metrics, **post)),
    }
    if tracer is not None:
        window = (probe.first_run, t_end)
        out["ledger"] = tracer.ledger(*window)
        validate = tracer.durations("repro.txn.spec.TransactionSpec.validate")
        out["spans"] = {
            "count": len(tracer.start),
            "processes": len(tracer.durations(
                "repro.sim.simulator.Simulator.process", *window)),
            "subtxns": tracer.created[
                "repro.runtime.node.ProtocolNode.run_subtxn"],
            "counter_incs": sum(len(tracer.durations(
                f"repro.storage.counters.CounterTable.{name}", *window))
                for name in ("inc_request", "inc_completion")),
            "validate_calls": len(validate),
            "validate_s": float(validate.sum()),
        }
        if args.spans:
            tracer.write(args.spans)
    if profiler is not None:
        out["ledger"] = profile_ledger(profiler)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
