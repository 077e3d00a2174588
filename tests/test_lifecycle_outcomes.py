"""Golden outcomes of every subtransaction-lifecycle path.

Each configuration drives one lifecycle path through the node runtime:
the common 3V path (with scripted aborts and compensation), NC3V's
two-phase takeover with commute locks, the 2PC baseline, the
uncoordinated and manual-versioning baselines (manual-sync adds the
admission gate), a replicated 3V run whose node crash exercises the
placement read gate and skipped writes, and one seeded chaos storm.

The pinned values are simulation outcomes: every ``ExperimentSummary``
field except the scheduled-event count (an implementation property of
the kernel, not an outcome), wall-clock, memory and build stamp, plus the
global update-latency and read-staleness p95s and the total time spent
waiting per reason (executor, locks, admission).  Floats are compared
exactly: a change to how the runtime schedules its own bookkeeping must
not move a single protocol action in simulated time.

Regenerate (only for a deliberate change of protocol behaviour)::

    PYTHONPATH=src python tests/test_lifecycle_outcomes.py --write
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import latency_summary, staleness_summary, wait_summary
from repro.exp.chaos import chaos_spec
from repro.exp.spec import ExperimentSpec
from repro.exp.summary import audit_result, summarize
from repro.workloads import run_recording_experiment

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "lifecycle_outcomes.json")

#: Summary fields that are not simulation outcomes.
UNPINNED = ("sim_events", "wall_seconds", "peak_tracemalloc_bytes",
            "build_mode")

_SMALL = dict(nodes=4, duration=30.0, seed=5, advancement_period=2.0)

CONFIGS = {
    "3v": ExperimentSpec(protocol="3v", abort_fraction=0.2, **_SMALL),
    "3v-corrections": ExperimentSpec(
        protocol="3v", nodes=6, duration=20.0, span=3, entities=20,
        update_rate=16.0, inquiry_rate=8.0, correction_rate=0.5,
        advancement_period=2.0, seed=3),
    "2pc": ExperimentSpec(protocol="2pc", **_SMALL),
    "nocoord": ExperimentSpec(protocol="nocoord", **_SMALL),
    "manual": ExperimentSpec(protocol="manual", **_SMALL),
    "manual-sync": ExperimentSpec(protocol="manual-sync", **_SMALL),
    "3v-rf2-crash": ExperimentSpec(
        protocol="3v", replication_factor=2, crash_count=1, fault_seed=4,
        **_SMALL),
    "chaos-3v": chaos_spec("3v", fault_seed=7),
}


def outcome(name: str) -> dict:
    """The pinned outcome of one configuration."""
    spec = CONFIGS[name]
    result = run_recording_experiment(spec.protocol, **spec.run_kwargs())
    check_snapshots = spec.protocol == "3v"
    report = audit_result(result, check_snapshots=check_snapshots)
    pinned = summarize(spec, result, report).to_dict()
    for field in UNPINNED:
        pinned.pop(field)
    history = result.history
    pinned["update_global_p95"] = latency_summary(
        history, kind="update", which="global").p95
    pinned["staleness_p95"] = staleness_summary(history).p95
    for reason, waited in wait_summary(history).items():
        pinned[f"waited_{reason}"] = waited
    return pinned


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outcome_matches_golden(name):
    assert outcome(name) == _golden()[name]


def test_configs_cover_the_gated_paths():
    golden = _golden()
    assert golden["3v"]["compensated"] > 0
    assert golden["3v-corrections"]["committed_noncommuting"] > 0
    assert golden["manual-sync"]["waited_advancement"] > 0
    assert golden["3v-corrections"]["waited_lock"] > 0
    assert golden["3v-rf2-crash"]["reads_gated"] > 0
    assert golden["3v-rf2-crash"]["writes_skipped"] > 0
    assert golden["chaos-3v"]["messages_dropped"] > 0
    assert all(outcome["audit_clean"] for name, outcome in golden.items()
               if name in ("3v", "3v-corrections", "3v-rf2-crash",
                           "chaos-3v"))


def test_nc3v_digest_independent_of_hash_seed():
    """Commute-lock release fans out over a set of nodes; each send draws a
    latency sample, so an unsorted walk would tie the run to the
    interpreter's hash seed."""
    code = (
        "from repro.exp.summary import run_spec\n"
        "from test_lifecycle_outcomes import CONFIGS\n"
        "print(run_spec(CONFIGS['3v-corrections']).determinism_digest())\n"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=(
            os.path.join(os.path.dirname(HERE), "src") + os.pathsep + HERE))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as handle:
        json.dump({name: outcome(name) for name in sorted(CONFIGS)}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
