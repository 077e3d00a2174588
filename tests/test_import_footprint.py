"""``import repro`` and an audited run load no numeric stack.

scipy, numpy and networkx serve only ``mean_ci``/``welch_p_value`` and
the conflict-graph oracle, which import them at the call.  Every fresh
interpreter that runs an experiment (a CLI call, a fleet worker, a
benchmark worker) would otherwise spend over a second and ~90 MB loading
them before simulating anything.  The check runs in a fresh interpreter
because the test process itself may already hold any of them.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(HERE), "src")

NUMERIC_STACK = ("scipy", "numpy", "networkx")

SCRIPT = f"""
import json
import sys

import repro
import repro.cli
import repro.exp.fleet
from repro.exp.spec import ExperimentSpec
from repro.exp.summary import audit_result, summarize
from repro.workloads import run_recording_experiment

def loaded():
    return sorted(name for name in {NUMERIC_STACK!r} if name in sys.modules)

spec = ExperimentSpec(protocol="3v", nodes=4, entities=20, duration=15.0,
                      seed=3)
result = run_recording_experiment(spec.protocol, **spec.run_kwargs())
report = audit_result(result, check_snapshots=True)
summary = summarize(spec, result, report)
after_run = loaded()

from repro.analysis import is_conflict_serializable, mean_ci
from repro.storage import Increment
from repro.txn import History, TxnKind, WriteEvent

history = History()
for time, txn in ((1.0, "t1"), (2.0, "t2")):
    history.begin_txn(txn, TxnKind.UPDATE, 0, 0.0, "a")
    history.globally_completed(txn, 99.0)
    history.wrote(WriteEvent(time, txn, txn, "a", "x", 0, 1, Increment(1)))
ci = mean_ci([1.0, 2.0, 3.0])
print(json.dumps({{
    "after_run": after_run,
    "committed": summary.committed_updates,
    "audit_clean": report.clean,
    "ci": [ci.mean, ci.low, ci.high],
    "serializable": is_conflict_serializable(history),
    "after_calls": loaded(),
}}))
"""


@pytest.fixture(scope="module")
def footprint():
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_audited_run_loads_no_numeric_stack(footprint):
    assert footprint["committed"] > 0
    assert footprint["audit_clean"]
    assert footprint["after_run"] == []


def test_deferred_functions_still_work(footprint):
    mean, low, high = footprint["ci"]
    assert mean == 2.0
    assert low < mean < high
    assert footprint["serializable"] is True
    assert {"scipy", "networkx"} <= set(footprint["after_calls"])
