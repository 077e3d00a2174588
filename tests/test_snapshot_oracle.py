"""Differential test of the indexed Theorem 4.1 oracle.

:func:`repro.analysis.snapshot_violations` indexes the committed updates
once (entity -> version -> mask).  The reference below is the per-read
scan it replaced: for every (read, key) it recomputes the expected mask
with :meth:`RecordingWorkload.committed_mask`.  On a clean run and on
histories with injected missing, extra and partial updates, or with
updates relabelled to another version or aborted after the fact, both
must flag exactly the same violations in the same order.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest

from repro.analysis import (
    atomic_visibility_violations,
    audit,
    snapshot_violations,
)
from repro.analysis.serializability import (
    Violation,
    corrected_entities,
    reads_by_txn_and_key,
)
from repro.exp.spec import ExperimentSpec
from repro.txn.history import TxnKind
from repro.workloads import run_recording_experiment

SPEC = ExperimentSpec(protocol="3v", nodes=4, duration=30.0, seed=11,
                      advancement_period=2.0, abort_fraction=0.2,
                      inquiry_rate=6.0)


def scan_violations(history, workload):
    """Reference oracle: a fresh scan of every update per (read, key)."""
    corrected = corrected_entities(workload)
    violations = []
    for txn, by_key in reads_by_txn_and_key(history).items():
        version = history.txns[txn].version
        for key, events in by_key.items():
            if not str(key).startswith("bal:"):
                continue
            entity = int(str(key).split(":", 1)[1].split("#", 1)[0])
            if entity in corrected:
                continue
            expected = workload.committed_mask(history, entity,
                                               max_version=version)
            for event in events:
                observed = event.value if event.value is not None else 0
                if observed != expected:
                    violations.append(Violation(
                        kind="snapshot-mismatch", txn=txn, key=key,
                        details=(f"node {event.node}: version {version}, "
                                 f"missing mask {expected & ~observed:#x}, "
                                 f"extra mask {observed & ~expected:#x}"),
                    ))
    return violations


@pytest.fixture(scope="module")
def clean_run():
    result = run_recording_experiment(SPEC.protocol, **SPEC.run_kwargs())
    return result.history, result.workload


def _balance_reads(history):
    return [index for index, event in enumerate(history.read_events)
            if str(event.key).startswith("bal:")
            and history.txns[event.txn].kind == TxnKind.READ
            and not history.txns[event.txn].aborted]


def _set_value(history, index, value):
    history.read_events[index] = dataclasses.replace(
        history.read_events[index], value=value)


def inject(history, workload, mode: str, seed: int) -> None:
    """Corrupt a copy of a clean history in one of five ways."""
    rng = random.Random(seed)
    reads = _balance_reads(history)
    if mode == "missing":
        reads = [index for index in reads if history.read_events[index].value]
    updates = sorted(workload.update_amounts)
    for _ in range(8):
        index = rng.choice(reads)
        event = history.read_events[index]
        value = event.value or 0
        if mode == "missing":
            bits = [bit for bit in range(value.bit_length())
                    if value >> bit & 1]
            _set_value(history, index, value & ~(1 << rng.choice(bits)))
        elif mode in ("extra", "partial"):
            _entity, amount = workload.update_amounts[rng.choice(updates)]
            if mode == "extra":
                # Every copy of the read sees the extra update.
                for other, each in enumerate(history.read_events):
                    if each.txn == event.txn and each.key == event.key:
                        _set_value(history, other, (each.value or 0) | amount)
            else:
                _set_value(history, index, value | amount)
        elif mode == "relabel":
            record = history.txns.get(rng.choice(updates))
            if record is not None and record.version is not None:
                record.version += rng.choice((-1, 1))
        elif mode == "abort":
            record = history.txns.get(rng.choice(updates))
            if record is not None:
                record.aborted = not record.aborted


def test_clean_run_agrees(clean_run):
    history, workload = clean_run
    assert _balance_reads(history)
    assert snapshot_violations(history, workload) == []
    assert scan_violations(history, workload) == []


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode",
                         ["missing", "extra", "partial", "relabel", "abort"])
def test_injected_faults_flag_identically(clean_run, mode, seed):
    history, workload = copy.deepcopy(clean_run)
    inject(history, workload, mode, seed)
    indexed = snapshot_violations(history, workload)
    assert indexed == scan_violations(history, workload)
    if mode in ("missing", "extra", "partial"):
        assert indexed
    report = audit(history, workload, check_snapshots=True)
    assert report.violations == (
        atomic_visibility_violations(history) + indexed)
