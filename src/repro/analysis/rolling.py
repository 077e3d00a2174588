"""Rolling serializability spot-check for streaming histories.

The full oracles in :mod:`repro.analysis.serializability` replay a
materialized history at the end of a run; a streaming run has no
materialized history to replay.  :class:`RollingAuditor` performs the
same two checks *as transactions retire*, holding only a sliding window
of state:

* **Fractured reads** are checked immediately at retirement: a read
  transaction's per-node events are all present on its own record, so
  "same key, different values" needs nothing but the retiring record.
* **Snapshot mismatches** (the Theorem 4.1 bitmask oracle) need the set
  of committed recording transactions with version ``<= V(read)``.  A
  read can retire *before* some update it legitimately observed (update
  trees complete globally later than the read that saw their local
  commits), so retired reads are parked in a pending window and checked
  once their version is **settled**: the version has closed (phase 1 of
  the next advancement finished, so no new update can ever get that
  version) and no in-flight update transaction carries a version ``<=``
  the read's.  At that point the mask accumulated from retired committed
  updates is provably the full committed mask, and the check is exact —
  identical, count for count, to the post-hoc oracle.

Memory is O(entities × versions + pending reads); the pending window is
bounded by the read rate times one or two advancement periods, never by
total transaction count.  ``report()`` drains whatever is still pending
(at end of run every transaction has retired, so the drain is exact) and
returns a standard :class:`~repro.analysis.anomalies.AnomalyReport`.
"""

from __future__ import annotations

import collections
import typing

from repro.analysis.anomalies import AnomalyReport
from repro.analysis.serializability import (
    MaskIndex,
    Violation,
    corrected_entities,
    fold_committed,
    fractured_read,
    snapshot_mismatches,
)
from repro.txn.history import ReadEvent, StreamingHistory, TxnKind, TxnRecord

#: Evidence cap: counts are exact, but only this many Violation records
#: are retained as examples (the streaming mode must not grow a list
#: proportional to a pathological run's violation count).
MAX_EVIDENCE = 100


class RollingAuditor:
    """Streaming counterpart of :func:`repro.analysis.audit`.

    Attach via ``history.add_retire_sink(auditor.on_retire)``; call
    :meth:`report` after the run has drained.

    Args:
        history: The :class:`StreamingHistory` being audited (used for
            advancement closure and in-flight version tracking).
        workload: The :class:`~repro.workloads.recording.RecordingWorkload`
            that generated the traffic; its ``update_amounts`` entries are
            *consumed* as updates retire (so the bookkeeping dict stays
            bounded) and its ``correction_entities`` marks entities the
            bitmask oracle must skip.
        check_snapshots: Run the strict bitmask oracle (requires the
            workload's ``"bitmask"`` amount mode).
        window: Maximum parked reads awaiting a settled version; beyond
            it the oldest are dropped *unchecked* and counted in
            ``reads_skipped`` (never silently passed).
    """

    def __init__(self, history: StreamingHistory, workload,
                 check_snapshots: bool = False, window: int = 65536):
        self.history = history
        self.workload = workload
        self.check_snapshots = check_snapshots
        self.window = window
        self.reads_checked = 0
        self.fractured_reads = 0
        self.snapshot_mismatches = 0
        self.reads_skipped = 0
        self.violations: typing.Deque[Violation] = collections.deque(
            maxlen=MAX_EVIDENCE
        )
        #: entity -> version -> OR of committed recording amounts.
        self._masks: MaskIndex = {}
        #: Parked committed reads: (record, {key: [bal events]}).
        self._pending: typing.Deque[typing.Tuple[
            TxnRecord, typing.Dict[typing.Hashable,
                                   typing.List[ReadEvent]]]] = (
            collections.deque()
        )
        #: Incremental closure map (mirrors closed_at_from_history).
        self._closed: typing.Dict[int, float] = {0: 0.0}
        self._adv_scan = 0

    # ------------------------------------------------------------------
    # Retirement sink
    # ------------------------------------------------------------------

    def on_retire(self, record: TxnRecord,
                  events: typing.Sequence[ReadEvent]) -> None:
        amounts = getattr(self.workload, "update_amounts", None)
        if amounts is not None and record.name in amounts:
            entity, amount = amounts.pop(record.name)
            if not record.aborted:
                fold_committed(self._masks, entity, record.version, amount)
            self._drain()
            return
        if record.aborted or record.kind != TxnKind.READ or not events:
            return
        by_key: typing.Dict[typing.Hashable,
                            typing.List[ReadEvent]] = {}
        for event in events:
            by_key.setdefault(event.key, []).append(event)
        self.reads_checked += len(by_key)
        for key, key_events in by_key.items():
            violation = fractured_read(record.name, key, key_events)
            if violation is not None:
                self.fractured_reads += 1
                self.violations.append(violation)
        if not self.check_snapshots:
            return
        bal_events = {
            key: key_events for key, key_events in by_key.items()
            if str(key).startswith("bal:")
        }
        if bal_events:
            self._pending.append((record, bal_events))
            while len(self._pending) > self.window:
                self._pending.popleft()
                self.reads_skipped += 1
            self._drain()

    # ------------------------------------------------------------------
    # Deferred snapshot checking
    # ------------------------------------------------------------------

    def _advance_closed(self) -> None:
        advancements = self.history.advancements
        index = self._adv_scan
        while (index < len(advancements)
               and advancements[index].phase1_done is not None):
            record = advancements[index]
            self._closed[record.new_update_version - 1] = record.phase1_done
            index += 1
        self._adv_scan = index

    def _settled(self, version: typing.Optional[int]) -> bool:
        """No present or future update transaction can carry ``<= version``."""
        if version is None:
            return False  # unversioned reads settle only at report() time
        if version not in self._closed:
            return False
        for record in self.history.txns.values():
            if (record.kind != TxnKind.READ and record.version is not None
                    and record.version <= version):
                return False
        return True

    def _drain(self, force: bool = False) -> None:
        self._advance_closed()
        while self._pending:
            record, bal_events = self._pending[0]
            if not force and not self._settled(record.version):
                return
            self._pending.popleft()
            self._check_snapshot(record, bal_events)

    def _check_snapshot(self, record: TxnRecord, bal_events: typing.Dict[
            typing.Hashable, typing.List[ReadEvent]]) -> None:
        for violation in snapshot_mismatches(
                record.name, record.version, bal_events, self._masks,
                corrected_entities(self.workload)):
            self.snapshot_mismatches += 1
            self.violations.append(violation)

    # ------------------------------------------------------------------
    # Final report
    # ------------------------------------------------------------------

    def report(self) -> AnomalyReport:
        """Drain the pending window (exact once the run has retired
        everything) and score the run."""
        self._drain(force=True)
        return AnomalyReport(
            reads_checked=self.reads_checked,
            fractured_reads=self.fractured_reads,
            snapshot_mismatches=self.snapshot_mismatches,
            aborted_txns=self.history.aborted_count(),
            compensated_txns=self.history.compensated_count(),
            violations=list(self.violations),
        )
