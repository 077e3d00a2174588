"""Serializability and atomic-visibility oracles.

The correctness criterion is global serializability (Section 3.3); for the
3V protocol specifically, Theorem 4.1 says every schedule is equivalent to
the serial order *sorted by version number, updates before reads within a
version*.  Two executable checks cover this:

* :func:`atomic_visibility_violations` — for every committed read
  transaction, each data item read on several nodes must reflect the same
  set of update transactions.  Recording transactions write the *same
  amount* to every node an entity spans, so any divergence between the
  per-node values a single read observed is a fractured read.  Works on
  any workload built by :class:`~repro.workloads.recording.RecordingWorkload`.
* :func:`snapshot_violations` — the strict Theorem 4.1 check, requiring
  the workload's ``"bitmask"`` amount mode: every read with version ``v``
  must see **exactly** the committed recording transactions with version
  ``<= v`` — no partial transactions, nothing newer, nothing missing.

Both return structured :class:`Violation` records so tests can assert on
counts and benchmarks can tabulate anomaly rates.  The per-read checks
(:func:`fractured_read`, :func:`snapshot_mismatches`) and the committed
mask index (:func:`fold_committed`, :func:`expected_mask`) are shared with
the streaming :class:`~repro.analysis.rolling.RollingAuditor`, so the
post-hoc and rolling audits are one implementation fed two ways.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.txn.history import History, TxnKind


@dataclasses.dataclass(frozen=True)
class Violation:
    """One detected correctness violation."""

    kind: str  # "fractured-read" | "snapshot-mismatch"
    txn: str
    key: typing.Hashable
    details: str


#: Tolerance for comparing float balances across nodes.  Money-mode
#: amounts commute *semantically* but float addition is not associative:
#: the same increments applied in different per-node arrival orders can
#: differ in the last few ULPs.  A real fractured read is off by at
#: least one whole update amount (cents), ~10^7 times this tolerance,
#: so drift never masks a genuine violation.  Bitmask-mode values are
#: ints and always compared exactly.
FLOAT_DRIFT_TOLERANCE = 1e-9


def effectively_distinct(values: typing.Iterable) -> set:
    """The distinct values, treating ULP-drifted floats as equal.

    Non-float values (bitmask ints, ``None``) keep exact set semantics;
    floats are clustered with a relative-and-absolute tolerance of
    :data:`FLOAT_DRIFT_TOLERANCE`.
    """
    exact = set(values)
    floats = sorted(v for v in exact if isinstance(v, float))
    if len(floats) <= 1:
        return exact
    clusters = [floats[0]]
    for value in floats[1:]:
        if not math.isclose(value, clusters[-1],
                            rel_tol=FLOAT_DRIFT_TOLERANCE,
                            abs_tol=FLOAT_DRIFT_TOLERANCE):
            clusters.append(value)
    return {v for v in exact if not isinstance(v, float)} | set(clusters)


#: A read transaction's detailed read events, grouped by key.
ReadsByKey = typing.Dict[typing.Hashable, typing.List]
#: The Theorem 4.1 oracle's index: entity -> version -> OR of the amounts
#: of that entity's committed recording transactions of that version.
MaskIndex = typing.Dict[int, typing.Dict[typing.Optional[int], int]]


def reads_by_txn_and_key(history: History) -> typing.Dict[str, ReadsByKey]:
    """Group the read events of committed read transactions:
    txn -> key -> [events]."""
    grouped: typing.Dict[str, ReadsByKey] = {}
    for event in history.read_events:
        record = history.txns.get(event.txn)
        if record is None or record.aborted or record.kind != TxnKind.READ:
            continue
        grouped.setdefault(event.txn, {}).setdefault(event.key, []).append(event)
    return grouped


def fractured_read(txn: str, key: typing.Hashable,
                   events: typing.Sequence) -> typing.Optional[Violation]:
    """The violation if one read transaction saw different values of
    ``key`` on different nodes, else ``None``."""
    values = {(event.node, event.value) for event in events}
    if len(effectively_distinct(value for _node, value in values)) <= 1:
        return None
    return Violation(kind="fractured-read", txn=txn, key=key,
                     details=f"per-node values {sorted(values)!r}")


def fold_committed(masks: MaskIndex, entity: int,
                   version: typing.Optional[int], amount: int) -> None:
    """Add one committed recording transaction to a mask index."""
    by_version = masks.setdefault(entity, {})
    by_version[version] = by_version.get(version, 0) | amount


def committed_masks(history: History, workload) -> MaskIndex:
    """Index every committed recording transaction in one pass."""
    masks: MaskIndex = {}
    txns = history.txns
    for name, (entity, amount) in workload.update_amounts.items():
        record = txns.get(name)
        if record is not None and not record.aborted:
            fold_committed(masks, entity, record.version, amount)
    return masks


def expected_mask(masks: MaskIndex, entity: int,
                  max_version: typing.Optional[int]) -> int:
    """OR of the committed amounts on ``entity`` with version
    ``<= max_version`` (every version when ``max_version`` is ``None``)."""
    mask = 0
    for version, bits in masks.get(entity, {}).items():
        if max_version is not None and (
            version is None or version > max_version
        ):
            continue
        mask |= bits
    return mask


def snapshot_mismatches(txn: str, version: typing.Optional[int],
                        by_key: ReadsByKey, masks: MaskIndex,
                        corrected: typing.AbstractSet[int]
                        ) -> typing.Iterator[Violation]:
    """Theorem 4.1 for one read transaction: each balance it read must be
    exactly the committed mask of versions ``<= version``."""
    for key, events in by_key.items():
        if not str(key).startswith("bal:"):
            continue
        # Replicated keys are slot-qualified ("bal:38#0"); the slot
        # never changes which entity's committed mask applies.
        entity = int(str(key).split(":", 1)[1].split("#", 1)[0])
        if entity in corrected:
            continue
        expected = expected_mask(masks, entity, version)
        for event in events:
            observed = event.value if event.value is not None else 0
            if observed != expected:
                missing = expected & ~observed
                extra = observed & ~expected
                yield Violation(
                    kind="snapshot-mismatch",
                    txn=txn,
                    key=key,
                    details=(
                        f"node {event.node}: version {version}, "
                        f"missing mask {missing:#x}, "
                        f"extra mask {extra:#x}"
                    ),
                )


def corrected_entities(workload) -> typing.FrozenSet[int]:
    """Entities a non-commuting correction overwrote wholesale (possibly
    with a non-integer): their balances no longer decompose as bitmasks,
    so the snapshot oracle conservatively skips them."""
    return frozenset(getattr(workload, "correction_entities", {}).values())


def atomic_visibility_violations(
        history: History,
        grouped: typing.Optional[typing.Dict[str, ReadsByKey]] = None,
) -> typing.List[Violation]:
    """Fractured reads: one read transaction, one key, different values on
    different nodes.

    Requires the history to carry detailed read events (``detail=True``).
    ``grouped`` is :func:`reads_by_txn_and_key` of ``history``, when the
    caller already has it.
    """
    if grouped is None:
        grouped = reads_by_txn_and_key(history)
    violations = []
    for txn, by_key in grouped.items():
        for key, events in by_key.items():
            violation = fractured_read(txn, key, events)
            if violation is not None:
                violations.append(violation)
    return violations


def snapshot_violations(
        history: History, workload,
        grouped: typing.Optional[typing.Dict[str, ReadsByKey]] = None,
) -> typing.List[Violation]:
    """Theorem 4.1: reads see exactly the committed updates of versions
    ``<= V(read)``, atomically.

    The committed updates are indexed once (:func:`committed_masks`), so
    the check is one pass over the updates plus one over the reads.

    Args:
        history: A detailed history.
        workload: A :class:`~repro.workloads.recording.RecordingWorkload`
            run in ``"bitmask"`` mode (so balances decompose uniquely).
        grouped: :func:`reads_by_txn_and_key` of ``history``, when the
            caller already has it.
    """
    if grouped is None:
        grouped = reads_by_txn_and_key(history)
    masks = committed_masks(history, workload)
    corrected = corrected_entities(workload)
    violations: typing.List[Violation] = []
    for txn, by_key in grouped.items():
        violations.extend(snapshot_mismatches(
            txn, history.txns[txn].version, by_key, masks, corrected))
    return violations


def reads_checked(
        history: History,
        grouped: typing.Optional[typing.Dict[str, ReadsByKey]] = None,
) -> int:
    """How many (read transaction, key) pairs the oracles examined."""
    if grouped is None:
        grouped = reads_by_txn_and_key(history)
    return sum(len(by_key) for by_key in grouped.values())
