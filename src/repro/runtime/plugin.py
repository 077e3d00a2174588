"""`ProtocolPlugin` — the policy half of the runtime's mechanism/policy split.

A plugin specialises :class:`~repro.runtime.node.ProtocolNode` and
:class:`~repro.runtime.system.System` for one protocol.  The base class is
a complete, runnable protocol by itself: the "no coordination" semantics
(one version, number 0; reads and writes hit it directly; no counters, no
gates, no control messages).  Every other protocol overrides a subset of
the hooks.

Hook contract (see ``docs/PROTOCOL.md`` for the full walk-through):

* Hooks named ``admit_root`` / ``pre_execute`` / ``admission_gate`` may
  need to wait on simulation events.  They return ``None`` for the common
  synchronous case or a *generator* that yields the events it waits on;
  the node drives it from the current callback and continues the
  lifecycle when it returns.  Returning ``None`` keeps the
  per-subtransaction hot path free of generators.
* ``takeover`` lets a plugin replace the runtime's whole subtransaction
  lifecycle for some transaction class (NC3V and 2PC divert into the
  shared :mod:`repro.runtime.twophase` engine this way); it too returns a
  generator or ``None``.
* ``service_time`` returns the local service time of a subtransaction
  (``None`` for none at all) and owns the protocol's service-RNG draw
  discipline.
* Everything else is a plain synchronous callback.

Plugins hold no per-node mutable state of their own; node-local protocol
state (counters, version variables, engines) is attached to the node in
:meth:`ProtocolPlugin.init_node`, keeping one plugin instance shareable by
all nodes of a system.
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.net.message import Message
from repro.storage.mvstore import MVStore
from repro.txn.history import (
    ReadEvent,
    TxnKind,
    WaitReason,
    WriteEvent,
)
from repro.txn.runtime import SubtxnInstance
from repro.txn.spec import ReadOp, WriteOp


class ProtocolPlugin:
    """Default plugin: single-version, uncoordinated execution."""

    def __init__(self):
        self.system = None

    # ------------------------------------------------------------------
    # System integration
    # ------------------------------------------------------------------

    def bind(self, system) -> None:
        """Attach to the owning system (called before nodes are built)."""
        self.system = system

    def make_store(self, node):
        """Build the node's versioned store."""
        return MVStore()

    def init_node(self, node) -> None:
        """Attach protocol-specific state to a freshly built node."""

    def on_recover(self, node) -> None:
        """The node came back from a fail-stop crash.

        Called after the write-ahead journal rebuilt the node's durable
        components and before its mailbox thaws.  Plugins re-arm whatever
        protocol state needs it (3V re-ensures its active counter rows and
        re-checks NC3V admission gates; the two-phase engines re-resolve
        in-doubt transactions).  The default protocol keeps no state
        beyond the journaled store, so this is a no-op.
        """

    # ------------------------------------------------------------------
    # Classification and lifecycle takeover
    # ------------------------------------------------------------------

    def classify(self, instance: SubtxnInstance) -> str:
        if instance.txn.is_read_only:
            return TxnKind.READ
        if instance.txn.is_well_behaved:
            return TxnKind.UPDATE
        return TxnKind.NONCOMMUTING

    def takeover(self, node, instance: SubtxnInstance, kind: str):
        """Return a generator replacing the whole subtransaction lifecycle,
        or ``None`` to run the shared runtime path."""
        return None

    # ------------------------------------------------------------------
    # Root admission and version assignment
    # ------------------------------------------------------------------

    def admit_root(self, node, instance: SubtxnInstance, kind: str):
        """Admit a root: assign its version and begin the history record.

        Returns ``None`` when admission completed synchronously, or a
        generator to wait on (admission gates).
        """
        arrived_at = node.sim.now
        gate = self.admission_gate(node, instance, kind)
        if gate is not None:
            return self._gated_admission(node, instance, kind, arrived_at, gate)
        self._admit(node, instance, kind, arrived_at)
        return None

    def _gated_admission(self, node, instance, kind, arrived_at, gate):
        yield from gate
        self._admit(node, instance, kind, arrived_at)

    def _admit(self, node, instance, kind, arrived_at) -> None:
        instance.version = self.assign_version(node, kind)
        node.history.begin_txn(
            instance.txn.name, kind, instance.version, arrived_at,
            node.node_id,
        )
        node.history.waited(
            instance.txn.name, WaitReason.ADVANCEMENT,
            node.sim.now - arrived_at,
        )

    def admission_gate(self, node, instance: SubtxnInstance, kind: str):
        """Generator run before a root is admitted, or ``None`` (no gate).

        E.g. the synchronous manual-versioning variant blocks new roots
        mid-switch.
        """
        return None

    def assign_version(self, node, kind: str) -> int:
        """Version for a newly arrived root transaction."""
        return 0

    def on_descendant(self, node, instance: SubtxnInstance, kind: str) -> None:
        """A non-root subtransaction arrived carrying its root's version."""

    # ------------------------------------------------------------------
    # Execution hooks
    # ------------------------------------------------------------------

    def pre_execute(self, node, instance: SubtxnInstance, kind: str):
        """Generator run before the executor is acquired (e.g. commute
        locks), or ``None``."""
        return None

    def service_time(self, node, instance: SubtxnInstance):
        """Local service time of the subtransaction, or ``None`` when it
        takes none.  Owns the service-RNG draw discipline: baselines draw
        only when the subtransaction has ops."""
        ops = instance.spec.ops
        if not ops:
            return None
        service = node.rngs.sample("node.service", node.config.op_service)
        return service * len(ops)

    def execute_ops(self, node, instance: SubtxnInstance, kind: str) -> None:
        """Run the instance's local read/write operations."""
        version = instance.version
        for op in instance.spec.ops:
            if isinstance(op, ReadOp):
                used, value = self.read_item(node, op.key, version)
                node.history.read(
                    ReadEvent(
                        time=node.sim.now, txn=instance.txn.name,
                        subtxn=instance.sid, node=node.node_id, key=op.key,
                        version_requested=version, version_used=used,
                        value=value,
                    )
                )
            elif isinstance(op, WriteOp):
                if kind == TxnKind.READ:
                    raise ProtocolError(
                        f"read-only transaction {instance.txn.name!r} "
                        "attempted a write"
                    )
                written = self.write_item(node, op.key, version, op.operation)
                node.history.wrote(
                    WriteEvent(
                        time=node.sim.now, txn=instance.txn.name,
                        subtxn=instance.sid, node=node.node_id, key=op.key,
                        version=version, versions_written=written,
                        operation=op.operation,
                    )
                )

    def apply_inverses(self, node, instance: SubtxnInstance) -> None:
        """Apply the compensating (inverse) writes of a subtransaction."""
        for op in reversed(instance.spec.ops):
            if not isinstance(op, WriteOp):
                continue
            inverse = op.operation.inverse()
            written = self.write_item(node, op.key, instance.version, inverse)
            node.history.wrote(
                WriteEvent(
                    time=node.sim.now, txn=instance.txn.name,
                    subtxn=instance.sid, node=node.node_id, key=op.key,
                    version=instance.version, versions_written=written,
                    operation=inverse, compensating=True,
                )
            )

    def read_item(self, node, key, version: int):
        """Return ``(version_used, value)``."""
        used = node.store.version_max_leq(key, version)
        value = node.store.get_exact(key, used) if used is not None else None
        return used, value

    def write_item(self, node, key, version: int, operation) -> int:
        """Apply a write; return the number of version copies touched."""
        node.store.ensure_version(key, version)
        node.store.apply_exact(key, version, operation)
        return 1

    def apply_refresh_op(self, node, key, version: int, operation) -> None:
        """Apply one missed write during a replica refresh.

        Refresh operations are reconciliation, not new requests: they
        bypass request/completion accounting entirely (the skipped
        dispatch never incremented a request counter, so no completion is
        owed) and re-apply the commuting operation at its original
        version with the dual-write ``apply_geq`` rule, so every version
        copy at or above it absorbs the update.  If garbage collection
        moved the chain floor past the op's version while the replica was
        down, the op lands on the floor instead — exactly where a live
        replica's own GC would have folded it.
        """
        versions = node.store.versions(key)
        if versions and version < versions[0]:
            version = versions[0]
        node.store.ensure_version(key, version)
        node.store.apply_geq(key, version, operation)

    # ------------------------------------------------------------------
    # Commit / completion participation
    # ------------------------------------------------------------------

    def note_request(self, node, version, target: str) -> None:
        """Called right before each child/compensator send (3V increments
        its request counter here — Section 4.1 step 5)."""

    def on_subtxn_executed(self, node, instance: SubtxnInstance) -> None:
        """The subtransaction committed locally and dispatched its children
        (Section 4.1 step 6 timing — "immediate" completion counting)."""

    def on_instance_complete(self, node, instance: SubtxnInstance) -> None:
        """The whole subtree under this instance has completed
        (hierarchical completion counting)."""

    def on_root_complete(self, node, instance: SubtxnInstance) -> None:
        """The root's subtree — the whole transaction — has completed."""

    # ------------------------------------------------------------------
    # Control messages
    # ------------------------------------------------------------------

    def handle_message(self, node, message: Message) -> None:
        """Handle a protocol-specific control message."""
        raise ProtocolError(
            f"node {node.node_id}: unexpected message kind {message.kind!r}"
        )
