"""`ProtocolNode` — the one database node every protocol runs on.

The node owns the mechanism every protocol shares: the mailbox consumer, the
local executor, completion trackers and hierarchical completion notices,
and compensation routing (Section 3.2's tree-edge propagation, including
the tombstone rule for compensation that overtakes its target).  All
protocol policy — version assignment, counters, locks, control messages —
lives in the system's :class:`~repro.runtime.plugin.ProtocolPlugin`.

The user-visible commitment of a subtransaction happens right after its
local operations and child dispatch (no waiting for anything non-local:
Theorem 4.2).  *Completion* bookkeeping is delegated to plugin hooks so 3V
can implement both the hierarchical (Table 1) and the literal-step-6
"immediate" counter timing.

Neither the mailbox nor a subtransaction is a generator process.  The
mailbox is a callback consumer of its :class:`~repro.sim.resources.Store`,
and a subtransaction is a chain of continuations: start, executor grant,
end of service.  Each continuation is scheduled in the slot where a
process waiting on the same event would resume, so the same-tick order of
protocol actions is the one a process-per-subtransaction runtime gives.
A commuting 3V subtransaction suspends only for the executor and its
service time (Theorem 4.2).  Where a plugin hook really waits (a
takeover, an admission gate, commute locks, a replica's read gate) it
returns a generator, and :class:`_Continuation` drives it from the
current callback before the chain goes on.
"""

from __future__ import annotations

import typing

from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind
from repro.sim.resources import Resource
from repro.storage.locktable import LockTable
from repro.storage.wal import JournaledStore, NodeJournal
from repro.txn.history import WaitReason
from repro.txn.runtime import CompletionNotice, CompletionTracker, SubtxnInstance


class ProtocolNode:
    """One database node, specialised by the system's protocol plugin."""

    def __init__(self, system, node_id: str):
        self.system = system
        self.sim = system.sim
        self.network = system.network
        self.history = system.history
        self.config = system.config
        self.rngs = system.rngs
        self.plugin = system.plugin
        self.node_id = node_id

        #: Write-ahead journal for crash-recovery (only when the system
        #: runs with fault injection; ``None`` keeps the seed path exact).
        self.journal = NodeJournal(node_id) if system.journaling else None
        store = self.plugin.make_store(self)
        if self.journal is not None:
            store = JournaledStore(store, lambda: self.plugin.make_store(self))
            self.journal.attach("store", store)
        self.store = store
        self.locks = LockTable(self.sim)
        self.executor = Resource(self.sim, capacity=self.config.executor_capacity)

        #: In-flight completion trackers, keyed by instance key.
        self._trackers: typing.Dict[tuple, CompletionTracker] = {}
        #: Subtransactions whose ops ran here, keyed by transaction name
        #: (needed by compensation).  Entries are dropped when the whole
        #: tree completes globally — no message for a completed tree can
        #: still be in flight (completion notices flow only after every
        #: child, original or compensating, has been delivered and
        #: executed) — so this stays O(in-flight txns), not O(run length).
        self._executed: typing.Dict[str, typing.Set[str]] = {}
        #: Compensation that arrived before its target subtransaction,
        #: same keying and lifetime as ``_executed``.
        self._tombstones: typing.Dict[str, typing.Set[str]] = {}
        #: Monotone count of tombstones ever laid here (the entries above
        #: are reclaimed at global completion, so tests and diagnostics
        #: that want evidence of an overtake race read this instead).
        self.tombstones_created = 0

        # The service-time stream is drawn from on every subtransaction;
        # binding it once avoids the registry lookup per draw (stream seeds
        # are name-derived, so early binding does not perturb any draws).
        self._service_rng = self.rngs.stream("node.service")

        self._mailbox = self.network.register(node_id)
        receive = (self._receive_batch if self.network.batch_delivery
                   else self._receive_one)
        # Receiving starts in a scheduled slot of its own, as a process
        # would: that slot fixes the node's place in same-tick order.
        self.sim.schedule_now(self._mailbox.get_then, receive)

        self.plugin.init_node(self)

    # ------------------------------------------------------------------
    # Mailbox consumer (one-shot getter, re-registered after each wake)
    # ------------------------------------------------------------------

    def _receive_one(self, message: Message) -> None:
        self._dispatch(message)
        self._mailbox.get_then(self._receive_one)

    def _receive_batch(self, message: Message) -> None:
        # Batched delivery deposits a whole same-tick batch in one mailbox
        # wake; drain the backlog synchronously so the batch costs one
        # event instead of one per message.  Order is unchanged
        # (take_nowait pops the same FIFO get_then would) and a crash
        # mid-drain stops it (take_nowait respects freeze).
        dispatch = self._dispatch
        take_nowait = self._mailbox.take_nowait
        while message is not None:
            dispatch(message)
            message = take_nowait()
        self._mailbox.get_then(self._receive_batch)

    def _dispatch(self, message: Message) -> None:
        kind = message.kind
        if kind == MessageKind.SUBTXN_REQUEST or kind == MessageKind.COMPENSATION:
            self.sim.schedule_now(self.run_subtxn, message.payload)
        elif kind == MessageKind.COMPLETION_NOTICE:
            self._on_completion_notice(message.payload)
        elif (kind == MessageKind.REFRESH_REQUEST
              or kind == MessageKind.REFRESH_REPLY):
            self.system.placement.handle_message(self, message)
        else:
            self.plugin.handle_message(self, message)

    # ------------------------------------------------------------------
    # Submission (client-side entry point; no network hop)
    # ------------------------------------------------------------------

    def submit(self, instance: SubtxnInstance) -> None:
        """Deliver a root subtransaction directly to this node's mailbox."""
        if not instance.is_root:
            raise ProtocolError("submit() is for root subtransactions only")
        self._mailbox.put(
            Message(
                src=self.node_id,
                dst=self.node_id,
                kind=MessageKind.SUBTXN_REQUEST,
                payload=instance,
                sent_at=self.sim.now,
                delivered_at=self.sim.now,
            )
        )

    # ------------------------------------------------------------------
    # Subtransaction execution (Sections 4.1 / 4.2 mechanism)
    # ------------------------------------------------------------------

    def run_subtxn(self, instance: SubtxnInstance) -> None:
        """Start a delivered subtransaction's lifecycle."""
        # Recovery-readability (before any protocol policy, so the gate
        # also covers transactions a plugin diverts via takeover): a read
        # at a recovered-but-unrefreshed replica waits for the refresh to
        # complete rather than observing stale state.
        placement = self.system.placement
        if placement is not None and instance.txn.is_read_only:
            gate = placement.read_gate(self.node_id)
            if gate is not None:
                _Continuation(self._await_read_gate(gate), self._arrive,
                              instance)
                return
            placement.note_read_served(self.node_id)
        self._arrive(instance)

    def _await_read_gate(self, gate):
        placement = self.system.placement
        while gate is not None:
            yield gate
            gate = placement.read_gate(self.node_id)
        placement.note_read_served(self.node_id)

    def _arrive(self, instance: SubtxnInstance) -> None:
        plugin = self.plugin
        kind = plugin.classify(instance)

        # A plugin may divert this transaction class into its own
        # lifecycle (NC3V's and 2PC's two-phase-commit engine).
        takeover = plugin.takeover(self, instance, kind)
        if takeover is not None:
            _Continuation(takeover, None)
            return

        # --- Arrival: version assignment and request accounting -------
        if instance.is_root:
            gate = plugin.admit_root(self, instance, kind)
            if gate is not None:
                _Continuation(gate, self._prepare, instance, kind)
                return
        else:
            plugin.on_descendant(self, instance, kind)
        self._prepare(instance, kind)

    def _prepare(self, instance: SubtxnInstance, kind: str) -> None:
        tracker = CompletionTracker(instance)
        self._trackers[instance.instance_key] = tracker

        # --- Protocol work before the executor (e.g. commute locks) ----
        pre = self.plugin.pre_execute(self, instance, kind)
        if pre is not None:
            _Continuation(pre, self._request_executor, instance, kind,
                          tracker)
            return
        self._request_executor(instance, kind, tracker)

    def _request_executor(self, instance: SubtxnInstance, kind: str,
                          tracker: CompletionTracker) -> None:
        # --- Local concurrency control ---------------------------------
        self.executor.request_then(self._granted, instance, kind, tracker,
                                   self.sim.now)

    def _granted(self, instance: SubtxnInstance, kind: str,
                 tracker: CompletionTracker, queued_at: float) -> None:
        self.history.waited(
            instance.txn.name, WaitReason.EXECUTOR, self.sim.now - queued_at
        )
        service = self.plugin.service_time(self, instance)
        if service is None:
            self._serve(instance, kind, tracker)
        else:
            self.sim.schedule(service, self._serve, instance, kind, tracker)

    def _serve(self, instance: SubtxnInstance, kind: str,
               tracker: CompletionTracker) -> None:
        """End of service: run the ops, then commit and dispatch locally."""
        plugin = self.plugin
        try:
            tombstoned = self._apply_ops(instance, kind)
        finally:
            self.executor.release()

        # --- Scripted abort: roll back and compensate (Section 3.2) ----
        aborting = (
            instance.spec.abort_here and not instance.compensating
            and not tombstoned
        )
        if aborting:
            plugin.apply_inverses(self, instance)
            self.history.aborted(instance.txn.name, self.sim.now, "requested")
            self.history.compensated(instance.txn.name)

        # --- Dispatch (children, or compensation fan-out) ---------------
        if instance.compensating:
            if not tombstoned:
                self._fan_out_compensation(
                    instance, tracker, skip=instance.comp_skip
                )
        elif aborting:
            parent_sid = instance.index.parent[instance.sid]
            if parent_sid is not None:
                self._send_compensator(instance, tracker, parent_sid)
        elif not tombstoned:
            self._dispatch_children(instance, tracker)

        # --- Local commit (user-visible; Theorem 4.2: nothing above
        # waited for any non-local activity) ----------------------------
        if instance.is_root:
            self.history.locally_committed(instance.txn.name, self.sim.now)

        plugin.on_subtxn_executed(self, instance)

        tracker.executed = True
        if tracker.complete:
            self._complete_instance(instance)

    def _apply_ops(self, instance: SubtxnInstance, kind: str) -> bool:
        """Execute the instance's local operations.

        Returns:
            ``True`` if the instance was suppressed (tombstoned original, or
            compensation for a subtransaction that never ran here).
        """
        name = instance.txn.name
        if instance.compensating:
            if instance.sid not in self._executed.get(name, ()):
                # Compensation overtook the original: leave a tombstone so
                # the original becomes a no-op when it arrives.  If the
                # original was skipped for this replica (write-all-
                # available), the ledgered copy is cancelled instead —
                # the pair annihilates, so the refresh must not apply it.
                self._tombstones.setdefault(name, set()).add(instance.sid)
                self.tombstones_created += 1
                placement = self.system.placement
                if placement is not None:
                    placement.cancel_skip(self.node_id, name, instance.sid)
                return True
            self.plugin.apply_inverses(self, instance)
            return False
        if instance.sid in self._tombstones.get(name, ()):
            # "A compensating subtransaction causes abort of the
            # corresponding subtransaction if it has not finished."
            return True
        self.plugin.execute_ops(self, instance, kind)
        self._executed.setdefault(name, set()).add(instance.sid)
        return False

    # ------------------------------------------------------------------
    # Dispatch and completion plumbing
    # ------------------------------------------------------------------

    def _dispatch_children(self, instance: SubtxnInstance,
                           tracker: CompletionTracker) -> None:
        plugin = self.plugin
        placement = self.system.placement
        for child_sid in instance.index.children[instance.sid]:
            target = instance.index.node_of(child_sid)
            if (placement is not None
                    and not instance.index.children[child_sid]
                    and placement.should_skip_write(target, instance)):
                # Only leaf children can be skipped: an interior child
                # carries dispatch responsibility for its own subtree.
                # Write-all-available: the replica is down or unrefreshed,
                # so its copy is skipped — no request counter increment,
                # no completion owed (aggregate quiescence stays balanced)
                # — and the missed operations are ledgered for the
                # refresh that will re-admit the replica.
                placement.record_skip(
                    target, instance.txn.name, child_sid,
                    instance.version if instance.version is not None else 0,
                    [(op.key, op.operation)
                     for op in instance.index.by_id[child_sid].ops
                     if hasattr(op, "operation")],
                )
                continue
            child = instance.child_instance(child_sid, self.node_id)
            child.notify_key = instance.instance_key
            # Step 5: request accounting happens *before* sending.
            plugin.note_request(self, instance.version, target)
            tracker.outstanding_children += 1
            self.network.send(
                self.node_id, target, MessageKind.SUBTXN_REQUEST, child
            )

    def _send_compensator(self, instance: SubtxnInstance,
                          tracker: CompletionTracker, target_sid: str) -> None:
        compensator = instance.compensator(target_sid, self.node_id)
        compensator.notify_key = instance.instance_key
        target = instance.index.node_of(target_sid)
        self.plugin.note_request(self, instance.version, target)
        tracker.outstanding_children += 1
        self.network.send(
            self.node_id, target, MessageKind.COMPENSATION, compensator
        )

    def _fan_out_compensation(self, instance: SubtxnInstance,
                              tracker: CompletionTracker, skip) -> None:
        """Propagate compensation to the other tree neighbours."""
        for neighbour_sid in instance.index.neighbours(instance.sid):
            if neighbour_sid != skip:
                self._send_compensator(instance, tracker, neighbour_sid)

    def _complete_instance(self, instance: SubtxnInstance) -> None:
        """Subtree completion: plugin accounting plus the upward notice."""
        self.plugin.on_instance_complete(self, instance)
        del self._trackers[instance.instance_key]
        if instance.notify_key is None:
            # Root of the tree: the whole transaction is done.
            self.history.globally_completed(instance.txn.name, self.sim.now)
            self.plugin.on_root_complete(self, instance)
            self._forget_txn(instance)
            return
        notice = CompletionNotice(
            txn_name=instance.txn.name,
            parent_key=instance.notify_key,
            child_key=instance.instance_key,
        )
        if instance.source_node == self.node_id:
            self._on_completion_notice(notice)
        else:
            self.network.send(
                self.node_id, instance.source_node,
                MessageKind.COMPLETION_NOTICE, notice,
            )

    def _forget_txn(self, instance: SubtxnInstance) -> None:
        """Drop a globally-completed tree's compensation bookkeeping.

        Called on the root node once the whole transaction is done.  At
        that point no message for the tree is in flight anywhere (every
        child — original, tombstoned, or compensating — was delivered,
        executed, and acknowledged before the root's tracker drained), so
        the per-node ``_executed`` / ``_tombstones`` entries can never be
        consulted again.  Forgetting them keeps node bookkeeping bounded
        by the number of *in-flight* transactions rather than growing
        with everything the run has ever executed — the invariant the
        million-transaction volume axis depends on.
        """
        name = instance.txn.name
        nodes = self.system.nodes
        index = instance.index
        for node_id in {index.node_of(sid) for sid in index.by_id}:
            node = nodes.get(node_id)
            if node is not None:
                node._executed.pop(name, None)
                node._tombstones.pop(name, None)

    def _on_completion_notice(self, notice: CompletionNotice) -> None:
        tracker = self._trackers.get(notice.parent_key)
        if tracker is None:
            raise ProtocolError(
                f"node {self.node_id}: completion notice for unknown "
                f"instance {notice.parent_key!r}"
            )
        tracker.outstanding_children -= 1
        if tracker.complete:
            self._complete_instance(tracker.instance)

    @property
    def active_subtxns(self) -> int:
        return len(self._trackers)


class _Continuation:
    """Drives a plugin's generator from the current callback, then goes on.

    The generator runs at once up to its first wait.  Each event it yields
    resumes it through ``Event.add_callback``, in the slot where the event
    would have resumed a process, and when it returns ``then(*args)`` runs
    synchronously.  Unlike a :class:`~repro.sim.process.Process` it
    schedules no start or completion event of its own, so a gated hook
    adds no bookkeeping events to the lifecycle that calls it.
    """

    __slots__ = ("_generator", "_then", "_args")

    def __init__(self, generator, then, *args):
        self._generator = generator
        self._then = then
        self._args = args
        self._step(None, None)

    def _step(self, value, exception) -> None:
        try:
            if exception is None:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(exception)
        except StopIteration:
            pass
        else:
            target.add_callback(self._wake)
            return
        if self._then is not None:
            self._then(*self._args)

    def _wake(self, event) -> None:
        exception = event.exception
        if exception is None:
            self._step(event.value, None)
        else:
            self._step(None, exception)
