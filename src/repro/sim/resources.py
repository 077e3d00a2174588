"""Shared resources for simulated processes.

Two primitives cover everything the library needs:

* :class:`Resource` — a counted semaphore with FIFO queuing, used to model a
  node's local executor (capacity = multiprogramming level).
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``,
  used as a process mailbox for network message delivery.

Each offers two ways to wait.  A process yields the event that
:meth:`Resource.request` / :meth:`Store.get` returns; a callback consumer
passes a continuation to :meth:`Resource.request_then` /
:meth:`Store.get_then` instead.  Both kinds share one FIFO queue, and a
continuation runs in exactly the scheduling slot where the event would
have resumed a waiting process — it just skips the event, and with it the
extra bookkeeping entry a process pays for an event that has already
triggered.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import SimulationError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


class Resource:
    """A counted, FIFO-fair resource.

    Args:
        sim: The owning simulator.
        capacity: Number of simultaneous holders allowed.

    Statistics:
        ``total_waits`` counts requests that could not be granted immediately,
        and ``total_wait_time`` accumulates their queueing delay — the raw
        material for the paper's "never delayed" claims.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_queue", "total_waits",
                 "total_wait_time")

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: collections.deque = collections.deque()
        self.total_waits = 0
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        """Number of currently granted (unreleased) requests."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for capacity."""
        return len(self._queue)

    def request(self) -> Event:
        """Ask for one unit of capacity.

        Returns:
            An event that triggers when the unit is granted.  The caller must
            eventually call :meth:`release`.
        """
        event = Event(self.sim)
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            event.succeed()
        else:
            self.total_waits += 1
            self._queue.append((event, None, self.sim.now))
        return event

    def request_then(self, callback, *args) -> None:
        """Ask for one unit of capacity; run ``callback(*args)`` once granted.

        The callback form of :meth:`request`: the grant is scheduled in the
        slot where a process waiting on the request event would resume.
        The callback must eventually call :meth:`release`.
        """
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            self.sim.schedule_now(callback, *args)
        else:
            self.total_waits += 1
            self._queue.append((callback, args, self.sim.now))

    def release(self) -> None:
        """Return one unit of capacity, waking the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._queue:
            waiter, args, enqueued_at = self._queue.popleft()
            self.total_wait_time += self.sim.now - enqueued_at
            if args is None:
                waiter.succeed()
            else:
                self.sim.schedule_now(waiter, *args)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO queue with blocking ``get`` — a process mailbox."""

    __slots__ = ("sim", "_items", "_getters", "total_puts", "_frozen")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque = collections.deque()
        self.total_puts = 0
        self._frozen = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Stop handing items to getters; ``put`` queues silently.

        Used to model a crashed node: its mailbox keeps accepting messages
        (so no message is ever lost by the transport), but the node's main
        loop is starved until :meth:`thaw`.  Killing the loop process
        instead would strand its pending getter event, which would swallow
        the next ``put`` — freezing avoids that hazard entirely.
        """
        self._frozen = True

    def thaw(self) -> None:
        """Resume delivery, re-pairing queued items with waiting getters."""
        self._frozen = False
        while self._items and self._getters:
            self._hand(self._getters.popleft(), self._items.popleft())

    def put(self, item) -> None:
        """Deposit an item; wakes the oldest waiting getter if any."""
        self.total_puts += 1
        if self._getters and not self._frozen:
            self._hand(self._getters.popleft(), item)
        else:
            self._items.append(item)

    def _hand(self, getter, item) -> None:
        if isinstance(getter, Event):
            getter.succeed(item)
        else:
            self.sim.schedule_now(getter, item)

    def get(self) -> Event:
        """Take the oldest item, waiting if the store is empty.

        Returns:
            An event whose value is the retrieved item.
        """
        event = Event(self.sim)
        if self._items and not self._frozen:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_then(self, callback) -> None:
        """Take the oldest item and run ``callback(item)``, waiting if empty.

        The callback form of :meth:`get` (a mailbox consumer that is not a
        process): the callback is scheduled in the slot where a process
        waiting on the get event would resume.  It is a one-shot getter,
        so a consumer re-registers after each wake; freezing, thawing and
        :meth:`abandon_getters` treat it exactly like a getter event.
        """
        if self._items and not self._frozen:
            self.sim.schedule_now(callback, self._items.popleft())
        else:
            self._getters.append(callback)

    def abandon_getters(self) -> None:
        """Discard every waiting getter (events never trigger, callbacks
        never run).

        The teardown primitive for killing a consumer process: a killed
        process's pending getter would otherwise stay queued and swallow
        the next ``put`` — the item would succeed a dead event and be lost.
        Callers kill the consumer, abandon its getters, and (typically)
        freeze the store until a successor takes over.
        """
        self._getters.clear()

    def take_nowait(self):
        """Take the oldest queued item without blocking.

        Returns:
            The item, or ``None`` when the store is empty (or frozen).
            This is the mailbox-drain primitive for batched delivery: a
            consumer that just woke from :meth:`get` empties the backlog
            synchronously instead of paying one event + one scheduled
            callback per queued item.
        """
        if self._items and not self._frozen:
            return self._items.popleft()
        return None

    def drain(self) -> list:
        """Remove and return all currently queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items
