"""Callback waits: ``Resource.request_then``, ``Store.get_then`` and the
node runtime's generator driver.

The callback forms share one FIFO queue with the event forms and must wake
in the slot a waiting process would have resumed in; the generator driver
must resume a plugin generator exactly like a process would, minus the
process's own start and completion events.
"""

import pytest

from repro.errors import DeadlockAbort
from repro.runtime.node import _Continuation
from repro.sim import Simulator
from repro.sim.resources import Resource, Store


@pytest.fixture
def sim():
    return Simulator()


class TestRequestThen:
    def test_free_unit_is_granted_after_pending_same_time_work(self, sim):
        resource = Resource(sim)
        order = []
        sim.schedule_now(order.append, "pending")
        resource.request_then(order.append, "granted")
        assert order == []
        sim.run()
        assert order == ["pending", "granted"]
        assert resource.in_use == 1
        assert resource.total_waits == 0

    def test_waiters_of_both_kinds_share_one_fifo(self, sim):
        resource = Resource(sim)
        order = []
        resource.request_then(order.append, "first")
        resource.request().add_callback(lambda _event: order.append("event"))
        resource.request_then(order.append, "third")
        sim.run()
        assert order == ["first"]
        assert resource.queue_length == 2
        sim.schedule(2.0, resource.release)
        sim.schedule(5.0, resource.release)
        sim.run()
        assert order == ["first", "event", "third"]
        assert resource.total_waits == 2
        assert resource.total_wait_time == pytest.approx(7.0)

    def test_grant_slot_matches_a_waiting_process(self):
        """Same-tick order of a process waiting on ``request()`` and of a
        callback on ``request_then``: identical labels, fewer events."""
        def trace(use_callback):
            sim = Simulator()
            resource = Resource(sim)
            order = []

            def holder():
                yield resource.request()
                yield sim.timeout(1.0)
                sim.schedule_now(order.append, "before-release")
                resource.release()
                sim.schedule_now(order.append, "after-release")

            def waiter():
                yield resource.request()
                order.append("granted")

            sim.process(holder())
            if use_callback:
                sim.schedule_now(resource.request_then, order.append,
                                 "granted")
            else:
                sim.process(waiter())
            sim.run()
            return order, sim.scheduled_count

        process_order, process_events = trace(False)
        callback_order, callback_events = trace(True)
        assert process_order == callback_order == [
            "before-release", "granted", "after-release"]
        assert callback_events < process_events


class TestGetThen:
    def test_queued_item_is_taken_at_once(self, sim):
        store = Store(sim)
        store.put("a")
        got = []
        store.get_then(got.append)
        assert len(store) == 0
        sim.run()
        assert got == ["a"]

    def test_put_wakes_getters_of_both_kinds_in_fifo_order(self, sim):
        store = Store(sim)
        got = []
        store.get_then(got.append)
        store.get().add_callback(lambda event: got.append(("event",
                                                           event.value)))
        store.put("x")
        store.put("y")
        sim.run()
        assert got == ["x", ("event", "y")]

    def test_freeze_holds_items_until_thaw(self, sim):
        store = Store(sim)
        got = []
        store.get_then(got.append)
        store.freeze()
        store.put("held")
        store.get_then(got.append)
        sim.run()
        assert got == [] and len(store) == 1
        store.put("second")
        store.thaw()
        sim.run()
        assert got == ["held", "second"]

    def test_abandoned_callback_never_runs(self, sim):
        store = Store(sim)
        got = []
        store.get_then(got.append)
        store.abandon_getters()
        store.put("kept")
        sim.run()
        assert got == [] and len(store) == 1


class TestContinuation:
    def test_synchronous_generator_continues_at_once(self, sim):
        order = []

        def gate():
            order.append("gate")
            return
            yield  # pragma: no cover - makes this a generator

        _Continuation(gate(), order.append, "then")
        assert order == ["gate", "then"]
        assert sim.scheduled_count == 0

    def test_resumes_like_a_process_without_its_own_events(self):
        def trace(driven):
            sim = Simulator()
            order = []

            def waits():
                value = yield sim.timeout(1.0, "tick")
                order.append(value)
                ready = sim.event()
                ready.succeed("ready")
                order.append((yield ready))

            if driven:
                sim.schedule_now(_Continuation, waits(), order.append, "then")
            else:
                def body():
                    yield from waits()
                    order.append("then")

                sim.process(body())
            sim.run()
            return order, sim.scheduled_count

        process_order, process_events = trace(False)
        driven_order, driven_events = trace(True)
        assert process_order == driven_order == ["tick", "ready", "then"]
        # The process's completion trigger is the one event that goes.
        assert driven_events == process_events - 1

    def test_failed_event_is_thrown_into_the_generator(self, sim):
        caught = []

        def waits():
            try:
                yield doomed
            except DeadlockAbort as error:
                caught.append(error)

        doomed = sim.event()
        _Continuation(waits(), caught.append, "then")
        doomed.fail(DeadlockAbort("wait-die"))
        sim.run()
        assert isinstance(caught[0], DeadlockAbort)
        assert caught[1] == "then"

    def test_unhandled_error_propagates_out_of_the_run(self, sim):
        def waits():
            yield sim.timeout(1.0)
            raise RuntimeError("model bug")

        _Continuation(waits(), None)
        with pytest.raises(RuntimeError, match="model bug"):
            sim.run()
