"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import ARGS, CANCELLED, FN, Simulator, SimulationError


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_breaks_ties():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "late", priority=5)
    sim.schedule(1.0, order.append, "early", priority=-5)
    sim.run()
    assert order == ["early", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1e-9, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_clock_at_limit():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, 1)
    executed = sim.run(until=5.0)
    assert executed == 0
    assert sim.now == 5.0
    assert not fired
    sim.run()
    assert fired == [1]


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=2.5)
    assert sim.now == 2.5


def test_cancelled_events_skipped():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    sim.cancel(ev)
    sim.schedule(2.0, fired.append, "y")
    sim.run()
    assert fired == ["y"]


def test_stop_from_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    # A later run() resumes.
    sim.run()
    assert fired == [1, 2]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 4:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]
    assert sim.now == 4.0


def test_max_events_budget():
    # A cancelled head is skipped and does not count toward the budget.
    for cancel_head in (False, True):
        sim = Simulator()
        events = [sim.schedule(float(i), lambda: None) for i in range(10)]
        if cancel_head:
            sim.cancel(events[0])
        executed = sim.run(max_events=3)
        assert executed == 3
        assert sim.events_executed == 3
        assert sim.pending == (6 if cancel_head else 7)


def test_step_executes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_peek_time_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.cancel(ev)
    assert sim.peek_time() == 5.0


def test_events_executed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_step_respects_stop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.step()
    sim.stop()
    assert sim.step() is False
    assert fired == ["a"]
    sim.resume()
    assert sim.step() is True
    assert fired == ["a", "b"]


def test_stop_then_run_resumes_after_resume():
    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    sim.resume()
    sim.run()
    assert sim.now == 2.0


def test_compact_head_discards_cancelled_prefix():
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    b = sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    sim.cancel(a)
    sim.cancel(b)
    assert sim.pending == 3  # lazy: cancelled events stay queued
    assert sim.compact_head() == 2
    assert sim.pending == 1
    assert sim.compact_head() == 0


def test_peek_time_compacts_explicitly():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.cancel(ev)
    assert sim.peek_time() == 5.0
    # The documented side effect: the cancelled head is gone afterwards.
    assert sim.pending == 1


def test_peek_time_empty_queue():
    sim = Simulator()
    assert sim.peek_time() is None


# ----------------------------------------------------------------------
# Event recycling (freelist) x cancellation
# ----------------------------------------------------------------------

def test_recycled_event_never_fires_stale_callback():
    """A cancelled event's recycled object must carry nothing of its past
    life: the next schedule() reusing it fires the *new* fn/args only."""
    sim = Simulator()
    stale_calls = []
    doomed = sim.schedule(1.0, stale_calls.append, "stale")
    sim.cancel(doomed)
    sim.run()  # recycles the cancelled event through the freelist
    assert stale_calls == []

    fresh_calls = []
    reused = sim.schedule(1.0, fresh_calls.append, "fresh")
    assert reused is doomed  # the same object, recycled
    assert reused[CANCELLED] is False  # scheduling reset the flag
    sim.run()
    assert fresh_calls == ["fresh"]
    assert stale_calls == []


def test_recycled_event_cleared_between_lives():
    """Between recycling and reuse the payload is wiped: a bug that fired
    a freelisted event would hit the sentinel, not a stale callback."""
    sim = Simulator()
    payload = {"leaked": False}

    def cb(p):
        p["leaked"] = True

    ev = sim.schedule(0.5, cb, payload)
    sim.cancel(ev)
    sim.run()
    assert payload["leaked"] is False
    assert ev[ARGS] == ()  # dropped promptly, no lingering reference
    with pytest.raises(AssertionError):
        ev[FN]()  # the sentinel refuses to run


def test_executed_event_recycled_and_reused():
    sim = Simulator()
    order = []
    first = sim.schedule(1.0, order.append, "first")
    sim.run()
    second = sim.schedule(1.0, order.append, "second")
    assert second is first
    sim.run()
    assert order == ["first", "second"]


def test_cancel_from_own_callback_is_harmless():
    """Recycling happens only after the callback returns, so an event
    cancelling *itself* mid-callback corrupts nothing."""
    sim = Simulator()
    order = []
    holder = {}

    def self_cancel():
        order.append("ran")
        sim.cancel(holder["ev"])

    holder["ev"] = sim.schedule(1.0, self_cancel)
    sim.schedule(2.0, order.append, "after")
    sim.run()
    assert order == ["ran", "after"]
    # The recycled object is reusable and starts un-cancelled.
    again = sim.schedule(1.0, order.append, "again")
    assert again[CANCELLED] is False
    sim.run()
    assert order == ["ran", "after", "again"]


def test_cancelled_skips_do_not_count_toward_max_events():
    """max_events budgets *executed* callbacks; cancelled placeholders
    popped along the way are free."""
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.cancel(sim.schedule(1.0 + i, fired.append, i))
    for i in range(3):
        sim.schedule(10.0 + i, fired.append, 100 + i)
    executed = sim.run(max_events=3)
    assert executed == 3
    assert fired == [100, 101, 102]
    assert sim.events_executed == 3


def test_step_skips_cancelled_without_counting():
    sim = Simulator()
    fired = []
    sim.cancel(sim.schedule(1.0, fired.append, "x"))
    sim.schedule(2.0, fired.append, "y")
    assert sim.step() is True  # one *live* event executed
    assert fired == ["y"]
    assert sim.events_executed == 1
    assert sim.step() is False


def test_cancel_after_execution_is_harmless_to_freelist_reuse():
    # The handle of an executed event, or of a cancelled placeholder run()
    # already recycled, points at a freelisted entry; cancelling it (again)
    # must not poison whichever event next recycles that entry.
    for cancel_first in (False, True):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "first")
        if cancel_first:
            sim.cancel(ev)
        sim.run()
        sim.cancel(ev)
        sim.schedule(1.0, fired.append, "second")
        sim.run()
        assert fired == (["second"] if cancel_first else ["first", "second"])


def test_peek_time_recycled_entries_are_reusable():
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(a)
    assert sim.peek_time() == 2.0  # compacts: `a`'s entry is freelisted
    fired = []
    sim.schedule(0.5, fired.append, "fresh")  # reuses the freelist entry
    assert sim.peek_time() == 0.5
    sim.run()
    assert fired == ["fresh"]


# ----------------------------------------------------------------------
# Observers (multi-observer dispatch)
# ----------------------------------------------------------------------
def test_observers_dispatch_in_registration_order():
    sim = Simulator()
    seen = []
    sim.add_observer(lambda ev: seen.append(("first", ev.time)))
    sim.add_observer(lambda ev: seen.append(("second", ev.time)))
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert seen == [("first", 1.0), ("second", 1.0)]


def test_observers_see_every_field_by_name():
    sim = Simulator()
    fired, seen = [], []
    sim.add_observer(lambda ev: seen.append(
        (ev.time, ev.priority, ev.sequence, ev.fn, ev.args, ev.cancelled, list(ev.entry))
    ))
    sim.schedule(1.0, fired.append, "x", priority=2)
    sim.run()
    assert seen == [(1.0, 2, 0, fired.append, ("x",), False,
                     [1.0, 2, 0, fired.append, ("x",), False])]


def test_remove_observer_during_dispatch_takes_effect_next_event():
    sim = Simulator()
    seen = []

    def second(ev):
        seen.append(("second", ev.time))

    def first(ev):
        seen.append(("first", ev.time))
        # Removing a later observer mid-dispatch must not skip it for the
        # event being dispatched (snapshot semantics) but must silence it
        # from the next event on.
        sim.remove_observer(second)

    sim.add_observer(first)
    sim.add_observer(second)
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert seen == [("first", 1.0), ("second", 1.0), ("first", 2.0)]


def test_remove_observer_returns_false_when_absent():
    sim = Simulator()
    assert sim.remove_observer(lambda ev: None) is False
    fn = sim.add_observer(lambda ev: None)
    assert sim.remove_observer(fn) is True
    assert sim.remove_observer(fn) is False
    assert sim.observers == ()


def test_step_dispatches_observers():
    sim = Simulator()
    seen = []
    sim.add_observer(lambda ev: seen.append(ev.time))
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert seen == [1.0]
