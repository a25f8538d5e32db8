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
# Event lifetime x cancellation
# ----------------------------------------------------------------------

def test_fired_event_never_fires_again():
    """An event is a fresh list per schedule: once fired, nothing the
    engine does later runs it again, and a new schedule is a new list."""
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "first")
    sim.run()
    second = sim.schedule(1.0, fired.append, "second")
    assert second is not first
    sim.run()
    sim.schedule(1.0, fired.append, "third")
    sim.run()
    assert fired == ["first", "second", "third"]


def test_cancel_after_firing_is_a_no_op():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "first")
    sim.run()
    sim.cancel(ev)
    sim.cancel(ev)
    later = sim.schedule(1.0, fired.append, "second")
    assert sim.pending == 1
    assert later[CANCELLED] is False
    sim.run()
    assert fired == ["first", "second"]
    assert sim.events_executed == 2


def test_cancelled_event_drops_its_args():
    """A cancelled event waiting in the calendar holds no references to
    its callback's arguments, and it never runs."""
    sim = Simulator()
    payload = {"leaked": False}

    def cb(p):
        p["leaked"] = True

    ev = sim.schedule(0.5, cb, payload)
    sim.cancel(ev)
    assert ev[ARGS] == ()
    assert ev[FN] is None
    assert sim.pending == 1  # lazy: still queued as a placeholder
    sim.run()
    assert payload["leaked"] is False
    assert sim.events_executed == 0


def test_cancel_from_own_callback_is_harmless():
    """An event cancelling *itself* mid-callback corrupts nothing."""
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
    # Later schedules start un-cancelled.
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
    # already skipped, belongs to its holder alone; cancelling it (again)
    # must not touch any later event.
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
    assert sim.peek_time() == 2.0  # compacts: `a`'s placeholder is gone
    fired = []
    sim.schedule(0.5, fired.append, "fresh")
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


# ----------------------------------------------------------------------
# Deadlines (the metrics cadence)
# ----------------------------------------------------------------------
def cadence(sim, due, period, log, tag="d"):
    """A deadline firing every ``period`` from ``due``, logging
    ``(tag, due time, clock, pending)`` per due time it passes."""
    state = {"due": due}

    def fire(t):
        assert sim.now == t
        while t >= state["due"]:
            log.append((tag, state["due"], t, sim.pending))
            state["due"] += period
        return state["due"]

    sim.add_deadline(due, fire)


def test_deadline_fires_before_the_first_event_at_or_past_its_due():
    sim = Simulator()
    fired, log = [], []
    cadence(sim, 1.0, 1.0, log)
    for t in (0.5, 1.0, 1.5, 3.2):
        sim.schedule(t, lambda t=t: fired.append((t, len(log))))
    sim.run()
    # Due at 1.0 fires on the event at exactly 1.0, before its callback,
    # with that event already popped; 2.0 and 3.0 both fire on t=3.2.
    assert log == [("d", 1.0, 1.0, 2), ("d", 2.0, 3.2, 0), ("d", 3.0, 3.2, 0)]
    assert fired == [(0.5, 0), (1.0, 1), (1.5, 1), (3.2, 3)]


def test_deadline_at_the_until_boundary():
    sim = Simulator()
    log = []
    cadence(sim, 2.0, 1.0, log)
    sim.schedule(2.0, lambda: None)
    sim.schedule(2.5, lambda: None)
    # The event at 2.0 is inside ``until`` (inclusive): it fires the due.
    assert sim.run(until=2.0) == 1
    assert log == [("d", 2.0, 2.0, 1)]
    # An event past ``until`` fires nothing, even with a deadline due.
    sim.schedule_at(3.5, lambda: None)
    assert sim.run(until=3.2) == 1
    assert sim.now == 3.2
    assert log == [("d", 2.0, 2.0, 1)]
    assert sim.step() is True
    assert log == [("d", 2.0, 2.0, 1), ("d", 3.0, 3.5, 0)]


def test_deadline_skips_a_cancelled_head():
    sim = Simulator()
    log = []
    cadence(sim, 1.0, 1.0, log)
    sim.cancel(sim.schedule(1.0, lambda: None))
    sim.schedule(1.2, lambda: None)
    sim.run()
    assert log == [("d", 1.0, 1.2, 0)]


def test_two_deadlines_fire_in_registration_order():
    sim = Simulator()
    log = []
    cadence(sim, 1.0, 1.0, log, "a")
    cadence(sim, 0.5, 0.5, log, "b")
    for t in (0.7, 1.1, 1.6):
        sim.schedule(t, lambda: None)
    sim.run()
    assert log == [
        ("b", 0.5, 0.7, 2),
        ("a", 1.0, 1.1, 1), ("b", 1.0, 1.1, 1),
        ("b", 1.5, 1.6, 0),
    ]


def test_deadline_added_from_a_callback_is_refused():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.add_deadline(2.0, lambda t: t + 1))
    with pytest.raises(SimulationError, match="running"):
        sim.run()
    assert len(sim._deadlines) == 0
    sim.add_deadline(2.0, lambda t: t + 1)  # between runs it is accepted
    assert len(sim._deadlines) == 1

