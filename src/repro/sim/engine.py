"""Core discrete-event simulation engine.

A :class:`Simulator` owns a priority queue of events ordered by
``(time, priority, sequence)``.  Model components schedule callbacks with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.schedule_at`
(absolute time).  The sequence number guarantees deterministic FIFO ordering
among simultaneous events, which keeps whole simulations reproducible for a
given seed — a requirement for the paper's repeated-burst experiments, where
run-to-run comparability matters.

Hot-path design (see docs/performance.md for the measured ledger):

* an event is a plain ``list`` laid out as
  ``[time, priority, sequence, fn, args, cancelled]`` and read through the
  offsets :data:`TIME` ... :data:`CANCELLED`.  It is its own heap entry, so
  the calendar holds one object per event, and heap comparisons stay
  element-wise C ``list`` comparisons (``sequence`` is unique, so
  ``fn``/``args`` are never compared).  It is an exact ``list`` and not a
  subclass because CPython 3.11 specialises ``x[i]`` and ``x[i] = v`` only
  for exact lists: on a subclass every subscript takes the generic path,
  several times slower, and the engine makes about 13 per event;
* every schedule builds a fresh list, which the engine never touches
  again once it has fired or been skipped;
* :meth:`Simulator.run` hoists every loop-invariant lookup and re-reads only
  the state a callback can legitimately change (``_stopped``, the observer
  dispatch).

Observation: any number of observers may watch event dispatch through
:meth:`Simulator.add_observer` (the seeded-replay digests and the runtime
invariant checker ride this).  Observers are called with an
:class:`EventView` of each event just before its callback runs and must
never mutate simulation state; with none installed the cost is a single
``is not None`` branch per event.  A periodic reader (the :mod:`repro.obs`
metrics cadence) is a deadline instead (:meth:`Simulator.add_deadline`):
the run loop folds the earliest due time into the ``until`` bound it
compares anyway, so the events between two due times pay nothing.

Every optimization here is digest-gated: ``python -m repro.perf`` replays a
seeded scenario suite and fails on any drift in the event-trace or metrics
digests (see :mod:`repro.analysis.replay`).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

#: Field offsets inside an event list.
TIME, PRIORITY, SEQUENCE, FN, ARGS, CANCELLED = range(6)

#: A scheduled callback, ``[time, priority, sequence, fn, args, cancelled]``.
#: The event :meth:`Simulator.schedule` returns belongs to its holder: the
#: engine never reuses it, so :meth:`Simulator.cancel` may be called on it
#: at any time, before it fires, from its own callback, or after it has
#: fired or been skipped (a no-op then).  A fired event never fires again.
Event = list


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (negative delays, past times)."""


class EventView:
    """What an observer is shown: the event about to run, by field name.

    ``entry`` is the event list itself.  Each simulator reuses one view for
    every dispatch, so an observer that keeps anything must copy it
    (``list(view.entry)``).
    """

    __slots__ = ("entry",)

    def __init__(self, entry: Optional[Event] = None) -> None:
        self.entry = entry

    time = property(lambda self: self.entry[TIME])
    priority = property(lambda self: self.entry[PRIORITY])
    sequence = property(lambda self: self.entry[SEQUENCE])
    fn = property(lambda self: self.entry[FN])
    args = property(lambda self: self.entry[ARGS])
    cancelled = property(lambda self: self.entry[CANCELLED])


#: Signature of :meth:`Simulator.add_observer` observers.
EventHook = Callable[[EventView], None]


class Simulator:
    """Event calendar and clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in seconds.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = start_time
        #: heap of events (each event list is its own heap key).
        self._queue: list[Event] = []
        self._sequence: int = 0
        self._events_executed: int = 0
        self._stopped: bool = False
        self._running: bool = False
        #: ``[due, fn]`` pairs in registration order, and the earliest due.
        self._deadlines: list[list] = []
        self._due: float = math.inf
        # Observers called with each event just before its callback runs
        # (the clock has already advanced to the event's time).  The tuple
        # is replaced wholesale on add/remove, so a dispatch in progress
        # keeps iterating its snapshot; ``_dispatch`` is the hot-path view:
        # None (no observers), the single observer itself, or
        # :meth:`_dispatch_all`.  Every dispatch shows ``_view``, pointed
        # at the event about to run.
        self._observers: tuple[EventHook, ...] = ()
        self._dispatch: Optional[EventHook] = None
        self._view = EventView()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, fn: EventHook) -> EventHook:
        """Register ``fn`` to be called with each event before it executes.

        ``fn`` receives an :class:`EventView`, valid only for the duration
        of the call.  Observers run in registration order and must only
        *observe* — mutating simulation state from an observer voids the
        determinism digests.  Returns ``fn`` so call sites can keep the
        handle for :meth:`remove_observer`.
        """
        self._observers = self._observers + (fn,)
        self._rebuild_dispatch()
        return fn

    def remove_observer(self, fn: EventHook) -> bool:
        """Remove a registered observer; returns False when not installed.

        Safe to call from inside an observer: the dispatch in progress
        finishes over its snapshot, and the removal takes effect from the
        next event on.
        """
        observers = list(self._observers)
        try:
            observers.remove(fn)
        except ValueError:
            return False
        self._observers = tuple(observers)
        self._rebuild_dispatch()
        return True

    @property
    def observers(self) -> tuple[EventHook, ...]:
        """The installed observers, in dispatch order."""
        return self._observers

    def _rebuild_dispatch(self) -> None:
        observers = self._observers
        if not observers:
            self._dispatch = None
        elif len(observers) == 1:
            self._dispatch = observers[0]
        else:
            self._dispatch = self._dispatch_all

    def _dispatch_all(self, event: EventView) -> None:
        # Reads the tuple once; observers added/removed by an observer
        # affect the next event, not this dispatch.
        for fn in self._observers:
            fn(event)

    def add_deadline(self, due: float, fn: Callable[[float], float]) -> None:
        """Call ``fn(t)`` before the first executed event whose time ``t``
        is ``>= due``; ``fn`` returns its next due time.

        It runs once the event is popped and the clock is at ``t``, before
        the observers and the callback; a cancelled event or one past
        ``until`` triggers nothing.  Deadlines due together run in
        registration order.  Like an observer, ``fn`` only observes.
        Adding a deadline while :meth:`run` is running raises.
        """
        if self._running:
            raise SimulationError("add_deadline() called while the simulator is running")
        self._deadlines.append([due, fn])
        self._due = min(self._due, due)

    def _fire_deadlines(self, now: float) -> None:
        due = math.inf
        for deadline in self._deadlines:
            if deadline[0] <= now:
                deadline[0] = deadline[1](now)
            due = min(due, deadline[0])
        self._due = due

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = self._sequence
        self._sequence = seq + 1
        event = [self.now + delay, priority, seq, fn, args, False]
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self.now!r}"
            )
        seq = self._sequence
        self._sequence = seq + 1
        event = [time, priority, seq, fn, args, False]
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: Event) -> None:
        """Mark ``event`` so the engine skips it when popped.

        Drops its callback and arguments at once, so a cancelled event
        that waits in the calendar holds no references; after the event
        has fired this is a no-op (see :data:`Event`).
        """
        event[CANCELLED] = True
        event[FN] = None
        event[ARGS] = ()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue empties, when the next event would pass
        ``until`` (the clock is then advanced to ``until``), after
        ``max_events`` callbacks, or when :meth:`stop` is called from inside
        a callback.  Cancelled placeholders are skipped without counting
        toward ``max_events``.  Due deadlines run before the event that
        reaches them (:meth:`add_deadline`).  Returns the number of events
        executed by this call.
        """
        executed = 0
        self._stopped = False
        queue = self._queue
        pop = heapq.heappop
        view = self._view
        # Hoist the per-iteration Optional checks.  One compare per event
        # covers ``until`` and every deadline: ``bound`` is the earlier of
        # ``until`` and the float just below the earliest due time.
        stop_at = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        bound = min(stop_at, math.nextafter(self._due, -math.inf))
        self._running = True
        try:
            while queue:
                if self._stopped or executed >= limit:
                    break
                if queue[0][TIME] > bound:
                    if queue[0][TIME] > stop_at:
                        self.now = until  # type: ignore[assignment]
                        break
                    event = pop(queue)
                    if event[CANCELLED]:
                        continue
                    self.now = event[TIME]
                    self._fire_deadlines(event[TIME])
                    bound = min(stop_at, math.nextafter(self._due, -math.inf))
                else:
                    event = pop(queue)
                    if event[CANCELLED]:
                        continue
                    self.now = event[TIME]
                # The per-event fast path: one branch when nothing is
                # observing.
                hook = self._dispatch
                if hook is not None:
                    view.entry = event
                    hook(view)
                event[FN](*event[ARGS])
                executed += 1
            else:
                if until is not None and self.now < until:
                    self.now = until
        finally:
            self._running = False
            # Flushed once instead of per event; every reader of
            # ``events_executed`` observes the total after run() returns.
            self._events_executed += executed
        return executed

    def step(self) -> bool:
        """Execute exactly one (non-cancelled) event; return False if empty.

        Like :meth:`run`, respects :meth:`stop`: once a callback has
        requested a stop, further ``step()`` calls execute nothing and
        return False until :meth:`resume` (or a fresh :meth:`run`) clears
        the flag.
        """
        if self._stopped:
            return False
        return self.run(max_events=1) == 1

    def stop(self) -> None:
        """Request that :meth:`run` return after the current callback.

        Also freezes :meth:`step` until :meth:`resume` or the next
        :meth:`run` call (which resets the flag on entry).
        """
        self._stopped = True

    def resume(self) -> None:
        """Clear a :meth:`stop` request so :meth:`step` executes again."""
        self._stopped = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued events, including cancelled placeholders."""
        return len(self._queue)

    @property
    def events_executed(self) -> int:
        """Total callbacks executed over the simulator's lifetime."""
        return self._events_executed

    def compact_head(self) -> int:
        """Discard cancelled events from the head of the queue.

        Cancelled events stay in the heap as placeholders until they
        surface; this pops any that have reached the head so that
        :attr:`pending` and :meth:`peek_time` reflect live work.  Returns
        the number of placeholders discarded.  This is the *only* place
        (besides execution itself) that removes entries from the calendar.
        """
        discarded = 0
        queue = self._queue
        while queue and queue[0][CANCELLED]:
            heapq.heappop(queue)
            discarded += 1
        return discarded

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty.

        Calls :meth:`compact_head` first, so cancelled placeholders at the
        head are dropped — the observable clock/ordering semantics are
        unaffected, but ``pending`` may decrease.
        """
        self.compact_head()
        return self._queue[0][TIME] if self._queue else None
