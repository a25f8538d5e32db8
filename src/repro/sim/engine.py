"""Core discrete-event simulation engine.

A :class:`Simulator` owns a priority queue of :class:`Event` records ordered
by ``(time, priority, sequence)``.  Model components schedule callbacks with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.schedule_at`
(absolute time).  The sequence number guarantees deterministic FIFO ordering
among simultaneous events, which keeps whole simulations reproducible for a
given seed — a requirement for the paper's repeated-burst experiments, where
run-to-run comparability matters.

Hot-path design (see docs/performance.md for the measured ledger):

* an :class:`Event` *is* its own heap entry — a ``list`` subclass laid out
  as ``[time, priority, sequence, fn, args, cancelled]`` — so the calendar
  holds one object per event instead of a ``(key, Event)`` pair, heap
  comparisons stay element-wise C ``list`` comparisons (``sequence`` is
  unique, so ``fn``/``args`` are never compared), and the dispatch loop
  indexes fields instead of chasing attributes;
* executed and cancelled-skipped events are recycled through a freelist, so
  steady-state simulation allocates no event objects at all;
* :meth:`Simulator.run` hoists every loop-invariant lookup and re-reads only
  the state a callback can legitimately change (``_stopped``, the observer
  dispatch).

Observation: any number of observers may watch event dispatch through
:meth:`Simulator.add_observer` (the seeded-replay digests, the runtime
invariant checker, and the :mod:`repro.obs` metrics cadence all ride this).
Observers are called with each event just before its callback runs and must
never mutate simulation state; with none installed the cost is a single
``is not None`` branch per event.

Every optimization here is digest-gated: ``python -m repro.perf`` replays a
seeded scenario suite and fails on any drift in the event-trace or metrics
digests (see :mod:`repro.analysis.replay`).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

#: Signature of :meth:`Simulator.add_observer` observers.
EventHook = Callable[["Event"], None]

#: Field offsets inside an :class:`Event` heap entry.
_TIME, _PRIORITY, _SEQUENCE, _FN, _ARGS, _CANCELLED = range(6)


def _never(*_args: Any) -> None:  # pragma: no cover - must never fire
    raise AssertionError("recycled event fired with a cleared callback")


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (negative delays, past times)."""


class Event(list):
    """A scheduled callback: ``[time, priority, sequence, fn, args, cancelled]``.

    Ordering is by ``time``, then ``priority`` (lower first), then insertion
    ``sequence`` so that ties resolve FIFO.  The event is pushed onto the
    calendar heap *directly*; ``list`` comparison resolves the ordering in C
    without ever reaching the non-comparable ``fn``/``args`` fields because
    ``sequence`` is unique per simulator.

    Lifetime contract: the handle returned by :meth:`Simulator.schedule` is
    valid for :meth:`cancel` until the event has fired (cancelling from
    inside the event's own callback is also safe — recycling happens only
    after the callback returns).  Once the callback has run, the engine may
    *reuse* the object for a future, unrelated event; holders must therefore
    drop (or overwrite) their reference when the callback fires and must not
    cancel an event they know has already executed.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[_TIME]

    @time.setter
    def time(self, value: float) -> None:
        self[_TIME] = value

    @property
    def priority(self) -> int:
        return self[_PRIORITY]

    @priority.setter
    def priority(self, value: int) -> None:
        self[_PRIORITY] = value

    @property
    def sequence(self) -> int:
        return self[_SEQUENCE]

    @sequence.setter
    def sequence(self, value: int) -> None:
        self[_SEQUENCE] = value

    @property
    def fn(self) -> Callable[..., None]:
        return self[_FN]

    @fn.setter
    def fn(self, value: Callable[..., None]) -> None:
        self[_FN] = value

    @property
    def args(self) -> tuple:
        return self[_ARGS]

    @args.setter
    def args(self, value: tuple) -> None:
        self[_ARGS] = value

    @property
    def cancelled(self) -> bool:
        return self[_CANCELLED]

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        self[_CANCELLED] = value

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self[_CANCELLED] = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self[_CANCELLED] else "live"
        return (
            f"<Event t={self[_TIME]!r} prio={self[_PRIORITY]} "
            f"seq={self[_SEQUENCE]} {state}>"
        )


class Simulator:
    """Event calendar and clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in seconds.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = start_time
        #: heap of :class:`Event` entries (each event is its own heap key).
        self._queue: list[Event] = []
        #: recycled events awaiting reuse; bounds allocation to the peak
        #: number of simultaneously pending events.
        self._free: list[Event] = []
        self._sequence: int = 0
        self._events_executed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        # Observers called with each event just before its callback runs
        # (the clock has already advanced to the event's time).  The tuple
        # is replaced wholesale on add/remove, so a dispatch in progress
        # keeps iterating its snapshot; ``_dispatch`` is the hot-path view:
        # None (no observers), the single observer itself, or
        # :meth:`_dispatch_all`.
        self._observers: tuple[EventHook, ...] = ()
        self._dispatch: Optional[EventHook] = None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, fn: EventHook) -> EventHook:
        """Register ``fn`` to be called with each event before it executes.

        Observers run in registration order and must only *observe* —
        mutating simulation state from an observer voids the determinism
        digests.  Returns ``fn`` so call sites can keep the handle for
        :meth:`remove_observer`.
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

    def _dispatch_all(self, event: "Event") -> None:
        # Reads the tuple once; observers added/removed by an observer
        # affect the next event, not this dispatch.
        for fn in self._observers:
            fn(event)

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
        time = self.now + delay
        seq = self._sequence
        self._sequence = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event[_TIME] = time
            event[_PRIORITY] = priority
            event[_SEQUENCE] = seq
            event[_FN] = fn
            event[_ARGS] = args
            event[_CANCELLED] = False
        else:
            event = Event((time, priority, seq, fn, args, False))
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
        free = self._free
        if free:
            event = free.pop()
            event[_TIME] = time
            event[_PRIORITY] = priority
            event[_SEQUENCE] = seq
            event[_FN] = fn
            event[_ARGS] = args
            event[_CANCELLED] = False
        else:
            event = Event((time, priority, seq, fn, args, False))
        heapq.heappush(self._queue, event)
        return event

    def _recycle(self, event: Event) -> None:
        """Return a popped event to the freelist with its payload cleared.

        Clearing ``fn``/``args`` guarantees a recycled event can never fire
        with a stale callback and releases references promptly; a late
        :meth:`Event.cancel` on a freelisted event is harmless because
        scheduling resets the flag.
        """
        event[_FN] = _never
        event[_ARGS] = ()
        self._free.append(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue empties, when the next event would pass
        ``until`` (the clock is then advanced to ``until``), after
        ``max_events`` callbacks, or when :meth:`stop` is called from inside
        a callback.  Cancelled placeholders are skipped without counting
        toward ``max_events``.  Returns the number of events executed by
        this call.
        """
        executed = 0
        self._running = True
        self._stopped = False
        queue = self._queue
        free = self._free
        pop = heapq.heappop
        # Hoist the per-iteration Optional checks: an infinite bound makes
        # ``event_time > bound`` unreachable when no limit was given, and
        # the ``self.now = until`` assignment under it then never runs.
        bound = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        try:
            while queue:
                if self._stopped or executed >= limit:
                    break
                event = queue[0]
                if event[_TIME] > bound:
                    self.now = until  # type: ignore[assignment]
                    break
                pop(queue)
                if event[_CANCELLED]:
                    event[_FN] = _never
                    event[_ARGS] = ()
                    free.append(event)
                    continue
                self.now = event[_TIME]
                # The per-event fast path: one branch when nothing is
                # observing.
                hook = self._dispatch
                if hook is not None:
                    hook(event)
                fn = event[_FN]
                args = event[_ARGS]
                fn(*args)
                executed += 1
                # Recycle only after the callback ran: a cancel() from
                # inside the callback must stay a harmless no-op.
                event[_FN] = _never
                event[_ARGS] = ()
                free.append(event)
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
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)
            if event[_CANCELLED]:
                self._recycle(event)
                continue
            self.now = event[_TIME]
            hook = self._dispatch
            if hook is not None:
                hook(event)
            event[_FN](*event[_ARGS])
            self._events_executed += 1
            self._recycle(event)
            return True
        return False

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
        while queue and queue[0][_CANCELLED]:
            self._recycle(heapq.heappop(queue))
            discarded += 1
        return discarded

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty.

        Calls :meth:`compact_head` first, so cancelled placeholders at the
        head are dropped — the observable clock/ordering semantics are
        unaffected, but ``pending`` may decrease.
        """
        self.compact_head()
        return self._queue[0][_TIME] if self._queue else None
