"""Thread-safe fan-out bus carrying live telemetry to subscribers.

The serving layer (:mod:`repro.serve`) watches a running sweep from
*outside* the simulation: the orchestrator's progress hooks and each
cell's :class:`~repro.obs.metrics.MetricsRegistry` cadence snapshots are
published into a :class:`MetricsBus`, and every HTTP subscriber (an SSE
stream, the dashboard, a test) reads its own bounded queue.

The contract: a slow or stalled consumer must never slow the
simulation down.  ``publish``
never blocks — when a subscriber's queue is full the event is dropped
*for that subscriber only* and its ``dropped`` counter incremented.  The
publishing thread (the one executing simulation cells) therefore runs at
the same speed whether zero, one, or fifty subscribers are attached, and
whether they are keeping up or not.

Events are plain JSON-safe dicts::

    {"seq": <global sequence>, "type": "progress" | "cell.metrics" | "job",
     "job": <job id or None>, "data": {...}}

``seq`` is a bus-global monotonically increasing integer, so a consumer
can detect its own gaps (its subscription's ``dropped`` counter says how
many it lost).  Nothing here reads wall clocks or RNG; timestamps, when
present, live inside ``data`` and are stamped by the publisher.
"""

from __future__ import annotations

import queue
import threading
from typing import Optional

__all__ = ["BusSubscription", "MetricsBus", "DEFAULT_QUEUE_SIZE"]

#: per-subscriber queue bound; beyond it, events drop for that subscriber.
DEFAULT_QUEUE_SIZE = 1024


class BusSubscription:
    """One consumer's bounded view of the bus stream.

    Filters are applied at publish time (cheaper than shipping and
    discarding): ``job`` restricts to one job's events plus job-less
    broadcasts, ``types`` to an event-type allowlist.  ``get`` blocks the
    *consumer*; the publisher only ever calls the non-blocking ``offer``.
    """

    __slots__ = ("job", "types", "queue", "dropped", "delivered", "closed")

    def __init__(
        self,
        job: Optional[str] = None,
        types: Optional[tuple] = None,
        maxsize: int = DEFAULT_QUEUE_SIZE,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.job = job
        self.types = None if types is None else tuple(types)
        self.queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self.dropped = 0
        self.delivered = 0
        self.closed = False

    # -- publisher side (never blocks) ----------------------------------
    def wants(self, event: dict) -> bool:
        if self.types is not None and event["type"] not in self.types:
            return False
        if self.job is not None:
            event_job = event.get("job")
            if event_job is not None and event_job != self.job:
                return False
        return True

    def offer(self, event: dict) -> bool:
        """Enqueue without blocking; count a drop when the queue is full."""
        try:
            self.queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1
            return False
        self.delivered += 1
        return True

    # -- consumer side --------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Next event, or None on timeout (the SSE heartbeat path)."""
        try:
            return self.queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def drain(self) -> list:
        """Every event currently queued, without blocking."""
        events = []
        while True:
            try:
                events.append(self.queue.get_nowait())
            except queue.Empty:
                return events

    def close(self) -> None:
        self.closed = True


class MetricsBus:
    """Publish/subscribe fan-out with bounded, lossy per-subscriber queues.

    All methods are safe to call from any thread.  The subscriber list is
    copied under the lock and iterated outside it, so a publish can never
    deadlock against a subscribe — and the lock is held only for list
    bookkeeping, never while enqueueing.
    """

    def __init__(self, maxsize: int = DEFAULT_QUEUE_SIZE) -> None:
        self.maxsize = maxsize
        self.published = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._subscribers: list[BusSubscription] = []

    # ------------------------------------------------------------------
    def subscribe(
        self,
        job: Optional[str] = None,
        types: Optional[tuple] = None,
        maxsize: Optional[int] = None,
    ) -> BusSubscription:
        subscription = BusSubscription(
            job=job, types=types,
            maxsize=self.maxsize if maxsize is None else maxsize,
        )
        with self._lock:
            self._subscribers.append(subscription)
        return subscription

    def unsubscribe(self, subscription: BusSubscription) -> None:
        subscription.close()
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    def publish(self, type: str, data: dict, job: Optional[str] = None) -> dict:
        """Fan ``data`` out to every matching subscriber; returns the event.

        Never blocks and never raises for consumer-side problems: a full
        queue increments that subscription's ``dropped`` counter and the
        event is lost for that subscriber only.
        """
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "type": type, "job": job, "data": data}
            self.published += 1
            subscribers = list(self._subscribers)
        for subscription in subscribers:
            if not subscription.closed and subscription.wants(event):
                subscription.offer(event)
        return event

    # ------------------------------------------------------------------
    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def dropped_total(self) -> int:
        """Events lost across all current subscribers' queues."""
        with self._lock:
            return sum(s.dropped for s in self._subscribers)

    def stats(self) -> dict:
        with self._lock:
            return {
                "published": self.published,
                "subscribers": len(self._subscribers),
                "dropped": sum(s.dropped for s in self._subscribers),
                "delivered": sum(s.delivered for s in self._subscribers),
            }
