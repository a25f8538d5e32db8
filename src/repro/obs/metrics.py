"""Counters, gauges, histograms, and the cadence-snapshotting registry.

A :class:`MetricsRegistry` aggregates three primitive kinds plus
*providers* (callables returning whole sub-dicts, e.g. a policy's
``stats()``), and can snapshot itself on a configurable **sim-time**
cadence.  The cadence is an engine deadline
(:meth:`~repro.sim.engine.Simulator.add_deadline`), not events of its
own — so attaching a registry never changes the event digests: the event
stream a traced and an untraced run execute is bit-identical
(``tests/test_obs_instrument.py::TestNonPerturbation`` asserts it), and
the events between two snapshots pay nothing for the cadence.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from repro.obs.tracer import TraceRecord

#: default latency-style histogram bucket bounds, in seconds.
DEFAULT_BOUNDS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2,
)


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time reading, pulled from a callable at snapshot time."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return self.fn()


class Histogram:
    """Fixed-bound bucket histogram (one overflow bucket past the last
    bound), with running count and sum for mean reconstruction."""

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds=DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Named metrics plus periodic sim-time snapshots.

    Snapshot layout::

        {"t": <sim seconds>,
         "counters": {name: int, ...},
         "gauges": {name: float, ...},
         "histograms": {name: {bounds, counts, count, sum}, ...},
         <provider-name>: <provider dict>, ...}

    All maps are emitted in sorted-name order so serialized snapshots are
    canonical.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._providers: dict[str, Callable[[], dict]] = {}
        self.snapshots: list[dict] = []
        self.cadence_s: Optional[float] = None
        self._next_due = 0.0
        #: called with each snapshot dict right after it is recorded — the
        #: live-telemetry egress (:class:`repro.obs.bus.MetricsBus` rides
        #: it).  Observation only: the callback sees a finished snapshot
        #: and must not touch simulation state.
        self.on_snapshot: Optional[Callable[[dict], None]] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        gauge = self._gauges[name] = Gauge(name, fn)
        return gauge

    def histogram(self, name: str, bounds=DEFAULT_BOUNDS) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def provider(self, name: str, fn: Callable[[], dict]) -> None:
        """Register a callable whose dict result is embedded in every
        snapshot under ``name`` (e.g. a policy's ``stats()``)."""
        if name in ("t", "counters", "gauges", "histograms"):
            raise ValueError(f"provider name {name!r} shadows a snapshot key")
        self._providers[name] = fn

    def bind_recorder(self, recorder) -> None:
        """Share the experiment recorder's serialization: every snapshot
        embeds :meth:`repro.metrics.recorder.StatsRecorder.to_dict`."""
        self.provider("recorder", recorder.to_dict)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, now: float) -> dict:
        """Record and return a snapshot of every metric at sim time ``now``."""
        snap: dict = {"t": now}
        snap["counters"] = {
            name: c.value for name, c in sorted(self._counters.items())
        }
        snap["gauges"] = {
            name: g.read() for name, g in sorted(self._gauges.items())
        }
        snap["histograms"] = {
            name: h.to_dict() for name, h in sorted(self._histograms.items())
        }
        for name, fn in sorted(self._providers.items()):
            snap[name] = fn()
        self.snapshots.append(snap)
        if self.on_snapshot is not None:
            self.on_snapshot(snap)
        return snap

    def attach(self, sim, cadence_s: float) -> None:
        """Snapshot every ``cadence_s`` sim-seconds, driven by the event
        stream: an engine deadline fires every due snapshot before the
        first event at or past its due time (stamped at its due time, so
        cadence timestamps are stable regardless of event spacing).

        Deliberately *not* implemented with scheduled events: a deadline
        leaves the event queue — and therefore the replay digests —
        untouched.
        """
        if cadence_s <= 0:
            raise ValueError("cadence_s must be > 0")
        self.cadence_s = cadence_s
        self._next_due = sim.now + cadence_s

        def on_due(t: float) -> float:
            while t >= self._next_due:
                self.snapshot(self._next_due)
                self._next_due += cadence_s
            return self._next_due

        sim.add_deadline(self._next_due, on_due)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Cadence snapshots plus a counters/histograms tail reading.

        (Gauges/providers read live state that may be torn down by the
        time ``to_dict`` is called, so only the passive primitives appear
        in the tail; the snapshots carry the full picture.)
        """
        return {
            "cadence_s": self.cadence_s,
            "snapshots": list(self.snapshots),
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.to_dict() for name, h in sorted(self._histograms.items())
            },
        }


class CountingSink:
    """Tracer sink that folds the event stream into a registry.

    Every record increments ``trace.<name>``; two argument-bearing events
    additionally feed histograms (delivery latency, CFD wait), so the
    registry keeps distributions without keeping the records.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics
        #: event name -> its ``trace.<name>`` counter in ``metrics``.
        self._counters: dict[str, Counter] = {}

    def write(self, record: TraceRecord) -> None:
        _ts, name, _track, _ph, _dur, args = record
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.metrics.counter(f"trace.{name}")
        counter.value += 1
        if args is None:
            return
        if name == "packet.deliver":
            latency = args.get("latency_s")
            if latency is not None:
                self.metrics.histogram("packet.latency_s").observe(latency)
        elif name == "router.contention":
            wait = args.get("wait_s")
            if wait is not None:
                self.metrics.histogram("router.wait_s").observe(wait)
