"""Statistics recorder wired into a fabric.

Collects what the evaluation chapter plots:

* global average latency per Eq. 4.2 (per-destination Eq. 4.1 means);
* a windowed time series of mean packet latency (the latency-vs-time
  curves of Figs 4.12-4.18);
* windowed per-router contention latency (the router curves of
  Figs 4.22-4.23, 4.26, 4.28);
* injected/delivered counters for throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics.latency import GlobalAverageLatency


@dataclass
class TimeSeries:
    """Windowed averages: ``times[i]`` is the window start, ``values[i]``
    the window's mean."""

    window_s: float
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    _sum: float = 0.0
    _count: int = 0
    _window_index: int = -1

    def add(self, t: float, value: float) -> None:
        index = int(t / self.window_s)
        if index != self._window_index:
            self._flush()
            self._window_index = index
        self._sum += value
        self._count += 1

    def _flush(self) -> None:
        if self._window_index >= 0 and self._count:
            self.times.append(self._window_index * self.window_s)
            self.values.append(self._sum / self._count)
        self._sum = 0.0
        self._count = 0

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Close the open window and return (times, values) arrays."""
        self._flush()
        self._window_index = -1
        return np.array(self.times), np.array(self.values)

    def to_dict(self) -> dict:
        """Lossless snapshot, open-window accumulator included.

        Unlike :meth:`finalize` this never mutates: it can run mid-sim
        (the obs cadence snapshots do) without perturbing the series.
        """
        return {
            "window_s": self.window_s,
            "times": list(self.times),
            "values": list(self.values),
            "open_sum": self._sum,
            "open_count": self._count,
            "open_window_index": self._window_index,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSeries":
        series = cls(window_s=float(data["window_s"]))
        series.times = [float(t) for t in data["times"]]
        series.values = [float(v) for v in data["values"]]
        series._sum = float(data["open_sum"])
        series._count = int(data["open_count"])
        series._window_index = int(data["open_window_index"])
        return series


class StatsRecorder:
    """Fabric-attached collector of the paper's metrics."""

    def __init__(
        self,
        window_s: float = 50e-6,
        track_router_series: bool = False,
    ) -> None:
        self.window_s = window_s
        self.track_router_series = track_router_series
        self.global_latency = GlobalAverageLatency()
        self.latency_series = TimeSeries(window_s)
        self.router_series: dict[int, TimeSeries] = {}
        self.packets_delivered = 0
        self.packets_injected = 0
        self.packets_dropped = 0
        self.drops_by_reason: dict[str, int] = {}
        self.latencies: list[float] = []
        self.first_delivery_t: float | None = None
        self.last_delivery_t: float = 0.0

    # ------------------------------------------------------------------
    # Fabric hooks
    # ------------------------------------------------------------------
    def attach(self, fabric) -> None:
        if self.track_router_series:
            for router in fabric.routers:
                router.wait_observer = self._on_router_wait

    def on_data_injected(self, packet, now: float) -> None:
        self.packets_injected += 1

    def on_data_delivered(self, packet, latency_s: float, now: float) -> None:
        self.packets_delivered += 1
        self.global_latency.add(packet.dst, latency_s)
        self.latency_series.add(now, latency_s)
        self.latencies.append(latency_s)
        if self.first_delivery_t is None:
            self.first_delivery_t = now
        self.last_delivery_t = now

    def on_data_dropped(self, packet, reason: str, now: float) -> None:
        self.packets_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    def _on_router_wait(self, router_id: int, now: float, wait_s: float) -> None:
        series = self.router_series.get(router_id)
        if series is None:
            series = self.router_series[router_id] = TimeSeries(self.window_s)
        series.add(now, wait_s)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def mean_latency_s(self) -> float:
        """Plain mean over all delivered packets."""
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    @property
    def global_average_latency_s(self) -> float:
        """Eq. 4.2 global average."""
        return self.global_latency.value_s

    def latency_percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) if self.latencies else 0.0

    def summary(self) -> dict:
        summary = {
            "packets_injected": self.packets_injected,
            "packets_delivered": self.packets_delivered,
            "mean_latency_s": self.mean_latency_s,
            "global_average_latency_s": self.global_average_latency_s,
            "p99_latency_s": self.latency_percentile(99),
        }
        if self.packets_dropped:
            summary["packets_dropped"] = self.packets_dropped
            summary["drops_by_reason"] = {
                reason: self.drops_by_reason[reason]
                for reason in sorted(self.drops_by_reason)
            }
        return summary

    # ------------------------------------------------------------------
    # Serialization (shared by experiment reports and repro.obs snapshots)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless JSON-ready state, windowed series included.

        Never mutates (see :meth:`TimeSeries.to_dict`), so the obs
        cadence can embed it in every snapshot; :meth:`from_dict`
        round-trips exactly.
        """
        return {
            "window_s": self.window_s,
            "track_router_series": self.track_router_series,
            "packets_injected": self.packets_injected,
            "packets_delivered": self.packets_delivered,
            "packets_dropped": self.packets_dropped,
            "drops_by_reason": {
                reason: self.drops_by_reason[reason]
                for reason in sorted(self.drops_by_reason)
            },
            "latencies": list(self.latencies),
            "first_delivery_t": self.first_delivery_t,
            "last_delivery_t": self.last_delivery_t,
            "global_latency": self.global_latency.to_dict(),
            "latency_series": self.latency_series.to_dict(),
            "router_series": {
                str(r): self.router_series[r].to_dict()
                for r in sorted(self.router_series)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StatsRecorder":
        recorder = cls(
            window_s=float(data["window_s"]),
            track_router_series=bool(data["track_router_series"]),
        )
        recorder.packets_injected = int(data["packets_injected"])
        recorder.packets_delivered = int(data["packets_delivered"])
        recorder.packets_dropped = int(data["packets_dropped"])
        recorder.drops_by_reason = dict(data["drops_by_reason"])
        recorder.latencies = [float(v) for v in data["latencies"]]
        first = data["first_delivery_t"]
        recorder.first_delivery_t = None if first is None else float(first)
        recorder.last_delivery_t = float(data["last_delivery_t"])
        recorder.global_latency = GlobalAverageLatency.from_dict(
            data["global_latency"]
        )
        recorder.latency_series = TimeSeries.from_dict(data["latency_series"])
        for router, encoded in data["router_series"].items():
            recorder.router_series[int(router)] = TimeSeries.from_dict(encoded)
        return recorder
