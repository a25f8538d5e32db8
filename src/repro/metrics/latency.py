"""Latency averaging (Eqs 4.1 and 4.2).

Eq. 4.1 is the per-destination incremental mean:
``L_i[x] = (l_i[x] + (x-1) * L_i[x-1]) / x``; Eq. 4.2 averages those
per-destination means over the ``n`` destination nodes.
"""

from __future__ import annotations


class RunningAverage:
    """Incremental mean per Eq. 4.1 (numerically stable form)."""

    __slots__ = ("count", "mean")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0

    def add(self, value: float) -> float:
        """Fold in one sample; returns the updated mean."""
        self.count += 1
        # Algebraically identical to Eq. 4.1: mean += (x - mean) / n.
        self.mean += (value - self.mean) / self.count
        return self.mean

    def __float__(self) -> float:
        return self.mean

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean}

    @classmethod
    def from_dict(cls, data: dict) -> "RunningAverage":
        avg = cls()
        avg.count = int(data["count"])
        avg.mean = float(data["mean"])
        return avg


class GlobalAverageLatency:
    """Eq. 4.2: average over the per-destination-node averages."""

    def __init__(self) -> None:
        self._per_destination: dict[int, RunningAverage] = {}

    def add(self, destination: int, latency_s: float) -> None:
        avg = self._per_destination.get(destination)
        if avg is None:
            avg = RunningAverage()
            self._per_destination[destination] = avg
        avg.add(latency_s)

    @property
    def value_s(self) -> float:
        """Current global average latency, seconds (0.0 with no samples)."""
        if not self._per_destination:
            return 0.0
        total = sum(avg.mean for avg in self._per_destination.values())
        return total / len(self._per_destination)

    @property
    def destinations(self) -> int:
        return len(self._per_destination)

    @property
    def samples(self) -> int:
        return sum(avg.count for avg in self._per_destination.values())

    def per_destination(self) -> dict[int, float]:
        return {d: avg.mean for d, avg in self._per_destination.items()}

    def to_dict(self) -> dict:
        """Lossless JSON-ready form (destination keys become strings)."""
        return {
            str(d): self._per_destination[d].to_dict()
            for d in sorted(self._per_destination)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GlobalAverageLatency":
        gal = cls()
        for dest, encoded in data.items():
            gal._per_destination[int(dest)] = RunningAverage.from_dict(encoded)
        return gal
