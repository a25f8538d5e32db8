"""Latency-trend congestion prediction (§5.2 further work).

The thesis proposes, as an extension, using the latency *trend* to start
the predictive module before Threshold_High is actually crossed: "with
enough historic latency values and traffic information, PR-DRB could
predict future congestion before it actually arises".

:class:`TrendDetector` keeps a sliding window of (time, latency) samples,
fits a least-squares slope, and projects the latency ``lead_s`` seconds
ahead; :meth:`TrendDetector.projected` feeding the zone thresholds gives
the early trigger.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class TrendDetector:
    """Sliding-window linear trend over latency samples."""

    def __init__(self, window: int = 8, min_samples: int = 4) -> None:
        if window < 2 or min_samples < 2:
            raise ValueError("need window >= 2 and min_samples >= 2")
        self.window = window
        self.min_samples = min(min_samples, window)
        self._samples: deque[tuple[float, float]] = deque(maxlen=window)

    def add(self, t: float, latency_s: float) -> None:
        """Fold in one (time, latency) observation."""
        self._samples.append((t, latency_s))

    @property
    def ready(self) -> bool:
        return len(self._samples) >= self.min_samples

    def slope(self) -> float:
        """Least-squares latency slope, seconds of latency per second.

        0.0 until enough samples have arrived or when all samples share
        one timestamp.
        """
        if not self.ready:
            return 0.0
        t = np.array([s[0] for s in self._samples])
        y = np.array([s[1] for s in self._samples])
        t = t - t[0]
        denom = ((t - t.mean()) ** 2).sum()
        if denom <= 0:
            return 0.0
        return float(((t - t.mean()) * (y - y.mean())).sum() / denom)

    def projected(self, lead_s: float) -> float:
        """Latency expected ``lead_s`` seconds after the latest sample."""
        if not self._samples:
            return 0.0
        latest = self._samples[-1][1]
        if not self.ready:
            return latest
        return max(0.0, latest + self.slope() * lead_s)

    def reset(self) -> None:
        self._samples.clear()
