"""Multistep paths (§3.2.3, Eqs 3.1-3.3).

A :class:`MultiStepPath` is one concrete alternative route of a metapath:
the concatenation of minimal segments through intermediate nodes (already
resolved to a full router path by the topology).  It tracks a smoothed
latency estimate fed by ACK notifications: Eq. 3.3 decomposes path latency
into transmission time (a function of length, known statically) plus the
accumulated queueing delay (measured by the routers' LU modules).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.base import Path


@dataclass
class MultiStepPath:
    """One alternative path with its live latency estimate."""

    path: Path
    #: static per-hop cost: serialization + routing delay, seconds.
    per_hop_cost_s: float
    #: exponential-smoothing factor for ACK latency samples.
    alpha: float = 0.5
    #: smoothed queueing delay (the dynamic part of Eq. 3.3).
    queueing_s: float = 0.0
    #: number of ACK samples folded in.
    samples: int = 0
    #: True while the path is open but no ACK has confirmed its latency
    #: yet — the "evaluate the effect" gate of the paper's gradual opening.
    awaiting_ack: bool = False
    _latency_s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if len(self.path) < 1:
            raise ValueError("a path needs at least one router")
        self._latency_s = self.transmission_s

    @property
    def length(self) -> int:
        """Hop count (Eq. 3.2: sum of the minimal segments' lengths)."""
        return len(self.path) - 1

    @property
    def transmission_s(self) -> float:
        """Static transmission component of Eq. 3.3.

        ``length + 1`` link crossings (router-to-router hops plus the final
        delivery link) keeps single-router paths from having zero cost.
        """
        return (self.length + 1) * self.per_hop_cost_s

    @property
    def latency_s(self) -> float:
        """Current Eq. 3.3 estimate: transmission + smoothed queueing."""
        return self._latency_s

    def record(self, queueing_s: float) -> None:
        """Fold an ACK-reported queueing delay into the estimate."""
        if queueing_s < 0:
            raise ValueError("negative queueing delay")
        if self.samples == 0:
            self.queueing_s = queueing_s
        else:
            self.queueing_s = (
                self.alpha * queueing_s + (1.0 - self.alpha) * self.queueing_s
            )
        self.samples += 1
        self.awaiting_ack = False
        self._latency_s = self.transmission_s + self.queueing_s

    def reset(self, seed_queueing_s: float = 0.0) -> None:
        """Forget measurements (used when a path is re-opened).

        ``seed_queueing_s`` pre-loads the estimate with the congestion
        level observed on the paths already open; without it a fresh path
        looks zero-loaded and the metapath aggregate (Eq. 3.4) collapses
        below Threshold_Low the instant a path opens, thrashing the zone
        FSM.
        """
        if seed_queueing_s > 0:
            self.queueing_s = seed_queueing_s
            self.samples = 1
        else:
            self.queueing_s = 0.0
            self.samples = 0
        self.awaiting_ack = True
        self._latency_s = self.transmission_s + self.queueing_s
