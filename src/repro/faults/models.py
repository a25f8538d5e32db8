"""Fault models: declarative descriptions of failure processes.

Each model is a frozen dataclass with an ``apply(injector)`` method that
translates it into simulator events (or packet filters) through a
:class:`~repro.faults.injector.FaultInjector`.  Models compose freely
with any scenario: they only touch the fabric through the same
``fail_link`` / ``restore_link`` / ``degrade_link`` surface available to
tests, plus the injection-point fault filter for notification loss.

Two families:

* **scheduled** — :class:`LinkFlap`, :class:`LinkKill`,
  :class:`RouterKill`, :class:`DegradedLink` fire at explicit times
  (reproducible by construction);
* **stochastic** — :class:`StochasticLinkFlaps` draws an MTBF/MTTR
  renewal process and :class:`AckLoss` drops/delays notification packets
  Bernoulli-style, both from the injector's *injected* RNG stream, so a
  seeded campaign replays bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.network.fabric import DROP_ACK_LOSS
from repro.network.packet import ACK, PREDICTIVE_ACK

__all__ = [
    "LinkFlap",
    "LinkKill",
    "RouterKill",
    "DegradedLink",
    "AckLoss",
    "StochasticLinkFlaps",
]


@dataclass(frozen=True)
class LinkFlap:
    """A transient link failure: down at ``at_s``, back after ``duration_s``."""

    a: int
    b: int
    at_s: float
    duration_s: float

    def apply(self, injector) -> None:
        injector.flap_link(self.a, self.b, self.at_s, self.duration_s)


@dataclass(frozen=True)
class LinkKill:
    """A permanent link failure starting at ``at_s``."""

    a: int
    b: int
    at_s: float

    def apply(self, injector) -> None:
        injector.fail_link_at(self.at_s, self.a, self.b)


@dataclass(frozen=True)
class RouterKill:
    """A permanent router failure: every adjacent link dies at ``at_s``."""

    router: int
    at_s: float

    def apply(self, injector) -> None:
        for neighbor in sorted(injector.fabric.topology.router_neighbors(self.router)):
            injector.fail_link_at(self.at_s, self.router, neighbor)


@dataclass(frozen=True)
class DegradedLink:
    """A link that stays up but gains ``extra_delay_s`` of propagation
    delay from ``at_s`` (for ``duration_s`` seconds; forever if None)."""

    a: int
    b: int
    extra_delay_s: float
    at_s: float
    duration_s: float | None = None

    def apply(self, injector) -> None:
        injector.degrade_link_at(
            self.at_s, self.a, self.b, self.extra_delay_s, self.duration_s
        )


@dataclass(frozen=True)
class AckLoss:
    """Notification-plane faults: ACK / predictive-ACK loss and delay.

    Within ``[start_s, end_s)`` each notification packet is independently
    dropped with ``drop_probability``, else delayed by ``delay_s`` with
    ``delay_probability`` — the regime where notification-based
    congestion management degrades and FR-DRB's watchdog matters.
    Data packets are never touched by this model.
    """

    drop_probability: float = 0.1
    start_s: float = 0.0
    end_s: float = math.inf
    delay_probability: float = 0.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if not 0.0 <= self.delay_probability <= 1.0 - self.drop_probability:
            raise ValueError(
                "delay_probability must fit beside drop_probability in [0, 1]"
            )

    def apply(self, injector) -> None:
        rng = injector.require_rng("AckLoss")
        injector.add_packet_filter(_AckLossFilter(self, rng))


class _AckLossFilter:
    """Callable filter for :class:`AckLoss`."""

    __slots__ = ("model", "rng")

    def __init__(self, model: "AckLoss", rng) -> None:
        self.model = model
        self.rng = rng

    def __call__(self, packet, now):
        model = self.model
        if packet.kind not in (ACK, PREDICTIVE_ACK):
            return None
        if not model.start_s <= now < model.end_s:
            return None
        draw = self.rng.random()
        if draw < model.drop_probability:
            return ("drop", DROP_ACK_LOSS)
        if draw < model.drop_probability + model.delay_probability:
            return ("delay", model.delay_s)
        return None


@dataclass(frozen=True)
class StochasticLinkFlaps:
    """An MTBF/MTTR renewal process of transient link failures.

    Failure inter-arrival times are exponential with mean ``mtbf_s``;
    each failure picks a uniformly random router link and repairs after
    an exponential ``mttr_s`` outage.  The whole schedule is drawn up
    front from the injector's RNG, so it is independent of the traffic
    interleaving and replays exactly.
    """

    mtbf_s: float
    mttr_s: float
    start_s: float = 0.0
    end_s: float = math.inf
    max_failures: int = 64

    def __post_init__(self) -> None:
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")

    def apply(self, injector) -> None:
        rng = injector.require_rng("StochasticLinkFlaps")
        links = injector.router_links()
        t = self.start_s
        for _ in range(self.max_failures):
            t += float(rng.exponential(self.mtbf_s))
            if t >= self.end_s:
                break
            a, b = links[int(rng.integers(len(links)))]
            outage = float(rng.exponential(self.mttr_s))
            injector.flap_link(a, b, t, outage)
