"""Fault injector: turns fault models into simulator events.

:class:`FaultInjector` owns the translation from declarative models
(:mod:`repro.faults.models`) to scheduled ``fail_link`` /
``restore_link`` / ``degrade_link`` calls and packet filters on one
fabric.  It also keeps the *fault log* — every transition with its
timestamp — and the repair *episodes* (fail -> restore pairs per link)
that the resilience metrics turn into MTTR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["FaultEpisode", "FaultInjector"]


@dataclass
class FaultEpisode:
    """One closed fail -> restore cycle of a link."""

    link: tuple[int, int]
    failed_at_s: float
    restored_at_s: float = field(default=math.inf)

    @property
    def closed(self) -> bool:
        return math.isfinite(self.restored_at_s)

    @property
    def outage_s(self) -> float:
        return self.restored_at_s - self.failed_at_s


class FaultInjector:
    """Schedules fault events on a fabric and records what happened."""

    def __init__(self, fabric, rng=None) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.rng = rng
        #: chronological (time, action, detail) records of every transition.
        self.log: list[tuple[float, str, str]] = []
        #: closed and still-open repair episodes, in failure order.
        self.episodes: list[FaultEpisode] = []
        self._open: dict[tuple[int, int], FaultEpisode] = {}
        self._filters: list = []

    # ------------------------------------------------------------------
    # Model application
    # ------------------------------------------------------------------
    def apply(self, *models) -> "FaultInjector":
        """Schedule every model's events; returns self for chaining."""
        for model in models:
            model.apply(self)
        return self

    def require_rng(self, who: str):
        if self.rng is None:
            raise ValueError(
                f"{who} is a stochastic fault model and needs the injector "
                "constructed with an injected rng (FaultInjector(fabric, rng=...))"
            )
        return self.rng

    def router_links(self) -> list[tuple[int, int]]:
        """All router-to-router links of the topology, canonically ordered."""
        topology = self.fabric.topology
        seen = set()
        links = []
        for router in range(topology.num_routers):
            for neighbor in sorted(topology.router_neighbors(router)):
                link = (min(router, neighbor), max(router, neighbor))
                if link not in seen:
                    seen.add(link)
                    links.append(link)
        return links

    # ------------------------------------------------------------------
    # Scheduling primitives (models call these)
    # ------------------------------------------------------------------
    def fail_link_at(self, at_s: float, a: int, b: int) -> None:
        self.sim.schedule_at(at_s, self._fail_link, a, b)

    def restore_link_at(self, at_s: float, a: int, b: int) -> None:
        self.sim.schedule_at(at_s, self._restore_link, a, b)

    def flap_link(self, a: int, b: int, at_s: float, duration_s: float) -> None:
        self.fail_link_at(at_s, a, b)
        self.restore_link_at(at_s + duration_s, a, b)

    def degrade_link_at(
        self, at_s: float, a: int, b: int, extra_delay_s: float,
        duration_s: float | None = None,
    ) -> None:
        self.sim.schedule_at(at_s, self._degrade_link, a, b, extra_delay_s)
        if duration_s is not None:
            self.sim.schedule_at(at_s + duration_s, self._restore_quality, a, b)

    def add_packet_filter(self, fn) -> None:
        """Register an injection-point filter (see ``Fabric.fault_filter``);
        the first filter returning an action wins."""
        self._filters.append(fn)
        self.fabric.fault_filter = self._filter

    # ------------------------------------------------------------------
    # Event callbacks
    # ------------------------------------------------------------------
    def _fail_link(self, a: int, b: int) -> None:
        link = (min(a, b), max(a, b))
        self.fabric.fail_link(a, b)
        self.log.append((self.sim.now, "fail", f"link {link[0]}-{link[1]}"))
        self._trace("fault.fail", link)
        if link not in self._open:
            episode = FaultEpisode(link=link, failed_at_s=self.sim.now)
            self._open[link] = episode
            self.episodes.append(episode)

    def _restore_link(self, a: int, b: int) -> None:
        link = (min(a, b), max(a, b))
        self.fabric.restore_link(a, b)
        self.log.append((self.sim.now, "restore", f"link {link[0]}-{link[1]}"))
        self._trace("fault.restore", link)
        episode = self._open.pop(link, None)
        if episode is not None:
            episode.restored_at_s = self.sim.now

    def _degrade_link(self, a: int, b: int, extra_delay_s: float) -> None:
        self.fabric.degrade_link(a, b, extra_delay_s)
        self.log.append(
            (self.sim.now, "degrade",
             f"link {min(a, b)}-{max(a, b)} +{extra_delay_s:.3e}s")
        )
        self._trace(
            "fault.degrade", (min(a, b), max(a, b)), extra_delay_s=extra_delay_s
        )

    def _restore_quality(self, a: int, b: int) -> None:
        self.fabric.restore_link_quality(a, b)
        self.log.append(
            (self.sim.now, "undegrade", f"link {min(a, b)}-{max(a, b)}")
        )
        self._trace("fault.undegrade", (min(a, b), max(a, b)))

    def _trace(self, name: str, link: tuple[int, int], **extra) -> None:
        tracer = self.fabric.tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                name,
                ("fabric", 0),
                args={"link": list(link), **extra},
            )

    def _filter(self, packet, now: float):
        for fn in self._filters:
            action = fn(packet, now)
            if action is not None:
                return action
        return None

    # ------------------------------------------------------------------
    # Repair accounting
    # ------------------------------------------------------------------
    @property
    def failures(self) -> int:
        return len(self.episodes)

    def mttr_s(self) -> float:
        """Mean time to repair over closed episodes.

        0.0 when no fault ever opened (nothing to repair); ``inf`` when
        failures happened but none were repaired (permanent kills).
        """
        closed = [e.outage_s for e in self.episodes if e.closed]
        if closed:
            return sum(closed) / len(closed)
        return math.inf if self.episodes else 0.0
