"""ARN-style notified-adaptive routing (arXiv:2502.00616).

Adaptive Routing Notifications invert the DRB family's learning loop:
instead of smoothing per-MSP ACK latencies, the *congested router* tells
the sources feeding it to get out of the way, and the source reacts by
escalating the whole (source zone, destination zone) pair from minimal
to Valiant routing.  When the notifications stop, the pair decays back
to minimal after a quiet hold — the decay doubles as the watchdog that
keeps the policy live when notification packets are lost or delayed
(:mod:`repro.faults` ACK-loss models drop PREDICTIVE_ACKs too).

Zones are dragonfly groups when the topology has them (the escalation
unit of the ARN paper) and plain routers otherwise, so the policy also
runs on meshes and trees, where ``alternative_paths`` element 0 is the
minimal path and the rest stand in for Valiant detours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.thresholds import Zone
from repro.network.packet import ContendingFlow, Packet
from repro.routing.base import RoutingPolicy
from repro.sim.rng import seeded_generator
from repro.topology.base import Path


@dataclass
class NotifiedConfig:
    """Tunables of the notified-adaptive policy."""

    #: candidate paths per pair, minimal included (dragonfly Valiant
    #: detours, generic MSP alternatives elsewhere).
    max_paths: int = 4
    #: seconds after the last notification before a pair decays back to
    #: minimal routing.  Doubles as the loss watchdog: a pair can never
    #: stay escalated longer than this past the last *delivered*
    #: notification, no matter how many were dropped.
    hold_s: float = 200e-6
    #: RNG seed for the Valiant detour draw.
    seed: int = 0


class PairZoneState:
    """Escalation state of one (source zone, destination zone) pair."""

    __slots__ = ("escalated", "last_notify", "notifications")

    def __init__(self) -> None:
        self.escalated = False
        self.last_notify = -1.0
        self.notifications = 0


class NotifiedAdaptivePolicy(RoutingPolicy):
    """Escalate minimal -> Valiant per zone pair on router notification."""

    name = "notified-adaptive"
    #: router-based notification only fires for ACK-consuming policies
    #: (``Fabric._router_congestion`` gates on this).
    wants_acks = True

    def __init__(
        self,
        config: NotifiedConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.config = config or NotifiedConfig()
        self._rng = rng if rng is not None else seeded_generator(self.config.seed)
        #: (src zone, dst zone) -> escalation state.
        self.pairs: dict[tuple[int, int], PairZoneState] = {}
        self._candidates: dict[tuple[int, int], list[Path]] = {}
        self.escalations = 0
        self.reversions = 0
        self.notifications = 0
        self.minimal_routed = 0
        self.valiant_routed = 0

    # ------------------------------------------------------------------
    # Zone mapping
    # ------------------------------------------------------------------
    def _zone_of_host(self, host: int) -> int:
        topo = self.topology
        group_of = getattr(topo, "group_of", None)
        router = topo.host_router(host)
        if group_of is not None:
            return group_of(router)
        return router

    def _pair_key(self, src: int, dst: int) -> tuple[int, int]:
        return (self._zone_of_host(src), self._zone_of_host(dst))

    def _pair(self, key: tuple[int, int]) -> PairZoneState:
        st = self.pairs.get(key)
        if st is None:
            st = self.pairs[key] = PairZoneState()
        return st

    def _paths(self, src: int, dst: int) -> list[Path]:
        key = (src, dst)
        paths = self._candidates.get(key)
        if paths is None:
            paths = self.topology.alternative_paths(src, dst, self.config.max_paths)
            self._candidates[key] = paths
        return paths

    # ------------------------------------------------------------------
    # Injection side
    # ------------------------------------------------------------------
    def select_path(self, src: int, dst: int, size_bytes: int, now: float) -> tuple[Path, int]:
        key = self._pair_key(src, dst)
        st = self._pair(key)
        if st.escalated and now - st.last_notify > self.config.hold_s:
            # Quiet hold elapsed: the congestion the routers shouted
            # about is gone (or the notifications are — either way
            # minimal routing is the right default again).
            st.escalated = False
            self.reversions += 1
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "zone.transition",
                    ("pair", f"{key[0]}-{key[1]}"),
                    args={
                        "from": Zone.HIGH.value,
                        "to": Zone.LOW.value,
                        "cause": "quiet",
                    },
                )
        paths = self._paths(src, dst)
        if st.escalated and len(paths) > 1:
            idx = 1 + int(self._rng.integers(len(paths) - 1))
            self.valiant_routed += 1
        else:
            idx = 0
            self.minimal_routed += 1
        return paths[idx], idx

    # ------------------------------------------------------------------
    # Notification side
    # ------------------------------------------------------------------
    def _escalate(self, target_src: int, flows: list[ContendingFlow], now: float) -> None:
        """Escalate every pair of ours named in a congestion report.

        ``target_src`` is the host the notification was addressed to; the
        report's contending list tells us *which* of its destinations sit
        behind the congested port.
        """
        for flow in flows:
            if flow.src != target_src:
                continue
            key = self._pair_key(flow.src, flow.dst)
            st = self._pair(key)
            st.notifications += 1
            st.last_notify = now
            if not st.escalated:
                st.escalated = True
                self.escalations += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        "zone.transition",
                        ("pair", f"{key[0]}-{key[1]}"),
                        args={
                            "from": Zone.LOW.value,
                            "to": Zone.HIGH.value,
                            "cause": "notify",
                        },
                    )

    def on_predictive_ack(self, pack: Packet, now: float) -> None:
        self.notifications += 1
        self._escalate(pack.dst, pack.contending, now)

    def on_ack(self, ack: Packet, now: float) -> None:
        # Destination-based notification: contending flows ride the ACK
        # home (§3.2.2), so the policy also works without router support.
        if ack.contending:
            self.notifications += 1
            self._escalate(ack.dst, ack.contending, now)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "policy": self.name,
            "pairs": len(self.pairs),
            "escalations": self.escalations,
            "reversions": self.reversions,
            "notifications": self.notifications,
            "minimal_routed": self.minimal_routed,
            "valiant_routed": self.valiant_routed,
        }
