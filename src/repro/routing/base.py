"""Routing-policy interface.

A policy is consulted by the fabric at message injection
(:meth:`RoutingPolicy.select_path`) and fed the notification stream
(:meth:`RoutingPolicy.on_ack`, :meth:`RoutingPolicy.on_predictive_ack`).
All policies here are source-routed: they hand the fabric a concrete
router path, which matches the paper's multi-header MSP mechanism — the
per-segment minimal routes are resolved when the metapath is built, so
routers only execute HDP forwarding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.network.packet import Packet
from repro.topology.base import Path

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import Fabric


class RoutingPolicy:
    """Base class; subclasses override path selection and learning hooks."""

    #: machine name used in reports.
    name: str = "abstract"
    #: whether destinations should return ACK packets to sources.
    wants_acks: bool = False

    def __init__(self) -> None:
        self.fabric: Optional["Fabric"] = None
        #: optional :class:`repro.obs.tracer.Tracer`; policy decisions
        #: (zone transitions, MSP changes, predictions) emit through it.
        self.tracer = None

    # ------------------------------------------------------------------
    def attach(self, fabric: "Fabric") -> None:
        """Bind the policy to a fabric (topology, clock, config access)."""
        self.fabric = fabric

    @property
    def topology(self):
        if self.fabric is None:
            raise RuntimeError("policy not attached to a fabric")
        return self.fabric.topology

    # ------------------------------------------------------------------
    def select_path(self, src: int, dst: int, size_bytes: int, now: float) -> tuple[Path, int]:
        """Return ``(router path, msp_index)`` for a message injection."""
        raise NotImplementedError

    def on_ack(self, ack: Packet, now: float) -> None:
        """Source-side handling of a destination ACK (latency + flows)."""

    def on_predictive_ack(self, pack: Packet, now: float) -> None:
        """Source-side handling of a router-injected predictive ACK."""

    def on_drop(self, packet: Packet, reason: str, now: float) -> None:
        """Fabric notification that ``packet`` was dropped (``reason`` is a
        ``Fabric.dropped_by_reason`` key).  DRB-family policies use this as
        the NACK signal to prune metapaths crossing dead links."""

    def on_timeout(self, src: int, dst: int, now: float) -> None:
        """Reliable-transport notification that an outstanding packet of
        flow ``(src, dst)`` timed out or was abandoned — the matching ACK
        will never arrive, so per-flow outstanding books must rebalance."""

    def tick(self, now: float) -> None:
        """Optional periodic hook (FR-DRB watchdog timers)."""

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Policy-specific counters for reports; subclasses extend."""
        return {"policy": self.name}
