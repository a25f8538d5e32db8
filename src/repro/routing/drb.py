"""Distributed Routing Balancing (DRB) — the adaptive base algorithm
(Franco et al.; §3.2.3-3.2.6 describe the mechanics PR-DRB inherits).

Each source keeps a per-destination :class:`~repro.core.metapath.Metapath`.
Destination ACKs report the measured queueing latency of each data packet;
the source smooths them per MSP (Eq. 3.3), aggregates them (Eq. 3.4) and
moves through the L/M/H zones (Fig. 3.9): entering **H** opens one more
alternative path, falling to **L** closes one.  Message injections pick an
open MSP with Eq. 3.6's inverse-latency PDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.contending import make_signature
from repro.core.metapath import Metapath
from repro.core.selection import select_msp
from repro.core.thresholds import Thresholds, Zone
from repro.network.packet import DATA, ContendingFlow, Packet
from repro.routing.base import RoutingPolicy
from repro.sim.rng import seeded_generator
from repro.topology.base import Path


@dataclass
class DRBConfig:
    """Tunables of the DRB family."""

    #: maximum simultaneous alternative paths (paper: 4).
    max_paths: int = 4
    #: EMA factor for ACK latency smoothing.
    ema_alpha: float = 0.5
    #: Threshold_Low = low_factor * zero-load path latency.  Must sit above
    #: the harmonic floor of two open zero-load paths (~0.5x) or the
    #: closing transition of Fig. 3.9 becomes unreachable.
    low_factor: float = 0.75
    #: Threshold_High = high_factor * zero-load path latency.
    high_factor: float = 1.5
    #: minimum gap between metapath reconfigurations of one flow, seconds
    #: (lets freshly opened paths accumulate ACK evidence first).
    reconfig_cooldown_s: float = 50e-6
    #: window over which reported contending flows form the current
    #: congestion signature, seconds.
    signature_window_s: float = 200e-6
    #: paths close only when the flow's offered rate falls below this
    #: fraction of one link's bandwidth.  Eq. 3.4's aggregate drops below
    #: Threshold_Low precisely when an open metapath is doing its job, so
    #: latency alone cannot distinguish "burst absorbed" from "burst
    #: over"; the paper closes paths when traffic demand subsides, and
    #: this gate encodes that.
    shrink_max_utilization: float = 0.5
    #: RNG seed for the Eq. 3.6 path draw.
    seed: int = 0


class FlowState:
    """Per (source, destination) routing state at the source node."""

    __slots__ = (
        "src",
        "dst",
        "metapath",
        "thresholds",
        "zone",
        "last_reconfig",
        "recent_flows",
        "learning_signature",
        "outstanding",
        "last_ack_time",
        "last_send_time",
        "pending_high_entry",
        "offered_bps",
        "high_entry_time",
    )

    def __init__(self, src: int, dst: int, metapath: Metapath, thresholds: Thresholds):
        self.src = src
        self.dst = dst
        self.metapath = metapath
        self.thresholds = thresholds
        self.zone = Zone.LOW
        self.last_reconfig = -1.0
        #: recently reported contending flows: flow -> last report time.
        self.recent_flows: dict[ContendingFlow, float] = {}
        #: signature captured when congestion handling started (None when
        #: not in a learning episode).
        self.learning_signature = None
        self.outstanding = 0
        self.last_ack_time = 0.0
        #: -1.0 until the first injection.
        self.last_send_time = -1.0
        #: a fresh H entry awaits its (predictive) congestion handling.
        self.pending_high_entry = False
        #: smoothed offered rate of this flow, bits per second.
        self.offered_bps = 0.0
        #: time the current congestion (H) episode started; -1 when none.
        self.high_entry_time = -1.0


class DRBPolicy(RoutingPolicy):
    """Adaptive multipath balancing with gradual path opening."""

    name = "drb"
    wants_acks = True

    def __init__(
        self,
        config: DRBConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.config = config or DRBConfig()
        # An injected generator (e.g. a RandomStreams stream) wins; the
        # default stays bit-compatible with the historical per-policy seed.
        self._rng = rng if rng is not None else seeded_generator(self.config.seed)
        self.flows: dict[tuple[int, int], FlowState] = {}
        # Counters for the evaluation reports.
        self.expansions = 0
        self.shrinks = 0
        self.paths_pruned = 0

    # ------------------------------------------------------------------
    # Flow state management
    # ------------------------------------------------------------------
    def _per_hop_cost_s(self) -> float:
        cfg = self.fabric.config
        return cfg.packet_tx_time_s + cfg.routing_delay_s + cfg.link_delay_s

    def flow_state(self, src: int, dst: int) -> FlowState:
        key = (src, dst)
        fs = self.flows.get(key)
        if fs is None:
            candidates = self.topology.alternative_paths(src, dst, self.config.max_paths)
            metapath = Metapath(
                candidates,
                per_hop_cost_s=self._per_hop_cost_s(),
                alpha=self.config.ema_alpha,
            )
            thresholds = Thresholds.from_base_latency(
                metapath.original.transmission_s,
                low_factor=self.config.low_factor,
                high_factor=self.config.high_factor,
            )
            fs = FlowState(src, dst, metapath, thresholds)
            self.flows[key] = fs
        return fs

    # ------------------------------------------------------------------
    # Injection-side: Eq. 3.6 selection
    # ------------------------------------------------------------------
    def select_path(self, src: int, dst: int, size_bytes: int, now: float) -> tuple[Path, int]:
        fs = self.flow_state(src, dst)
        # The watchdog hook sees the pre-send state: "packets outstanding
        # and no ACK yet" refers to earlier sends, not this one.
        self._pre_send(fs, now)
        fs.outstanding += 1
        gap = now - fs.last_send_time
        if fs.last_send_time >= 0 and gap > 0:
            rate = size_bytes * 8 / gap
            fs.offered_bps = 0.7 * fs.offered_bps + 0.3 * rate
        fs.last_send_time = now
        idx = select_msp(fs.metapath, self._rng)
        if self.fabric.failed_links:
            idx = self._route_around_faults(fs, idx)
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "msp.select",
                ("flow", f"{src}-{dst}"),
                args={"idx": idx, "active": fs.metapath.active_count},
            )
        return fs.metapath.path_for(idx), idx

    def _route_around_faults(self, fs: FlowState, idx: int) -> int:
        """Steer the selection off failed links (the FT-DRB behaviour:
        the metapath's redundancy doubles as fault tolerance)."""
        fabric = self.fabric
        if fabric.path_alive(fs.metapath.path_for(idx)):
            return idx
        alive = [
            i
            for i in fs.metapath.active_indices
            if fabric.path_alive(fs.metapath.path_for(i))
        ]
        if not alive:
            # Open any surviving candidate path.
            for i in range(fs.metapath.max_paths):
                if fabric.path_alive(fs.metapath.path_for(i)):
                    fs.metapath.apply_solution((i,))
                    alive = [i]
                    break
        if alive:
            return alive[0]
        return idx  # no live candidate: the fabric will account the drop

    def _pre_send(self, fs: FlowState, now: float) -> None:
        """Subclass hook run before each injection (FR-DRB watchdog)."""

    # ------------------------------------------------------------------
    # Notification-side: metapath configuration (Fig. 3.8 / Alg. A.2)
    # ------------------------------------------------------------------
    def on_ack(self, ack: Packet, now: float) -> None:
        # The ACK's destination is the original data source.
        fs = self.flow_state(ack.dst, ack.src)
        fs.outstanding = max(0, fs.outstanding - 1)
        fs.last_ack_time = now
        fs.metapath.record_ack(ack.acked_msp_index, ack.path_latency)
        if ack.contending:
            self._merge_contending(fs, ack.contending, now)
        self._reconfigure(fs, now)

    # ------------------------------------------------------------------
    # Fault reaction (NACK/timeout path, §3.3.2 made dynamic)
    # ------------------------------------------------------------------
    def on_drop(self, packet: Packet, reason: str, now: float) -> None:
        """A dropped data packet is this model's NACK: prune every active
        MSP that crosses a currently-failed link so subsequent selections
        (including the transport's retransmissions) avoid the fault."""
        if packet.kind != DATA or not self.fabric.failed_links:
            return
        fs = self.flows.get((packet.src, packet.dst))
        if fs is None:
            return
        dead = [
            i
            for i in fs.metapath.active_indices
            if not self.fabric.path_alive(fs.metapath.path_for(i))
        ]
        if dead:
            pruned = fs.metapath.prune(dead)
            self.paths_pruned += pruned
            if self.tracer is not None and pruned:
                self.tracer.emit(
                    now,
                    "msp.prune",
                    ("flow", f"{packet.src}-{packet.dst}"),
                    args={"pruned": pruned, "reason": reason},
                )

    def on_timeout(self, src: int, dst: int, now: float) -> None:
        """The transport declared an outstanding packet lost: its ACK will
        never arrive, so rebalance the per-flow outstanding count."""
        fs = self.flows.get((src, dst))
        if fs is not None:
            fs.outstanding = max(0, fs.outstanding - 1)

    def _merge_contending(
        self, fs: FlowState, flows: list[ContendingFlow], now: float
    ) -> None:
        for flow in flows:
            fs.recent_flows[flow] = now

    def current_signature(self, fs: FlowState, now: float):
        """Contending flows reported within the signature window."""
        horizon = now - self.config.signature_window_s
        stale = [f for f, t in fs.recent_flows.items() if t < horizon]
        for f in stale:
            del fs.recent_flows[f]
        return make_signature(fs.recent_flows)

    def _reconfigure(self, fs: FlowState, now: float) -> None:
        """Metapath configuration step (§3.2.4 / Fig. 3.12).

        Reconfiguration is *level-based*, per the Eq. 3.4 rules: while
        L(MP) sits above Threshold_High another path opens (one per
        cooldown interval — "opening one path at a time and evaluating
        the effect"); below Threshold_Low paths close.  Zone *edges*
        additionally drive the predictive procedures: a fresh entry into
        H consults the solution database (PR-DRB), and leaving H saves
        the configuration that controlled the congestion.
        """
        latency = fs.metapath.latency_s()
        new_zone = fs.thresholds.zone(latency)
        old_zone = fs.zone
        fs.zone = new_zone
        tracer = self.tracer
        if tracer is not None and new_zone is not old_zone:
            tracer.emit(
                now,
                "zone.transition",
                ("flow", f"{fs.src}-{fs.dst}"),
                args={
                    "from": old_zone.value,
                    "to": new_zone.value,
                    "latency_s": latency,
                },
            )
        if old_zone is Zone.HIGH and new_zone is not Zone.HIGH:
            if tracer is not None and fs.high_entry_time >= 0:
                # The whole controlled-congestion span, as one X slice.
                tracer.emit(
                    fs.high_entry_time,
                    "congestion.episode",
                    ("flow", f"{fs.src}-{fs.dst}"),
                    ph="X",
                    dur=now - fs.high_entry_time,
                    args={"active": fs.metapath.active_count},
                )
            # Congestion controlled: record the solution (no cooldown —
            # saving touches no network state).
            self._on_controlled(fs, now)
            fs.high_entry_time = -1.0
        if new_zone is Zone.HIGH and old_zone is not Zone.HIGH:
            fs.pending_high_entry = True
            fs.high_entry_time = now
        if now - fs.last_reconfig < self.config.reconfig_cooldown_s:
            return
        if new_zone is Zone.HIGH:
            if fs.pending_high_entry:
                fs.pending_high_entry = False
                if self._on_congestion(fs, now):
                    fs.last_reconfig = now
            elif (
                not self._demand_is_low(fs)
                and fs.metapath.evaluated()
                and self._expand(fs, now)
            ):
                # Sustained saturation: widen further, but only after the
                # previous opening's effect was evaluated via ACKs, and
                # only while the flow is actually offering load (a stale
                # high EMA during the idle phase must not open paths).
                fs.last_reconfig = now
        elif new_zone is Zone.LOW:
            if self._demand_is_low(fs) and fs.metapath.shrink():
                self.shrinks += 1
                if tracer is not None:
                    tracer.emit(
                        now,
                        "msp.close",
                        ("flow", f"{fs.src}-{fs.dst}"),
                        args={"active": fs.metapath.active_count},
                    )
                fs.last_reconfig = now

    def _demand_is_low(self, fs: FlowState) -> bool:
        limit = (
            self.config.shrink_max_utilization
            * self.fabric.config.link_bandwidth_bps
        )
        return fs.offered_bps < limit

    def _expand(self, fs: FlowState, now: float) -> bool:
        if fs.metapath.expand():
            self.expansions += 1
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "msp.open",
                    ("flow", f"{fs.src}-{fs.dst}"),
                    args={"active": fs.metapath.active_count},
                )
            return True
        return False

    # ------------------------------------------------------------------
    # Subclass hooks (PR-DRB overrides both)
    # ------------------------------------------------------------------
    def _on_congestion(self, fs: FlowState, now: float) -> bool:
        """Entering H: open one more path.  Returns True when acted."""
        return self._expand(fs, now)

    def _on_controlled(self, fs: FlowState, now: float) -> None:
        """Leaving H downward: DRB itself does nothing here."""

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        active = [fs.metapath.active_count for fs in self.flows.values()]
        return {
            "policy": self.name,
            "flows": len(self.flows),
            "expansions": self.expansions,
            "shrinks": self.shrinks,
            "paths_pruned": self.paths_pruned,
            "mean_active_paths": float(np.mean(active)) if active else 1.0,
            "max_active_paths": max(active) if active else 1,
        }
