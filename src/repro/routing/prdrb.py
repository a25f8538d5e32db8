"""Predictive and Distributed Routing Balancing — PR-DRB (Chapter 3).

PR-DRB layers the predictive procedures (§3.2.6) on DRB:

* every flow accumulates the contending-flow reports arriving with ACKs
  (or router-injected predictive ACKs) into a congestion *signature*;
* on entering the **H** zone, the per-flow solution database is consulted
  (Fig. 3.10): a >= 80 %-similar saved pattern re-applies its whole path
  set at once — otherwise the flow falls back to DRB's gradual opening and
  starts a *learning episode*;
* when congestion is controlled (H -> M/L) the episode's signature and the
  path set that tamed it are saved/updated as the best known solution
  (Fig. 3.14).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.solutions import SolutionDatabase
from repro.core.thresholds import Zone
from repro.core.trend import TrendDetector
from repro.network.packet import DATA, Packet
from repro.routing.drb import DRBConfig, DRBPolicy, FlowState


@dataclass
class PRDRBConfig(DRBConfig):
    """DRB tunables plus the predictive-module knobs."""

    #: minimum signature similarity for reusing a saved solution (paper: 0.8).
    match_threshold: float = 0.8
    #: enable the §5.2 latency-trend extension: trigger the predictive
    #: procedures when the projected latency will cross Threshold_High,
    #: before it actually does.
    trend_detection: bool = False
    #: sliding-window length for the trend fit.
    trend_window: int = 8
    #: projection horizon, seconds (roughly one notification round-trip).
    trend_lead_s: float = 100e-6


class PRDRBPolicy(DRBPolicy):
    """DRB + congestion-pattern learning and solution reuse."""

    name = "pr-drb"

    def __init__(
        self,
        config: PRDRBConfig | None = None,
        rng=None,
    ) -> None:
        super().__init__(config or PRDRBConfig(), rng=rng)
        self.databases: dict[tuple[int, int], SolutionDatabase] = {}
        #: per-flow latency-trend detectors (only when trend_detection).
        self.trends: dict[tuple[int, int], TrendDetector] = {}
        # Predictive counters (Figs 4.26 / 4.28 report these).
        self.solutions_applied = 0
        self.solutions_saved = 0
        self.trend_triggers = 0
        self.solutions_invalidated = 0
        #: database consultations that found no reusable solution.
        #: Observability-only (repro.obs hit-rate reporting) — deliberately
        #: absent from :meth:`stats`/:meth:`pattern_stats`, whose keys are
        #: frozen into the replay metric digests.
        self.solutions_missed = 0

    # ------------------------------------------------------------------
    def database(self, src: int, dst: int) -> SolutionDatabase:
        key = (src, dst)
        db = self.databases.get(key)
        if db is None:
            db = SolutionDatabase(match_threshold=self.config.match_threshold)
            self.databases[key] = db
        return db

    # ------------------------------------------------------------------
    # Predictive congestion handling (Fig. 3.10 / §3.2.6)
    # ------------------------------------------------------------------
    def _on_congestion(self, fs: FlowState, now: float) -> bool:
        signature = self.current_signature(fs, now)
        fs.learning_signature = signature if signature else None
        if signature:
            solution = self.database(fs.src, fs.dst).lookup(signature)
            if solution is not None:
                fs.metapath.apply_solution(solution.path_indices)
                self.solutions_applied += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        "prediction.hit",
                        ("flow", f"{fs.src}-{fs.dst}"),
                        args={
                            "paths": len(solution.path_indices),
                            "flows": len(signature),
                        },
                    )
                return True
            self.solutions_missed += 1
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "prediction.miss",
                    ("flow", f"{fs.src}-{fs.dst}"),
                    args={"flows": len(signature)},
                )
        # Unknown pattern: fall back to DRB's gradual opening and learn.
        return super()._on_congestion(fs, now)

    def _on_controlled(self, fs: FlowState, now: float) -> None:
        # A solution is only worth remembering when alternative paths are
        # actually open; a bare original path re-applied on recurrence
        # would suppress the expansion the congestion needs.
        if fs.learning_signature and len(fs.metapath.active_indices) > 1:
            # Merit = how fast this configuration turned the latency curve
            # around (episode duration), not the latency at the crossing.
            duration = (
                now - fs.high_entry_time if fs.high_entry_time >= 0 else 0.0
            )
            self.database(fs.src, fs.dst).save(
                fs.learning_signature,
                fs.metapath.active_indices,
                duration,
            )
            self.solutions_saved += 1
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "prediction.save",
                    ("flow", f"{fs.src}-{fs.dst}"),
                    args={
                        "duration_s": duration,
                        "paths": len(fs.metapath.active_indices),
                    },
                )
        fs.learning_signature = None

    # ------------------------------------------------------------------
    # Fault reaction: saved solutions must not re-open dead paths
    # ------------------------------------------------------------------
    def on_drop(self, packet: Packet, reason: str, now: float) -> None:
        super().on_drop(packet, reason, now)
        if packet.kind != DATA or not self.fabric.failed_links:
            return
        key = (packet.src, packet.dst)
        db = self.databases.get(key)
        fs = self.flows.get(key)
        if db is None or fs is None or not db.solutions:
            return
        metapath = fs.metapath
        invalidated = db.invalidate(
            lambda i: self.fabric.path_alive(metapath.path_for(i))
        )
        self.solutions_invalidated += invalidated
        if self.tracer is not None and invalidated:
            self.tracer.emit(
                now,
                "prediction.invalidate",
                ("flow", f"{packet.src}-{packet.dst}"),
                args={"count": invalidated, "reason": reason},
            )

    # ------------------------------------------------------------------
    # Notification-triggered speculation
    # ------------------------------------------------------------------
    def on_ack(self, ack: Packet, now: float) -> None:
        """Destination-based notification (§3.2.2).

        An ACK carrying a predictive header means a router flagged this
        flow as congested — that *is* the congestion notification, so the
        speculative reaction fires immediately instead of waiting for the
        smoothed metapath latency to cross Threshold_High.
        """
        had_contending = bool(ack.contending)
        super().on_ack(ack, now)
        fs = self.flow_state(ack.dst, ack.src)
        trigger = had_contending
        if self.config.trend_detection and not trigger:
            trigger = self._trend_predicts_congestion(fs, now)
        if not trigger:
            return
        if fs.zone is Zone.HIGH:
            return  # the regular FSM already handled it
        if now - fs.last_reconfig < self.config.reconfig_cooldown_s:
            return
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "zone.transition",
                ("flow", f"{fs.src}-{fs.dst}"),
                args={"from": fs.zone.value, "to": Zone.HIGH.value, "cause": "ack"},
            )
        fs.zone = Zone.HIGH
        fs.high_entry_time = now
        fs.pending_high_entry = False
        if self._on_congestion(fs, now):
            fs.last_reconfig = now

    def _trend_predicts_congestion(self, fs, now: float) -> bool:
        """§5.2 extension: will the latency trend cross Threshold_High?"""
        key = (fs.src, fs.dst)
        trend = self.trends.get(key)
        if trend is None:
            trend = TrendDetector(window=self.config.trend_window)
            self.trends[key] = trend
        trend.add(now, fs.metapath.latency_s())
        if not trend.ready or trend.slope() <= 0:
            return False
        if trend.projected(self.config.trend_lead_s) > fs.thresholds.high_s:
            self.trend_triggers += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Router-based early notification (§3.4.1)
    # ------------------------------------------------------------------
    def on_predictive_ack(self, pack: Packet, now: float) -> None:
        """React to a router-injected notification before any data ACK.

        The packet names the flows contending at the congested router; the
        ones this source originates get immediate congestion handling —
        the speculative part of PR-DRB.
        """
        mine = [f for f in pack.contending if f.src == pack.dst and f.dst != f.src]
        for flow in mine:
            fs = self.flow_state(flow.src, flow.dst)
            self._merge_contending(fs, pack.contending, now)
            if now - fs.last_reconfig < self.config.reconfig_cooldown_s:
                continue
            if fs.zone is not Zone.HIGH:
                fs.high_entry_time = now
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        "zone.transition",
                        ("flow", f"{fs.src}-{fs.dst}"),
                        args={
                            "from": fs.zone.value,
                            "to": Zone.HIGH.value,
                            "cause": "predictive_ack",
                        },
                    )
            fs.zone = Zone.HIGH
            fs.pending_high_entry = False
            if self._on_congestion(fs, now):
                fs.last_reconfig = now

    # ------------------------------------------------------------------
    # Warm start — the paper's "static variation" (§5.2): routers may be
    # given offline meta-information about known congestion patterns so
    # the very first occurrence is already handled predictively.
    # ------------------------------------------------------------------
    def export_solutions(self) -> dict:
        """Serialize every flow's solution database (JSON-ready)."""
        return {
            f"{src}-{dst}": db.to_dict()
            for (src, dst), db in self.databases.items()
            if db.solutions
        }

    def import_solutions(self, data: dict) -> int:
        """Pre-load solution databases; returns the pattern count loaded."""
        loaded = 0
        for key, encoded in data.items():
            src_str, _, dst_str = key.partition("-")
            db = SolutionDatabase.from_dict(encoded)
            self.databases[(int(src_str), int(dst_str))] = db
            loaded += db.patterns_learned
        return loaded

    # ------------------------------------------------------------------
    def pattern_stats(self) -> dict:
        """Aggregate solution-database statistics across all flows."""
        learned = sum(db.patterns_learned for db in self.databases.values())
        reapplied = sum(db.patterns_reapplied for db in self.databases.values())
        reuses = sum(db.total_reuses for db in self.databases.values())
        return {
            "patterns_learned": learned,
            "patterns_reapplied": reapplied,
            "total_reuses": reuses,
            "solutions_applied": self.solutions_applied,
            "solutions_saved": self.solutions_saved,
            "trend_triggers": self.trend_triggers,
            "solutions_invalidated": self.solutions_invalidated,
        }

    def stats(self) -> dict:
        out = super().stats()
        out.update(self.pattern_stats())
        return out
