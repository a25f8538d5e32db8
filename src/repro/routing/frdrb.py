"""Fast-Response DRB (FR-DRB) and its predictive variant (§4.8.4).

FR-DRB adds a watchdog timer: when a flow has outstanding packets and no
ACK has arrived within the timeout, congestion is assumed and path opening
starts *without* waiting for the notification round-trip.  The thesis uses
FR-DRB to show PR-DRB's modularity: the predictive solution database can
sit on top of any DRB descendant, so this class exposes both the plain
(``predictive=False``) and predictive (``predictive=True``) variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.thresholds import Zone
from repro.network.packet import DATA
from repro.routing.drb import DRBPolicy, FlowState
from repro.routing.prdrb import PRDRBConfig, PRDRBPolicy


@dataclass
class FRDRBConfig(PRDRBConfig):
    """PR-DRB tunables plus the watchdog timeout."""

    #: seconds without an ACK (with packets outstanding) before the
    #: watchdog declares congestion.
    watchdog_timeout_s: float = 150e-6


class FRDRBPolicy(PRDRBPolicy):
    """DRB with watchdog-triggered opening; optionally predictive."""

    def __init__(
        self,
        config: FRDRBConfig | None = None,
        predictive: bool = False,
        rng=None,
    ) -> None:
        super().__init__(config or FRDRBConfig(), rng=rng)
        self.predictive = predictive
        self.name = "pr-fr-drb" if predictive else "fr-drb"
        self.watchdog_fires = 0
        self.nack_reactions = 0

    # ------------------------------------------------------------------
    def _pre_send(self, fs: FlowState, now: float) -> None:
        """Watchdog check, piggybacked on injections (no ACK needed)."""
        timeout = self.config.watchdog_timeout_s
        reference = max(fs.last_ack_time, fs.last_reconfig)
        if (
            fs.outstanding > 0
            and fs.last_send_time >= 0.0
            and now - reference > timeout
            and now - fs.last_reconfig >= self.config.reconfig_cooldown_s
        ):
            self.watchdog_fires += 1
            if self.tracer is not None:
                track = ("flow", f"{fs.src}-{fs.dst}")
                self.tracer.emit(
                    now,
                    "policy.watchdog",
                    track,
                    args={"outstanding": fs.outstanding, "silent_s": now - reference},
                )
                if fs.zone is not Zone.HIGH:
                    self.tracer.emit(
                        now,
                        "zone.transition",
                        track,
                        args={
                            "from": fs.zone.value,
                            "to": Zone.HIGH.value,
                            "cause": "watchdog",
                        },
                    )
            fs.zone = Zone.HIGH
            if self._on_congestion(fs, now):
                fs.last_reconfig = now

    # ------------------------------------------------------------------
    # Fast response to NACKs: a dropped data packet is as strong a signal
    # as a missing ACK, so congestion handling fires without waiting for
    # the watchdog timeout.
    # ------------------------------------------------------------------
    def on_drop(self, packet, reason: str, now: float) -> None:
        super().on_drop(packet, reason, now)
        if packet.kind != DATA:
            return
        fs = self.flows.get((packet.src, packet.dst))
        if fs is None or now - fs.last_reconfig < self.config.reconfig_cooldown_s:
            return
        self.nack_reactions += 1
        if self.tracer is not None:
            track = ("flow", f"{fs.src}-{fs.dst}")
            self.tracer.emit(
                now, "policy.nack_reaction", track, args={"reason": reason}
            )
            if fs.zone is not Zone.HIGH:
                self.tracer.emit(
                    now,
                    "zone.transition",
                    track,
                    args={
                        "from": fs.zone.value,
                        "to": Zone.HIGH.value,
                        "cause": "nack",
                    },
                )
        if fs.zone is not Zone.HIGH:
            fs.high_entry_time = now
        fs.zone = Zone.HIGH
        fs.pending_high_entry = False
        if self._on_congestion(fs, now):
            fs.last_reconfig = now

    # ------------------------------------------------------------------
    # With predictive=False the solution database is bypassed: FR-DRB
    # reduces to DRB-with-watchdog, matching the thesis' comparison.
    # ------------------------------------------------------------------
    def _on_congestion(self, fs: FlowState, now: float) -> bool:
        if self.predictive:
            return super()._on_congestion(fs, now)
        return DRBPolicy._on_congestion(self, fs, now)

    def _on_controlled(self, fs: FlowState, now: float) -> None:
        if self.predictive:
            super()._on_controlled(fs, now)

    def on_predictive_ack(self, pack, now: float) -> None:
        if self.predictive:
            super().on_predictive_ack(pack, now)

    def stats(self) -> dict:
        out = super().stats()
        out["watchdog_fires"] = self.watchdog_fires
        out["nack_reactions"] = self.nack_reactions
        out["predictive"] = self.predictive
        return out
