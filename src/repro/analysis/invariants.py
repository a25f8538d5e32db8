"""Runtime invariant checker for live simulations.

:class:`DebugInvariants` installs on a :class:`~repro.network.fabric.Fabric`
and asserts, while events execute, the properties every refactor of the
engine/fabric/routing stack must preserve:

* **clock monotonicity** — event times never run backwards (checked on
  every executed event via :meth:`Simulator.add_observer`);
* **packet conservation** — every injected data packet is delivered,
  dropped (see ``Fabric.dropped_by_reason``), or still in flight (in the
  calendar or a VC queue); nothing is silently lost or double-counted.
  Retransmitted copies from :class:`~repro.faults.recovery.ReliableTransport`
  each count as their own injected packet, so the ledger balances per wire
  copy even under fault injection;
* **buffer credits** — per-port occupancy equals the queued bytes and
  never goes negative (the credit view: free space never exceeds the
  buffer size);
* **metapath zone-transition legality** — the L/M/H controller (Eq. 3.4 /
  Fig. 3.9) only *opens* paths in the H zone (gradual expansion or a
  replayed solution), only *closes* them in L, keeps the open-path count
  within ``[1, max_paths]``, and classifies zones consistently with the
  thresholds.  Fault rerouting (failed links) is exempt from the zone
  gates — the FT behaviour legitimately reopens paths regardless of zone,
  and ``Metapath.prune`` (closing MSPs that cross dead links) is checked
  only against the ``[1, max_paths]`` bound.

Checks that scan state (conservation, credits) run every
``check_interval_events`` events; the per-event clock check is O(1).
Intended for tests and debugging runs — install via the ``invariants``
pytest fixture (``tests/conftest.py``) or directly::

    inv = DebugInvariants(fabric).install()
    sim.run(until=...)
    inv.assert_drained()

A violated invariant raises :class:`InvariantViolation` (an
``AssertionError`` subclass, so ``pytest.raises(AssertionError)`` also
catches it).  See ``docs/invariants.md`` for the catalogue.
"""

from __future__ import annotations

from typing import Optional

from repro.core.thresholds import Zone
from repro.network.packet import DATA
from repro.sim.engine import ARGS, CANCELLED, FN, Event, EventView


class InvariantViolation(AssertionError):
    """A machine-checked simulation invariant was broken."""


class DebugInvariants:
    """Install-once invariant checker for one fabric + simulator pair."""

    def __init__(self, fabric, check_interval_events: int = 64) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.check_interval_events = max(1, int(check_interval_events))
        self.checks_run = 0
        self.events_seen = 0
        self._last_event_time = float("-inf")
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "DebugInvariants":
        """Hook the simulator and (when present) the DRB-family policy."""
        if self._installed:
            return self
        self._installed = True
        self.sim.add_observer(self._on_event)
        policy = self.fabric.policy
        if hasattr(policy, "flow_state") and hasattr(policy, "flows"):
            self._instrument_policy(policy)
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.sim.remove_observer(self._on_event)
            self._installed = False

    # ------------------------------------------------------------------
    # Event-level checks
    # ------------------------------------------------------------------
    def _on_event(self, event: EventView) -> None:
        time = event.time
        if time < self._last_event_time:
            self._fail(
                f"clock ran backwards: event at t={time!r} after "
                f"t={self._last_event_time!r}"
            )
        if time != self.sim.now:
            self._fail(
                f"engine clock {self.sim.now!r} disagrees with executing "
                f"event time {time!r}"
            )
        self._last_event_time = time
        self.events_seen += 1
        if self.events_seen % self.check_interval_events == 0:
            self.check(current_event=event.entry)

    # ------------------------------------------------------------------
    # State-scan checks
    # ------------------------------------------------------------------
    def check(self, current_event: Optional[Event] = None) -> None:
        """Run every state-scan invariant now."""
        self.checks_run += 1
        self._check_credits()
        self._check_conservation(current_event)

    def _check_credits(self) -> None:
        cfg = self.fabric.config
        for router in self.fabric.routers:
            for port in router.ports.values():
                queued = sum(size for _, _, size in port.queue)
                if port.occupancy_bytes != queued:
                    self._fail(
                        f"router {router.router_id} port ->"
                        f"{port.target_kind}:{port.target}: occupancy_bytes="
                        f"{port.occupancy_bytes} but queue holds {queued} bytes"
                    )
                if port.occupancy_bytes < 0:
                    self._fail(
                        f"router {router.router_id} port ->"
                        f"{port.target_kind}:{port.target}: negative buffer "
                        f"occupancy {port.occupancy_bytes} (credits exceed "
                        f"buffer size {cfg.buffer_size_bytes})"
                    )

    def _in_flight_data(self, current_event: Optional[Event]) -> int:
        """Count DATA packets with a pending arrival/delivery somewhere."""
        fabric = self.fabric
        count = 0

        def _count_event(event: Event) -> int:
            if event[CANCELLED]:
                return 0
            if event[FN] not in (fabric._arrive, fabric._deliver):
                return 0
            return sum(
                1
                for arg in event[ARGS]
                if getattr(arg, "kind", None) == DATA
            )

        for event in self.sim._queue:
            count += _count_event(event)
        if current_event is not None:
            # The event being executed was already popped from the queue
            # but its packet has not been delivered/forwarded yet.
            count += _count_event(current_event)
        vc = getattr(fabric, "_vc", None)
        if vc is not None:
            for state in vc._states.values():
                for queue in state.queues:
                    count += sum(
                        1
                        for packet, _, _ in queue
                        if getattr(packet, "kind", None) == DATA
                    )
        return count

    def _check_conservation(self, current_event: Optional[Event] = None) -> None:
        fabric = self.fabric
        in_flight = self._in_flight_data(current_event)
        unaccounted = (
            fabric.data_packets_injected
            - fabric.data_packets_delivered
            - in_flight
        )
        # ``packets_dropped`` counts drops of any packet kind, so the data
        # share is bounded by it rather than equal to it.
        if not 0 <= unaccounted <= fabric.packets_dropped:
            self._fail(
                "packet conservation broken: injected="
                f"{fabric.data_packets_injected} delivered="
                f"{fabric.data_packets_delivered} in_flight={in_flight} "
                f"dropped(any kind)={fabric.packets_dropped} -> "
                f"{unaccounted} packets unaccounted for"
            )

    def assert_drained(self) -> None:
        """After a quiesced run: no in-flight data, books balanced."""
        in_flight = self._in_flight_data(None)
        if in_flight:
            self._fail(f"{in_flight} data packets still in flight after drain")
        self._check_conservation(None)
        self._check_credits()

    # ------------------------------------------------------------------
    # Metapath / zone legality (DRB-family policies)
    # ------------------------------------------------------------------
    def _instrument_policy(self, policy) -> None:
        original_flow_state = policy.flow_state

        def checked_flow_state(src: int, dst: int):
            fs = original_flow_state(src, dst)
            metapath = fs.metapath
            if not getattr(metapath, "_invariants_wrapped", False):
                self._instrument_metapath(fs, metapath)
            return fs

        policy.flow_state = checked_flow_state

        original_reconfigure = policy._reconfigure

        def checked_reconfigure(fs, now: float) -> None:
            # The zone is classified from the aggregate latency *on entry*;
            # any expand/shrink the step then performs changes the
            # aggregate, so the comparison must use the pre-action value.
            entry_latency = fs.metapath.latency_s()
            expected = fs.thresholds.zone(entry_latency)
            original_reconfigure(fs, now)
            if fs.zone is not expected:
                self._fail(
                    f"zone classification inconsistent for flow "
                    f"({fs.src}->{fs.dst}): state machine says "
                    f"{fs.zone.value}, thresholds say {expected.value} "
                    f"for L(MP)={entry_latency:.3e}s"
                )

        policy._reconfigure = checked_reconfigure

    def _instrument_metapath(self, fs, metapath) -> None:
        metapath._invariants_wrapped = True
        original_expand = metapath.expand
        original_shrink = metapath.shrink
        original_apply = metapath.apply_solution
        original_prune = metapath.prune

        def expand():
            if fs.zone is not Zone.HIGH and not self.fabric.failed_links:
                self._fail(
                    f"metapath expand for flow ({fs.src}->{fs.dst}) in zone "
                    f"{fs.zone.value}; paths may only open in H (Fig. 3.9)"
                )
            result = original_expand()
            self._check_metapath_bounds(fs, metapath)
            return result

        def shrink():
            if fs.zone is not Zone.LOW and not self.fabric.failed_links:
                self._fail(
                    f"metapath shrink for flow ({fs.src}->{fs.dst}) in zone "
                    f"{fs.zone.value}; paths may only close in L (Fig. 3.9)"
                )
            result = original_shrink()
            self._check_metapath_bounds(fs, metapath)
            return result

        def apply_solution(indices):
            if fs.zone is not Zone.HIGH and not self.fabric.failed_links:
                self._fail(
                    f"solution replay for flow ({fs.src}->{fs.dst}) in zone "
                    f"{fs.zone.value}; saved solutions apply on entering H "
                    f"(Fig. 3.10) or during fault rerouting"
                )
            original_apply(indices)
            self._check_metapath_bounds(fs, metapath)

        def prune(dead_indices):
            # Pruning is a fault reaction, not a zone transition, so no
            # zone-legality gate — only the [1, max_paths] bound applies.
            result = original_prune(dead_indices)
            self._check_metapath_bounds(fs, metapath)
            return result

        metapath.expand = expand
        metapath.shrink = shrink
        metapath.apply_solution = apply_solution
        metapath.prune = prune

    def _check_metapath_bounds(self, fs, metapath) -> None:
        if not 1 <= metapath.active_count <= metapath.max_paths:
            self._fail(
                f"flow ({fs.src}->{fs.dst}) has {metapath.active_count} open "
                f"paths; must stay within [1, {metapath.max_paths}]"
            )

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        raise InvariantViolation(
            f"[t={self.sim.now:.6e}s after {self.events_seen} events] {message}"
        )
