"""Runtime invariant checker: healthy runs pass, corrupted state trips."""

import pytest

from repro.analysis.invariants import DebugInvariants, InvariantViolation
from repro.core.thresholds import Zone
from repro.metrics.recorder import StatsRecorder
from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.routing import make_policy
from repro.sim.engine import TIME, EventView, Simulator
from repro.sim.rng import RandomStreams
from repro.topology.mesh import Mesh2D
from repro.traffic.bursty import BurstSchedule
from repro.traffic.generators import HotSpotFlow, HotSpotWorkload


def build_fabric(policy_name="pr-drb", seed=0, config=None, side=4):
    streams = RandomStreams(seed)
    sim = Simulator()
    recorder = StatsRecorder(window_s=2.5e-5)
    try:
        policy = make_policy(policy_name, rng=streams.stream("routing"))
    except TypeError:
        policy = make_policy(policy_name)
    fabric = Fabric(
        Mesh2D(side),
        config or NetworkConfig(),
        policy,
        sim,
        recorder=recorder,
        notification="router",
    )
    return fabric, sim, streams


def drive_hotspot(fabric, sim, streams, repetitions=2):
    n = fabric.topology.num_hosts
    flows = [HotSpotFlow(0, n - 3), HotSpotFlow(4, n - 3), HotSpotFlow(1, n - 1)]
    schedule = BurstSchedule(on_s=1.5e-4, off_s=1.5e-4, repetitions=repetitions)
    workload = HotSpotWorkload(
        fabric,
        flows,
        rate_bps=1.2e9,
        schedule=schedule,
        stop_s=schedule.end_time(),
        noise_hosts=range(n),
        noise_rate_bps=3e7,
        rng=streams.stream("noise"),
        idle_rate_bps=2e8,
    )
    workload.start()
    sim.run(until=schedule.end_time() + 4e-4)


# ----------------------------------------------------------------------
# Healthy runs
# ----------------------------------------------------------------------
def test_congested_prdrb_run_satisfies_all_invariants(invariants):
    fabric, sim, streams = build_fabric("pr-drb")
    checker = invariants(fabric, check_interval_events=16)
    drive_hotspot(fabric, sim, streams)
    checker.assert_drained()
    # The run exercised the controller, not just idle traffic.
    assert fabric.policy.expansions > 0
    assert checker.checks_run > 10
    assert checker.events_seen == sim.events_executed


def test_invariants_hold_under_virtual_channels(invariants):
    fabric, sim, streams = build_fabric(
        "drb", config=NetworkConfig(virtual_channels=4)
    )
    checker = invariants(fabric, check_interval_events=16)
    drive_hotspot(fabric, sim, streams)
    checker.assert_drained()
    assert fabric.data_packets_delivered > 0


def test_invariants_hold_with_failed_links(invariants):
    fabric, sim, streams = build_fabric("pr-drb")
    checker = invariants(fabric, check_interval_events=16)
    fabric.fail_link(0, 1)
    drive_hotspot(fabric, sim, streams)
    # Dropped packets are accounted, not lost.
    checker.check()
    assert fabric.data_packets_delivered > 0


# ----------------------------------------------------------------------
# Detection (corrupt state on purpose)
# ----------------------------------------------------------------------
def test_packet_conservation_violation_detected():
    fabric, sim, streams = build_fabric("deterministic")
    checker = DebugInvariants(fabric).install()
    drive_hotspot(fabric, sim, streams)
    fabric.data_packets_injected += 5  # pretend packets vanished
    with pytest.raises(InvariantViolation, match="conservation"):
        checker.check()


def test_negative_credit_violation_detected():
    fabric, sim, streams = build_fabric("deterministic")
    checker = DebugInvariants(fabric).install()
    drive_hotspot(fabric, sim, streams)
    port = next(iter(fabric.routers[0].ports.values()))
    port.occupancy_bytes -= 1  # desync bookkeeping from the queue
    with pytest.raises(InvariantViolation, match="occupancy"):
        checker.check()


def test_clock_regression_detected():
    fabric, sim, _ = build_fabric("deterministic")
    checker = DebugInvariants(fabric).install()
    sim.schedule(1.0, lambda: None)
    sim.run()
    # Feed the hook an event that claims to run in the past.
    stale = sim.schedule_at(sim.now, lambda: None)
    stale[TIME] = 0.5
    sim.now = 0.5
    (observer,) = sim.observers  # the checker's per-event check
    with pytest.raises(InvariantViolation, match="backwards"):
        observer(EventView(stale))


def test_illegal_shrink_outside_low_zone_detected():
    fabric, _, _ = build_fabric("drb")
    checker = DebugInvariants(fabric).install()
    fs = fabric.policy.flow_state(0, 15)
    fs.zone = Zone.HIGH
    fs.metapath.expand()  # legal: opening in H
    with pytest.raises(InvariantViolation, match="shrink"):
        fs.metapath.shrink()  # illegal: closing while still in H
    assert checker.checks_run == 0  # tripped by the hook, not a scan


def test_illegal_expand_outside_high_zone_detected():
    fabric, _, _ = build_fabric("drb")
    DebugInvariants(fabric).install()
    fs = fabric.policy.flow_state(0, 15)
    assert fs.zone is Zone.LOW
    with pytest.raises(InvariantViolation, match="expand"):
        fs.metapath.expand()


def test_solution_replay_outside_high_zone_detected():
    fabric, _, _ = build_fabric("pr-drb")
    DebugInvariants(fabric).install()
    fs = fabric.policy.flow_state(0, 15)
    with pytest.raises(InvariantViolation, match="replay"):
        fs.metapath.apply_solution((0, 1))


def test_uninstall_restores_prior_hook():
    fabric, sim, _ = build_fabric("deterministic")
    def prior(event):
        pass

    sim.add_observer(prior)
    checker = DebugInvariants(fabric).install()
    assert sim.observers == (prior, checker._on_event)
    checker.uninstall()
    assert sim.observers == (prior,)
