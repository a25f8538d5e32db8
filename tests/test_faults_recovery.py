"""Tests for the NIC-level reliable transport and loud quiesce."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.models import AckLoss, LinkFlap, LinkKill
from repro.faults.recovery import ReliableTransport
from repro.metrics.recorder import StatsRecorder
from repro.network.config import NetworkConfig, ReliabilityConfig
from repro.network.fabric import (
    DROP_DUPLICATE,
    DROP_LINK_DOWN,
    Fabric,
    QuiesceTimeout,
)
from repro.routing.deterministic import DeterministicPolicy
from repro.routing.drb import DRBPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.mesh import Mesh2D


def make(policy=None, recorder=None):
    sim = Simulator()
    fabric = Fabric(
        Mesh2D(4), NetworkConfig(), policy or DeterministicPolicy(), sim,
        recorder=recorder,
    )
    return fabric, sim


def test_reliability_config_backoff_caps():
    config = ReliabilityConfig(
        retx_timeout_s=1e-5, backoff_factor=2.0, max_backoff_s=3e-5
    )
    assert config.timeout_for(0) == pytest.approx(1e-5)
    assert config.timeout_for(1) == pytest.approx(2e-5)
    assert config.timeout_for(2) == pytest.approx(3e-5)  # capped
    assert config.timeout_for(10) == pytest.approx(3e-5)


def test_reliability_config_validation():
    with pytest.raises(ValueError):
        ReliabilityConfig(retx_timeout_s=0.0)
    with pytest.raises(ValueError):
        ReliabilityConfig(backoff_factor=0.5)
    with pytest.raises(ValueError):
        ReliabilityConfig(max_retries=-1)


def test_sequence_numbers_assigned_per_flow():
    fabric, sim = make()
    transport = ReliableTransport(fabric)
    fabric.send(0, 3, 1024)
    fabric.send(0, 3, 1024)
    fabric.send(4, 7, 1024)
    sim.run()
    assert transport.logical_packets == 3
    assert fabric.data_packets_delivered == 3
    assert transport.pending == 0  # ACKs settled everything
    assert transport.retransmissions == 0
    # No digest hashes the transport's counters: pin their key set here.
    assert set(transport.stats()) == {
        "logical_packets", "retransmissions", "recovered", "abandoned", "pending",
    }


def test_nack_retransmission_burns_retries_on_permanent_fault():
    fabric, sim = make()
    transport = ReliableTransport(
        fabric, ReliabilityConfig(max_retries=4)
    )
    injector = FaultInjector(fabric)
    injector.apply(LinkKill(1, 2, at_s=0.0))
    fabric.send(0, 3, 1024)  # DOR path crosses the dead link
    sim.run(until=5e-3)
    # Original + 4 retransmissions all die on the same dead link.
    assert transport.retransmissions == 4
    assert transport.abandoned == 1
    assert transport.pending == 0
    assert fabric.dropped_by_reason[DROP_LINK_DOWN] == 5
    assert fabric.data_packets_delivered == 0


def test_drb_recovers_via_alternative_path_after_nack():
    fabric, sim = make(DRBPolicy())
    transport = ReliableTransport(fabric)
    injector = FaultInjector(fabric)
    injector.apply(LinkKill(1, 2, at_s=0.0))
    fabric.send(0, 3, 1024)
    sim.run(until=5e-3)
    # The policy prunes the dead MSP on the NACK; the retransmission
    # takes a surviving path and delivers.
    assert fabric.data_packets_delivered == 1
    assert transport.recovered == 1
    assert transport.abandoned == 0
    assert transport.pending == 0
    assert len(transport.recovery_latencies_s) == 1


def test_timeout_recovery_after_transient_flap():
    fabric, sim = make(DRBPolicy())
    transport = ReliableTransport(fabric)
    injector = FaultInjector(fabric)
    injector.apply(LinkFlap(1, 2, at_s=0.0, duration_s=3e-5))
    fabric.send(0, 3, 1024)
    sim.run(until=5e-3)
    assert fabric.data_packets_delivered == 1
    assert transport.pending == 0


def test_duplicate_suppression_under_total_ack_loss():
    fabric, sim = make()
    transport = ReliableTransport(fabric)
    injector = FaultInjector(fabric, rng=RandomStreams(0).stream("faults"))
    # Every ACK dies until 50us: the data delivers but its ACK does not,
    # so the timer fires and the retransmitted copy arrives as a
    # duplicate; its re-ACK (after the window) settles the flow.
    injector.apply(AckLoss(drop_probability=1.0, end_s=5e-5))
    fabric.send(0, 3, 1024)
    sim.run(until=5e-3)
    assert fabric.data_packets_delivered == 1  # unique delivery
    assert fabric.dropped_by_reason[DROP_DUPLICATE] >= 1
    assert transport.recovered == 1
    assert transport.pending == 0


def test_duplicate_drops_do_not_trigger_more_retransmissions():
    fabric, sim = make()
    transport = ReliableTransport(fabric)
    injector = FaultInjector(fabric, rng=RandomStreams(0).stream("faults"))
    injector.apply(AckLoss(drop_probability=1.0, end_s=5e-5))
    fabric.send(0, 3, 1024)
    sim.run(until=5e-3)
    # The duplicate drop is bookkeeping, not a loss signal: exactly the
    # timeout-driven retransmissions happened, no NACK cascade.
    duplicates = fabric.dropped_by_reason[DROP_DUPLICATE]
    assert transport.retransmissions >= duplicates


def test_recorder_sees_reasoned_drops():
    recorder = StatsRecorder()
    fabric, sim = make(recorder=recorder)
    injector = FaultInjector(fabric)
    injector.apply(LinkKill(1, 2, at_s=0.0))
    fabric.send(0, 3, 1024)
    sim.run()
    assert recorder.packets_dropped == 1
    assert recorder.drops_by_reason == {DROP_LINK_DOWN: 1}
    assert "drops_by_reason" in recorder.summary()


def test_quiesce_returns_when_drained():
    fabric, sim = make()
    ReliableTransport(fabric)
    fabric.send(0, 3, 1024)
    fabric.quiesce(timeout=1e-2)  # no raise


def test_quiesce_raises_with_diagnostics_when_stuck():
    fabric, sim = make()
    transport = ReliableTransport(
        fabric,
        # Timer far beyond the quiesce deadline: the pending entry can
        # never settle inside the window.
        ReliabilityConfig(retx_timeout_s=10.0, max_backoff_s=100.0),
    )
    injector = FaultInjector(fabric, rng=RandomStreams(0).stream("faults"))
    injector.apply(AckLoss(drop_probability=1.0))  # ACKs never return
    fabric.send(0, 3, 1024)
    with pytest.raises(QuiesceTimeout) as excinfo:
        fabric.quiesce(timeout=1e-3)
    message = str(excinfo.value)
    assert "failed to quiesce" in message
    assert "flow 0->3: 1 pending retransmission" in message


def test_quiesce_reports_in_flight_packets():
    fabric, sim = make()
    fabric.send(0, 3, 1024)
    # Deadline shorter than the first hop: the packet is still in the
    # calendar when the deadline passes.
    with pytest.raises(QuiesceTimeout) as excinfo:
        fabric.quiesce(timeout=1e-9)
    assert "in flight" in str(excinfo.value)


def test_abandon_rebalances_policy_outstanding():
    fabric, sim = make(DRBPolicy())
    policy = fabric.policy
    transport = ReliableTransport(fabric, ReliabilityConfig(max_retries=0))
    injector = FaultInjector(fabric)
    injector.apply(LinkKill(1, 2, at_s=0.0))
    injector.apply(LinkKill(0, 4, at_s=0.0))  # no way out of host 0's corner
    fabric.send(0, 3, 1024)
    sim.run(until=5e-3)
    assert transport.abandoned == 1
    fs = policy.flows.get((0, 3))
    assert fs is not None and fs.outstanding == 0
