"""Second-wave fabric tests: edges of the event chain."""

import pytest

from repro.network.config import NetworkConfig
from repro.network.fabric import DESTINATION_BASED, Fabric, ROUTER_BASED
from repro.network.packet import ACK, Packet
from repro.routing.deterministic import DeterministicPolicy
from repro.routing.drb import DRBPolicy
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh2D


def make(policy=None, config=None):
    sim = Simulator()
    fabric = Fabric(Mesh2D(4), config or NetworkConfig(), policy or DeterministicPolicy(), sim)
    return fabric, sim


def test_ack_travels_exact_reverse_path():
    policy = DRBPolicy()
    fabric, sim = make(policy)
    seen = {}
    original_on_ack = policy.on_ack

    def spy(ack, now):
        seen["path"] = ack.path
        original_on_ack(ack, now)

    policy.on_ack = spy
    fabric.send(0, 15, 1024)
    sim.run()
    data_path = policy.flow_state(0, 15).metapath.path_for(0)
    assert seen["path"] == tuple(reversed(data_path))


def test_ack_latency_mirrors_data_queueing():
    policy = DRBPolicy()
    fabric, sim = make(policy)
    # Uncongested: the ACK reports (near) zero queueing.
    fabric.send(0, 15, 1024)
    sim.run()
    msp = policy.flow_state(0, 15).metapath.msps[0]
    assert msp.samples == 1
    assert msp.queueing_s == pytest.approx(0.0, abs=1e-9)


def test_acks_disabled_by_config():
    cfg = NetworkConfig(send_acks=False)
    policy = DRBPolicy()
    fabric, sim = make(policy, cfg)
    fabric.send(0, 15, 1024)
    sim.run()
    assert fabric.acks_delivered == 0
    assert policy.flow_state(0, 15).metapath.msps[0].samples == 0


def test_quiesce_advances_clock():
    fabric, sim = make()
    fabric.send(0, 15, 1024)
    t0 = sim.now
    fabric.quiesce(timeout=1e-3)
    assert sim.now == pytest.approx(t0 + 1e-3)
    assert fabric.data_packets_delivered == 1


def test_without_recorder_everything_still_runs():
    fabric, sim = make()
    assert fabric.recorder is None
    for _ in range(5):
        fabric.send(0, 15, 1024)
    sim.run()
    assert fabric.data_packets_delivered == 5


def test_notification_constants():
    assert DESTINATION_BASED == "destination"
    assert ROUTER_BASED == "router"


def test_zero_size_message_still_moves():
    fabric, sim = make()
    for src, dst in ((0, 15), (3, 3)):  # 0 bytes is refused at the send, loopback too
        with pytest.raises(ValueError, match="'size_bytes' must be >= 1, got 0"):
            fabric.send(src, dst, 0)
    n = fabric.send(0, 15, 1)  # 1-byte message
    assert n == 1
    sim.run()
    assert fabric.data_packets_delivered == 1
    assert fabric.nodes[15].bytes_received == 1


def test_large_message_fragment_count():
    fabric, sim = make()
    n = fabric.send(0, 15, 10 * 1024 + 1)
    assert n == 11
    sim.run()
    assert fabric.data_packets_delivered == 11
    # Last fragment carries the remainder byte.
    assert fabric.nodes[15].bytes_received == 10 * 1024 + 1


def test_contention_map_empty_when_idle():
    fabric, _ = make()
    assert fabric.contention_map() == {}
    assert fabric.accepted_ratio() == 1.0  # vacuous


def test_ack_packets_do_not_count_as_data():
    policy = DRBPolicy()
    fabric, sim = make(policy)
    fabric.send(0, 15, 1024)
    sim.run()
    assert fabric.data_packets_injected == 1
    assert fabric.data_packets_delivered == 1
    assert fabric.acks_delivered == 1
    assert fabric.nodes[0].packets_injected == 1  # data only at source...
    assert fabric.nodes[15].packets_injected == 1  # ...ACK at destination


def test_stale_ack_for_closed_path_ignored():
    """An ACK whose msp index exceeds the metapath is dropped silently."""
    policy = DRBPolicy()
    fabric, sim = make(policy)
    fs = policy.flow_state(0, 15)
    ack = Packet(src=15, dst=0, size_bytes=64, kind=ACK,
                 path=(15, 0), acked_msp_index=99)
    policy.on_ack(ack, 0.0)  # must not raise
    assert all(m.samples == 0 for m in fs.metapath.msps)
