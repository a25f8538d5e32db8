"""Integration tests of the fabric event chain (Fig. 3.3 / Fig. 3.15)."""

import pytest

from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric, ROUTER_BASED
from repro.network.packet import ContendingFlow
from repro.routing.deterministic import DeterministicPolicy
from repro.routing.drb import DRBPolicy
from repro.routing.prdrb import PRDRBPolicy
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh2D


def make_fabric(policy=None, config=None, notification="destination", width=4):
    sim = Simulator()
    topo = Mesh2D(width)
    policy = policy or DeterministicPolicy()
    config = config or NetworkConfig()
    fabric = Fabric(topo, config, policy, sim, notification=notification)
    return fabric, sim, topo


def test_single_packet_end_to_end_latency():
    fabric, sim, topo = make_fabric()
    fabric.send(0, 15, 1024)
    sim.run()
    assert fabric.data_packets_delivered == 1
    assert fabric.nodes[15].packets_received == 1
    # Zero-load latency: injection tx + per-hop (routing + tx) * 7 links
    # (6 router hops + delivery) + link delays.
    cfg = fabric.config
    hops = len(topo.minimal_route(0, 15))  # 7 routers on the DOR path
    expected = (
        cfg.packet_tx_time_s  # injection serialization
        + hops * (cfg.routing_delay_s + cfg.packet_tx_time_s)  # each router
        + (hops + 1) * cfg.link_delay_s
    )
    # Recover the measured latency through the recorder-free counters:
    # deliver time == sim time of the last event chain.
    assert sim.now == pytest.approx(expected, rel=1e-9)


def test_message_fragmentation_and_reassembly():
    fabric, sim, _ = make_fabric()
    seen = []
    fabric.nodes[5].message_handler = (
        lambda src, mt, seq, size, now: seen.append((src, seq, size))
    )
    n = fabric.send(0, 5, 5000, mpi_type=1, mpi_seq=42)
    assert n == 5  # ceil(5000 / 1024)
    sim.run()
    assert seen == [(0, 42, 5000)]
    assert fabric.data_packets_delivered == 5


def test_loopback_send_delivers_without_network():
    fabric, sim, _ = make_fabric()
    seen = []
    fabric.nodes[3].message_handler = (
        lambda src, mt, seq, size, now: seen.append(size)
    )
    assert fabric.send(3, 3, 2048, mpi_seq=1) == 0
    assert seen == [2048]
    assert fabric.data_packets_injected == 0


def test_no_acks_for_baseline_policy():
    fabric, sim, _ = make_fabric(policy=DeterministicPolicy())
    fabric.send(0, 15, 1024)
    sim.run()
    assert fabric.acks_delivered == 0


def test_acks_flow_back_for_drb():
    fabric, sim, _ = make_fabric(policy=DRBPolicy())
    fabric.send(0, 15, 1024)
    sim.run()
    assert fabric.acks_delivered == 1
    fs = fabric.policy.flows[(0, 15)]
    assert fs.metapath.msps[0].samples == 1


def test_accepted_ratio_reaches_one_after_drain():
    fabric, sim, _ = make_fabric()
    for dst in range(1, 16):
        fabric.send(0, dst, 1024)
    sim.run()
    assert fabric.accepted_ratio() == 1.0


def test_contention_map_reports_congested_routers():
    fabric, sim, _ = make_fabric()
    # Two flows forced through router 1 -> 2 segment: (0,0)->(3,0) and (1,0)->(2,3)
    for _ in range(20):
        fabric.send(0, 3, 1024)
        fabric.send(1, 14, 1024)
    sim.run()
    cmap = fabric.contention_map()
    assert any(v > 0 for v in cmap.values())


def test_router_based_notification_emits_predictive_acks():
    cfg = NetworkConfig(router_threshold_s=1e-7)
    fabric, sim, _ = make_fabric(
        policy=PRDRBPolicy(), config=cfg, notification=ROUTER_BASED
    )
    # Converging flows: (0,0)->(3,3) and (3,0)->(3,2) share column x=3,
    # so their packets contend at router (3,0)'s northbound port.
    for _ in range(60):
        fabric.send(0, 15, 1024)
        fabric.send(3, 11, 1024)
    sim.run()
    assert fabric.predictive_acks_delivered > 0


def test_router_notification_skips_router_injected_flows():
    # Predictive ACKs (src -1) sharing a congested port show up among its
    # contending flows; only the data flow's source is notified.
    fabric, sim, _ = make_fabric(policy=DRBPolicy(), notification=ROUTER_BASED)
    router = fabric.routers[5]
    flows = [ContendingFlow(-1, 3), ContendingFlow(0, 15)]
    assert fabric._router_congestion(router, None, None, 1e-6, flows, 0.0)
    sim.run()
    assert fabric.predictive_acks_delivered == 1


def test_unknown_notification_mode_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Fabric(Mesh2D(4), NetworkConfig(), DeterministicPolicy(), sim, notification="psychic")


def test_link_faults_partway_through_a_run_reach_the_next_hop():
    """``fail_link``/``restore_link`` (and the degrade pair) recompute the
    flag the hop path tests for every unusual mode, so a fault set while
    packets are in flight applies from their next hop on."""
    fabric, sim, topo = make_fabric()
    assert topo.minimal_route(0, 15)[:4] == (0, 1, 2, 3)
    special, delivered = [], []
    fabric.nodes[15].message_handler = lambda *args: delivered.append(args[-1])

    def at(t, fn, *args):
        sim.schedule_at(t, lambda: (fn(*args), special.append(fabric._special)))

    fabric.send(0, 15, 1024)  # reaches router 2 at about 12.4 us
    at(10e-6, fabric.fail_link, 2, 3)
    at(30e-6, fabric.restore_link, 2, 3)
    at(40e-6, fabric.send, 0, 15, 1024)
    at(41e-6, fabric.degrade_link, 2, 3, 1e-6)
    at(80e-6, fabric.restore_link_quality, 2, 3)
    at(90e-6, fabric.send, 0, 15, 1024)
    assert fabric._special is False
    sim.run()
    assert special == [True, False, False, True, False, False]
    assert fabric.dropped_by_reason == {"link_down": 1}
    # The packet sent at 40 us crossed the degraded link, the one sent at
    # 90 us a restored one.
    slow, fast = delivered[0] - 40e-6, delivered[1] - 90e-6
    assert slow - fast == pytest.approx(1e-6)
