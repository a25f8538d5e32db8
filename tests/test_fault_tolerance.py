"""Tests for link-failure injection and DRB-family rerouting."""

import pytest

from repro.network.config import NetworkConfig
from repro.network.fabric import DROP_LINK_DOWN, Fabric
from repro.routing.deterministic import DeterministicPolicy
from repro.routing.drb import DRBPolicy
from repro.routing.frdrb import FRDRBConfig, FRDRBPolicy
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh2D


def make(policy=None):
    sim = Simulator()
    fabric = Fabric(Mesh2D(4), NetworkConfig(), policy or DeterministicPolicy(), sim)
    return fabric, sim


def test_fail_link_validates_adjacency():
    fabric, _ = make()
    with pytest.raises(ValueError):
        fabric.fail_link(0, 5)  # diagonal, not adjacent
    fabric.fail_link(0, 1)
    assert not fabric.link_alive(0, 1)
    assert not fabric.link_alive(1, 0)  # bidirectional
    fabric.restore_link(1, 0)
    assert fabric.link_alive(0, 1)


def test_path_alive():
    fabric, _ = make()
    path = (0, 1, 2, 3)
    assert fabric.path_alive(path)
    fabric.fail_link(1, 2)
    assert not fabric.path_alive(path)
    assert fabric.path_alive((0, 1))


def test_deterministic_traffic_dropped_on_failed_link():
    fabric, sim = make(DeterministicPolicy())
    # DOR path 0 -> 3 runs along row 0 through link 1-2.
    fabric.fail_link(1, 2)
    for _ in range(5):
        fabric.send(0, 3, 1024)
    sim.run()
    assert fabric.packets_dropped == 5
    assert fabric.data_packets_delivered == 0
    assert fabric.accepted_ratio() == 0.0


def test_link_failing_under_a_packet_in_flight_drops_it_on_arrival():
    fabric, sim = make(DeterministicPolicy())
    fabric.send(0, 3, 1024)  # DOR path 0-1-2-3, one packet
    (packet,) = fabric._in_flight_packets()
    while packet.hop < 2:  # until router 1 has put it on the wire to 2
        assert sim.step()
    fabric.fail_link(1, 2)
    sim.run()
    # Router 2 finds the link it came over dead and drops the packet
    # before forwarding it; the link ahead (2-3) is up.
    assert fabric.dropped_by_reason == {DROP_LINK_DOWN: 1}
    assert fabric.data_packets_delivered == 0
    assert fabric.routers[1].packets_forwarded == 1
    assert fabric.routers[2].packets_forwarded == 0


def test_drb_routes_around_failed_link():
    fabric, sim = make(DRBPolicy())
    fabric.fail_link(1, 2)
    for _ in range(10):
        fabric.send(0, 3, 1024)
    sim.run()
    # The metapath's redundancy doubles as fault tolerance: everything
    # arrives via an alternative path avoiding link 1-2.
    assert fabric.data_packets_delivered == 10
    assert fabric.packets_dropped == 0


def test_drb_falls_back_when_active_path_dies_mid_run():
    fabric, sim = make(DRBPolicy())
    fabric.send(0, 3, 1024)
    sim.run()
    fabric.fail_link(2, 3)  # kill the tail of the original path
    fabric.send(0, 3, 1024)
    sim.run()
    assert fabric.data_packets_delivered == 2
    assert fabric.packets_dropped == 0


def test_unaffected_flows_keep_working():
    fabric, sim = make(DRBPolicy())
    fabric.fail_link(1, 2)
    for _ in range(5):
        fabric.send(12, 15, 1024)  # row 3: nowhere near the fault
    sim.run()
    assert fabric.data_packets_delivered == 5


def test_watchdog_reacts_to_ack_loss():
    """A failed link on the *reverse* (ACK) path starves the source of
    notifications; FR-DRB's watchdog must still fire."""
    policy = FRDRBPolicy(FRDRBConfig(watchdog_timeout_s=1e-4,
                                     reconfig_cooldown_s=0.0))
    fabric, sim = make(policy)
    fs = policy.flow_state(0, 3)
    # Fail the last reverse-path link the instant the data is delivered:
    # the data made it, but its ACK will be dropped at link 1->0.
    fabric.nodes[3].message_handler = (
        lambda *args: fabric.fail_link(1, 0)
    )
    fabric.send(0, 3, 1024)
    sim.run()
    assert fabric.data_packets_delivered == 1
    assert fabric.packets_dropped == 1  # the ACK
    assert fs.outstanding == 1  # source never heard back
    # A much later send triggers the watchdog.
    sim.schedule(5e-4, lambda: fabric.send(0, 3, 1024))
    sim.run()
    assert policy.watchdog_fires >= 1


def test_all_paths_dead_packets_accounted():
    fabric, sim = make(DRBPolicy())
    # Isolate router 0 entirely: both its links die.
    fabric.fail_link(0, 1)
    fabric.fail_link(0, 4)
    fabric.send(0, 3, 1024)
    sim.run()
    assert fabric.packets_dropped >= 1
    assert fabric.data_packets_delivered == 0
