"""Tests for fault models and the fault injector."""

import math

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.models import (
    AckLoss,
    DegradedLink,
    LinkFlap,
    LinkKill,
    RouterKill,
    StochasticLinkFlaps,
)
from repro.network.config import NetworkConfig
from repro.network.fabric import DROP_ACK_LOSS, Fabric
from repro.network.packet import ACK, DATA, Packet
from repro.routing.deterministic import DeterministicPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.mesh import Mesh2D


def make():
    sim = Simulator()
    fabric = Fabric(Mesh2D(4), NetworkConfig(), DeterministicPolicy(), sim)
    return fabric, sim


def test_link_flap_fails_then_restores():
    fabric, sim = make()
    injector = FaultInjector(fabric)
    injector.apply(LinkFlap(0, 1, at_s=1e-4, duration_s=1e-4))
    assert fabric.link_alive(0, 1)
    sim.run(until=1.5e-4)
    assert not fabric.link_alive(0, 1)
    sim.run(until=3e-4)
    assert fabric.link_alive(0, 1)
    assert injector.failures == 1
    assert injector.episodes[0].closed
    assert injector.episodes[0].outage_s == pytest.approx(1e-4)


def test_link_kill_is_permanent_and_mttr_infinite():
    fabric, sim = make()
    injector = FaultInjector(fabric)
    injector.apply(LinkKill(1, 2, at_s=1e-5))
    sim.run(until=1e-3)
    assert not fabric.link_alive(1, 2)
    assert injector.failures == 1
    assert math.isinf(injector.mttr_s())


def test_router_kill_downs_every_adjacent_link():
    fabric, sim = make()
    injector = FaultInjector(fabric)
    injector.apply(RouterKill(5, at_s=1e-5))
    sim.run(until=1e-4)
    for neighbor in fabric.topology.router_neighbors(5):
        assert not fabric.link_alive(5, neighbor)
    # Router 5 sits in the mesh interior: four dead links.
    assert injector.failures == 4


def test_degraded_link_raises_delay_then_recovers():
    fabric, sim = make()
    injector = FaultInjector(fabric)
    base = fabric.config.link_delay_s
    injector.apply(DegradedLink(0, 1, extra_delay_s=5e-6, at_s=1e-5, duration_s=1e-4))
    sim.run(until=5e-5)
    assert fabric.link_delay(0, 1) == pytest.approx(base + 5e-6)
    assert fabric.link_delay(1, 0) == pytest.approx(base + 5e-6)
    assert fabric.link_delay(1, 2) == pytest.approx(base)
    sim.run(until=2e-4)
    assert fabric.link_delay(0, 1) == pytest.approx(base)
    # Degradation is not an outage: no failure episodes.
    assert injector.failures == 0


def test_degraded_link_slows_traffic_end_to_end():
    # The DOR path 0 -> 3 runs 0-1-2-3 and the policy sends no ACK, so the
    # last event is the delivery: it comes extra_delay_s later for each
    # crossing of a degraded link.
    extra = 1e-5
    fabric, sim = make()
    fabric.send(0, 3, 1024)
    sim.run()
    clean_done = sim.now

    for links, crossings in (
        ([(1, 2)], 1),
        ([(1, 2), (3, 2)], 2),  # either direction names the same link
        ([(4, 5)], 0),  # off the path
    ):
        fabric2, sim2 = make()
        injector = FaultInjector(fabric2)
        for a, b in links:
            injector.apply(DegradedLink(a, b, extra_delay_s=extra, at_s=0.0))
        fabric2.send(0, 3, 1024)
        sim2.run()
        assert fabric2.data_packets_delivered == 1
        assert sim2.now == pytest.approx(clean_done + crossings * extra, rel=1e-12)


def test_ack_loss_filter_drops_only_acks_in_window():
    fabric, _ = make()
    injector = FaultInjector(fabric, rng=RandomStreams(7).stream("faults"))
    injector.apply(AckLoss(drop_probability=1.0, start_s=1e-5, end_s=2e-5))
    filt = fabric.fault_filter
    data = Packet(src=0, dst=3, size_bytes=512, kind=DATA, path=(0, 1), created_at=0.0)
    ack = Packet(src=3, dst=0, size_bytes=32, kind=ACK, path=(1, 0), created_at=0.0)
    assert filt(data, 1.5e-5) is None  # DATA untouched
    assert filt(ack, 0.0) is None  # before the window
    assert filt(ack, 1.5e-5) == ("drop", DROP_ACK_LOSS)
    assert filt(ack, 3e-5) is None  # after the window


def test_ack_loss_delay_variant():
    fabric, _ = make()
    injector = FaultInjector(fabric, rng=RandomStreams(7).stream("faults"))
    injector.apply(AckLoss(drop_probability=0.0, delay_probability=1.0, delay_s=2e-6))
    ack = Packet(src=3, dst=0, size_bytes=32, kind=ACK, path=(1, 0), created_at=0.0)
    assert fabric.fault_filter(ack, 1e-5) == ("delay", 2e-6)


def test_ack_loss_requires_rng():
    fabric, _ = make()
    injector = FaultInjector(fabric)  # no rng
    with pytest.raises(ValueError, match="rng"):
        injector.apply(AckLoss(drop_probability=0.5))


def test_stochastic_flaps_deterministic_per_seed():
    logs = []
    for _ in range(2):
        fabric, sim = make()
        injector = FaultInjector(fabric, rng=RandomStreams(3).stream("faults"))
        injector.apply(StochasticLinkFlaps(mtbf_s=1e-4, mttr_s=5e-5, end_s=1e-3))
        sim.run(until=2e-3)
        logs.append(tuple(injector.log))
        assert injector.failures > 0
        assert all(ep.closed for ep in injector.episodes)
    assert logs[0] == logs[1]


def test_stochastic_flaps_require_rng():
    fabric, _ = make()
    injector = FaultInjector(fabric)
    with pytest.raises(ValueError, match="rng"):
        injector.apply(StochasticLinkFlaps(mtbf_s=1e-4, mttr_s=5e-5))


def test_mttr_zero_without_faults():
    fabric, _ = make()
    injector = FaultInjector(fabric)
    assert injector.mttr_s() == 0.0
    assert injector.failures == 0


def test_injector_logs_fail_and_restore():
    fabric, sim = make()
    injector = FaultInjector(fabric)
    injector.apply(LinkFlap(2, 3, at_s=1e-5, duration_s=1e-5))
    sim.run(until=1e-4)
    actions = [action for _, action, _ in injector.log]
    assert actions == ["fail", "restore"]
