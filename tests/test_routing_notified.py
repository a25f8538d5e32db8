"""Tests for the notification-driven adaptive family (ARN + UGAL)."""

import pytest

from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.network.packet import ContendingFlow, make_predictive_ack
from repro.routing.notified import (
    NotifiedAdaptivePolicy,
    NotifiedConfig,
    UGALConfig,
    UGALPolicy,
)
from repro.sim.engine import Simulator
from repro.topology.dragonfly import Dragonfly
from repro.topology.mesh import Mesh2D
from repro.traffic.bursty import BurstSchedule
from repro.traffic.generators import HotSpotFlow, HotSpotWorkload


def make_notified(topology=None, config=None):
    policy = NotifiedAdaptivePolicy(config or NotifiedConfig())
    fabric = Fabric(
        topology or Dragonfly(4, 2, 2), NetworkConfig(), policy,
        Simulator(), notification="router",
    )
    return policy, fabric


def notify(policy, src, dst, now):
    """Deliver a router-style congestion report for flow src->dst."""
    pack = make_predictive_ack(
        router=0, target_src=src, path=(0,),
        contending=[ContendingFlow(src, dst)],
        queue_latency=1e-4, size_bytes=8, now=now,
    )
    policy.on_predictive_ack(pack, now)


def test_minimal_by_default():
    policy, fabric = make_notified()
    path, idx = policy.select_path(0, 8, 1024, 0.0)
    assert idx == 0
    assert path == fabric.topology.minimal_route(0, 4)
    assert policy.stats()["minimal_routed"] == 1
    assert policy.stats()["valiant_routed"] == 0


def test_notification_escalates_the_zone_pair():
    policy, fabric = make_notified()
    notify(policy, src=0, dst=8, now=0.0)
    assert policy.escalations == 1
    path, idx = policy.select_path(0, 8, 1024, 1e-5)
    assert idx > 0
    assert fabric.topology.validate_path(path)
    assert policy.stats()["valiant_routed"] == 1
    # The whole zone pair escalated: a different flow between the same
    # groups also diverts.
    _, idx2 = policy.select_path(2, 10, 1024, 2e-5)
    assert idx2 > 0


def test_other_zone_pairs_stay_minimal():
    policy, _ = make_notified()
    notify(policy, src=0, dst=8, now=0.0)
    # Group 0 -> group 2 was never notified.
    _, idx = policy.select_path(0, 16, 1024, 1e-5)
    assert idx == 0


def test_quiet_hold_decays_back_to_minimal():
    policy, _ = make_notified(config=NotifiedConfig(hold_s=1e-4))
    notify(policy, src=0, dst=8, now=0.0)
    _, idx = policy.select_path(0, 8, 1024, 5e-5)
    assert idx > 0
    # Past the quiet hold the pair reverts — this is also the ACK-loss
    # watchdog: with no delivered notifications the escalation cannot
    # outlive hold_s.
    _, idx = policy.select_path(0, 8, 1024, 2.5e-4)
    assert idx == 0
    assert policy.reversions == 1
    stats = policy.stats()
    assert stats["escalations"] == 1
    assert stats["reversions"] == 1


def test_repeated_notifications_extend_the_hold():
    policy, _ = make_notified(config=NotifiedConfig(hold_s=1e-4))
    notify(policy, src=0, dst=8, now=0.0)
    notify(policy, src=0, dst=8, now=9e-5)
    _, idx = policy.select_path(0, 8, 1024, 1.5e-4)
    assert idx > 0  # refreshed by the second notification
    assert policy.escalations == 1  # still one escalation episode


def test_destination_based_acks_also_escalate():
    from repro.network.packet import ACK, Packet

    policy, _ = make_notified()
    ack = Packet(src=8, dst=0, size_bytes=64, kind=ACK, path=(4, 0))
    ack.contending = [ContendingFlow(0, 8)]
    policy.on_ack(ack, 0.0)
    assert policy.escalations == 1


def test_zone_mapping_uses_groups_on_dragonfly_and_routers_on_mesh():
    policy, _ = make_notified()
    assert policy._zone_of_host(0) == 0
    assert policy._zone_of_host(71) == 8
    mesh_policy, _ = make_notified(topology=Mesh2D(4))
    assert mesh_policy._zone_of_host(5) == 5  # router id fallback


def test_works_on_mesh_end_to_end():
    policy, fabric = make_notified(topology=Mesh2D(4))
    sim = fabric.sim

    def burst(i=0):
        if i >= 150:
            return
        fabric.send(0, 15, 1024)
        fabric.send(3, 11, 1024)
        sim.schedule(2e-6, burst, i + 1)

    burst()
    sim.run()
    assert fabric.accepted_ratio() == 1.0


def test_notified_stats_shape():
    policy, _ = make_notified()
    assert set(policy.stats()) == {
        "policy", "pairs", "escalations", "reversions", "notifications",
        "minimal_routed", "valiant_routed",
    }
    assert policy.stats()["policy"] == "notified-adaptive"


# ----------------------------------------------------------------------
# UGAL
# ----------------------------------------------------------------------

def make_ugal(topology=None):
    policy = UGALPolicy(UGALConfig())
    fabric = Fabric(
        topology or Dragonfly(4, 2, 2), NetworkConfig(), policy, Simulator()
    )
    return policy, fabric


def test_ugal_prefers_minimal_when_idle():
    policy, fabric = make_ugal()
    path, idx = policy.select_path(0, 8, 1024, 0.0)
    assert idx == 0
    assert path == fabric.topology.minimal_route(0, 4)


def test_ugal_diverts_around_backlog():
    policy, fabric = make_ugal()
    # Pile backlog onto the minimal route's global link (router 0 ->
    # router 4 carries group 0 -> group 1 minimal traffic).
    minimal = fabric.topology.minimal_route(0, 4)
    port = fabric.routers[minimal[0]].port_to("router", minimal[1])
    port.busy_until = 1e-2
    _, idx = policy.select_path(0, 8, 1024, 0.0)
    assert idx > 0
    assert policy.stats()["valiant_routed"] == 1


def test_ugal_same_seed_is_deterministic():
    a, _ = make_ugal()
    b, _ = make_ugal()
    choices_a = [a.select_path(0, 8, 1024, 0.0)[1] for _ in range(32)]
    choices_b = [b.select_path(0, 8, 1024, 0.0)[1] for _ in range(32)]
    assert choices_a == choices_b


def test_ugal_stats_shape():
    policy, _ = make_ugal()
    assert set(policy.stats()) == {
        "policy", "pairs", "minimal_routed", "valiant_routed",
    }


# ----------------------------------------------------------------------
# End-to-end determinism on the dragonfly hot-spot
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy_name", ["notified-adaptive", "ugal"])
def test_same_seed_replay_is_bit_identical(policy_name):
    from repro.perf import run_pinned_dragonfly_workload

    first = run_pinned_dragonfly_workload(policy_name, seed=1)
    second = run_pinned_dragonfly_workload(policy_name, seed=1)
    assert first["digest"] == second["digest"]
    assert first["events_executed"] == second["events_executed"]
    assert first["policy_stats"] == second["policy_stats"]


def test_notified_beats_deterministic_on_dragonfly_hotspot():
    """The tentpole claim: escalation restores the pair's throughput."""
    from repro.perf import run_pinned_dragonfly_workload

    det = run_pinned_dragonfly_workload("deterministic")
    arn = run_pinned_dragonfly_workload("notified-adaptive")
    assert arn["packets_delivered"] >= det["packets_delivered"] * 1.2
    assert arn["policy_stats"]["escalations"] > 0
    assert arn["policy_stats"]["valiant_routed"] > 0
