"""Tests for the high-level convenience API."""

import pytest

import repro


def test_build_network_takes_topology_specs():
    assert repro.build_network(topology="mesh:4").topology.num_hosts == 16
    assert repro.build_network(topology="fattree:2,3").topology.num_hosts == 8
    assert repro.build_network(topology="torus:4").topology.kind == "torus2d"
    assert repro.build_network(topology="hypercube:4").topology.num_hosts == 16
    assert repro.build_network(topology="karyncube:4,3").topology.num_hosts == 64
    with pytest.raises(ValueError):
        repro.build_network(topology="klein-bottle:4")
    # A misspelt or missing argument fails instead of building a default.
    with pytest.raises(ValueError):
        repro.build_network(topology="mesh")
    with pytest.raises(TypeError):
        repro.build_network(topology="mesh:4", widht=4)


def test_build_network_wires_components():
    net = repro.build_network(topology="mesh:4", policy="pr-drb")
    assert net.fabric.policy is net.policy
    assert net.policy.fabric is net.fabric
    assert net.recorder is net.fabric.recorder
    assert len(net.fabric.routers) == net.topology.num_routers


def test_build_network_accepts_instances():
    topo = repro.Mesh2D(4)
    policy = repro.DeterministicPolicy()
    net = repro.build_network(topology=topo, policy=policy)
    assert net.topology is topo
    assert net.policy is policy


def test_make_policy_names():
    names = ["deterministic", "random", "cyclic", "adaptive", "drb",
             "pr-drb", "fr-drb", "pr-fr-drb"]
    for n in names:
        assert repro.make_policy(n) is not None
    with pytest.raises(ValueError):
        repro.make_policy("quantum")


def test_run_synthetic_end_to_end():
    net = repro.build_network(topology="mesh:4", policy="drb")
    result = repro.run_synthetic(
        net, pattern="perfect-shuffle", rate_mbps=400, duration_s=2e-4
    )
    assert result.messages_sent > 0
    assert result.mean_latency_s > 0
    assert result.handle.fabric.accepted_ratio() == 1.0
    summary = result.summary()
    assert summary["policy"] == "drb"
    assert summary["accepted_ratio"] == 1.0


def test_run_synthetic_reproducible_with_seed():
    def run(seed):
        net = repro.build_network(topology="mesh:4", policy="deterministic")
        res = repro.run_synthetic(
            net, pattern="uniform", rate_mbps=200, duration_s=2e-4, seed=seed
        )
        return res.messages_sent, res.mean_latency_s

    assert run(1) == run(1)


def test_run_synthetic_trims_to_power_of_two_hosts():
    # 3x3 mesh: 9 hosts -> pattern over 8.
    net = repro.build_network(topology="mesh:3", policy="deterministic")
    result = repro.run_synthetic(net, pattern="bit-reversal", rate_mbps=100, duration_s=2e-4)
    assert result.messages_sent > 0
    assert net.fabric.nodes[8].packets_injected == 0
