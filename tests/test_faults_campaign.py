"""Acceptance tests for the fault-injection campaign runner."""

import math

import pytest

from repro.faults import __main__ as faults_cli
from repro.faults.campaign import (
    DEFAULT_POLICIES,
    FaultCampaignSpec,
    run_fault_campaign,
    run_fault_scenario,
    sweep_ack_loss,
)
from repro.faults.injector import FaultInjector
from repro.faults.models import AckLoss
from repro.faults.recovery import ReliableTransport
from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.routing.frdrb import FRDRBConfig, FRDRBPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.mesh import Mesh2D

#: the acceptance campaign from the issue: 4x4 mesh, transient link
#: flaps, 10% ACK loss, reliable transport on.
SPEC = FaultCampaignSpec()


@pytest.fixture(scope="module")
def campaign():
    return run_fault_campaign(DEFAULT_POLICIES, SPEC)


def test_prdrb_delivers_at_least_as_much_as_deterministic(campaign):
    det = campaign["deterministic"].report
    prdrb = campaign["pr-drb"].report
    assert prdrb.delivered_ratio >= det.delivered_ratio
    assert prdrb.delivered_ratio > 0.9


def test_mttr_is_finite_for_transient_faults(campaign):
    for policy in DEFAULT_POLICIES:
        report = campaign[policy].report
        assert report.failures > 0
        assert math.isfinite(report.mttr_s)
        assert report.mttr_s > 0


def test_same_seed_campaigns_replay_bit_identically(campaign):
    for policy in ("deterministic", "pr-drb"):
        rerun = run_fault_scenario(policy, SPEC)
        assert rerun.events_digest == campaign[policy].events_digest
        assert rerun.metrics_digest == campaign[policy].metrics_digest
        assert rerun.events_executed == campaign[policy].events_executed


def test_policies_diverge_under_faults(campaign):
    digests = {campaign[p].events_digest for p in DEFAULT_POLICIES}
    assert len(digests) == len(DEFAULT_POLICIES)


def test_multipath_policies_prune_and_recover(campaign):
    for policy in ("drb", "pr-drb", "fr-drb"):
        report = campaign[policy].report
        assert report.paths_pruned > 0
        assert report.abandoned == 0
    assert campaign["pr-drb"].report.solutions_invalidated >= 0
    # Deterministic routing has nothing to prune: it burns retries.
    assert campaign["deterministic"].report.paths_pruned == 0


def test_reports_account_drops_by_reason(campaign):
    for policy in DEFAULT_POLICIES:
        reasons = campaign[policy].report.dropped_by_reason
        assert "ack_loss" in reasons  # the 10% ACK loss is live
        assert "link_down" in reasons  # the flaps actually hit traffic


def test_campaign_runs_with_invariants():
    result = run_fault_scenario("pr-drb", SPEC, with_invariants=True)
    assert result.report.delivered_ratio > 0


def test_sweep_ack_loss_orders_by_rate():
    spec = FaultCampaignSpec(repetitions=2, flap_duration_s=0.0)
    sweep = sweep_ack_loss((0.0, 0.3), policies=("pr-drb",), spec=spec)
    clean = sweep[0.0]["pr-drb"].report
    lossy = sweep[0.3]["pr-drb"].report
    # Congestion alone can stretch an ACK past the timer (spurious
    # retransmission, absorbed by duplicate suppression); injected ACK
    # loss must add strictly more on top.
    assert lossy.retransmissions > clean.retransmissions
    assert clean.delivered_ratio == 1.0
    assert lossy.delivered_ratio > 0.9  # recovery holds the ratio up


def test_cli_smoke_passes_gates(capsys):
    exit_code = faults_cli.main(["--repetitions", "2"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "OK: 4 policies" in out
    assert "pr-drb" in out


@pytest.mark.parametrize("argv, field", [
    (["--repetitions", "0"], "repetitions"),
    (["--ack-loss", "-1"], "ack_loss"),
    (["--ack-loss", "2"], "ack_loss"),
    (["--mesh-side", "1"], "mesh_side"),
    (["--seed", "-5"], "seed"),
    (["--policies", "nosuch"], "nosuch"),
    (["--policies", "drb", "pr-drb:foo"], "foo"),
])
def test_cli_refuses_bad_values_naming_the_field(argv, field, capsys):
    with pytest.raises(SystemExit) as exit_info:
        faults_cli.main(argv)
    assert exit_info.value.code == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("kwargs, field", [
    ({"ack_loss": 1.5}, "ack_loss"),
    ({"ack_loss": float("nan")}, "ack_loss"),
    ({"stochastic": True, "mtbf_s": 0.0}, "mtbf_s"),
    ({"stochastic": True, "mttr_s": -1e-4}, "mttr_s"),
    ({"seed": -1}, "seed"),
])
def test_spec_refuses_values_no_run_could_use(kwargs, field):
    with pytest.raises(ValueError, match=f"'{field}'"):
        FaultCampaignSpec(**kwargs)


def test_stochastic_campaign_is_deterministic():
    spec = FaultCampaignSpec(stochastic=True, repetitions=2)
    a = run_fault_scenario("drb", spec)
    b = run_fault_scenario("drb", spec)
    assert a.events_digest == b.events_digest
    assert a.report.failures > 0


# ----------------------------------------------------------------------
# Satellite: FR-DRB watchdog under injected ACK loss.
# ----------------------------------------------------------------------
def _frdrb_ack_loss_run(notification: str):
    """Steady flow with a total ACK blackout window in the middle."""
    sim = Simulator()
    policy = FRDRBPolicy(
        FRDRBConfig(watchdog_timeout_s=5e-5, reconfig_cooldown_s=0.0)
    )
    fabric = Fabric(
        Mesh2D(4), NetworkConfig(), policy, sim, notification=notification
    )
    transport = ReliableTransport(fabric)
    injector = FaultInjector(fabric, rng=RandomStreams(0).stream("faults"))
    injector.apply(AckLoss(drop_probability=1.0, start_s=1e-4, end_s=3e-4))
    for i in range(150):
        sim.schedule(i * 4e-6, fabric.send, 0, 15, 1024)
    sim.run(until=2e-3)
    return fabric, policy, transport


def test_frdrb_watchdog_fires_under_injected_ack_loss():
    fabric, policy, transport = _frdrb_ack_loss_run(notification="destination")
    assert policy.watchdog_fires > 0
    # Recovery: despite a 200us ACK blackout, the transport resends and
    # the flow converges back to (nearly) full delivery.
    ratio = fabric.data_packets_delivered / transport.logical_packets
    assert ratio > 0.95
    assert transport.pending == 0


def test_frdrb_predictive_converges_after_ack_loss_window():
    fabric, policy, transport = _frdrb_ack_loss_run(notification="router")
    ratio = fabric.data_packets_delivered / transport.logical_packets
    assert ratio > 0.95
    assert transport.pending == 0
