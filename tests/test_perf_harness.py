"""Tests for the digest-gated perf harness (``repro.perf``).

The acceptance rule for every hot-path optimization in this repo is
bit-identical replay: these tests pin the committed baseline digests to
the current simulation behavior, so any drift fails tier-1 before it can
hide behind a throughput number.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.replay import run_scenario
from repro.perf import (
    BASELINE_PATH,
    DEFAULT_POLICIES,
    check_digests,
    load_baseline,
    main,
    run_pinned_workload,
)


@pytest.fixture(scope="module")
def baseline() -> dict:
    return load_baseline()


def test_committed_baseline_shape(baseline):
    assert BASELINE_PATH.exists()
    assert set(baseline["digests"]) == set(DEFAULT_POLICIES)
    for policy, entry in baseline["digests"].items():
        assert len(entry["events"]) == 64, policy
        assert len(entry["metrics"]) == 64, policy
    assert baseline["scenario"] == {"seed": 0, "mesh_side": 4, "repetitions": 3}
    # Rates live in the committed BENCH_engine.json, not in the gate.
    assert set(baseline) == {"digests", "scenario"}


@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_replay_digests_bit_identical_to_baseline(baseline, policy):
    """The optimized hot path replays bit-identically to the recorded
    pre-optimization behavior: event trace AND metrics digests match."""
    scenario = baseline["scenario"]
    run = run_scenario(
        seed=scenario["seed"],
        policy=policy,
        mesh_side=scenario["mesh_side"],
        repetitions=scenario["repetitions"],
    )
    expected = baseline["digests"][policy]
    assert run.events == expected["events"]
    assert run.metrics == expected["metrics"]
    assert run.events_executed == expected["events_executed"]
    assert run.packets_delivered == expected["packets_delivered"]


def test_gate_reaches_every_registered_policy():
    """Every registered policy factory is gated under one of its names."""
    from repro.routing.registry import _REGISTRY, parse_policy_spec

    gated = {_REGISTRY[parse_policy_spec(name)[0]] for name in DEFAULT_POLICIES}
    assert gated == set(_REGISTRY.values())
    assert len(gated) == len(DEFAULT_POLICIES), "an alias is gated twice"


def test_check_digests_flags_drift(baseline):
    tampered = copy.deepcopy(baseline)
    tampered["digests"]["drb"]["events"] = "0" * 64
    results = check_digests(["drb"], tampered)
    assert not results["drb"]["ok"]
    assert results["drb"]["expected"]["events"] == "0" * 64


def test_check_digests_unknown_policy_fails_closed(baseline):
    tampered = copy.deepcopy(baseline)
    del tampered["digests"]["drb"]
    results = check_digests(["drb"], tampered)
    assert not results["drb"]["ok"]
    assert results["drb"]["expected"] is None


def test_pinned_workload_is_deterministic():
    """Two runs of the pinned hot-spot workload execute the same events."""
    assert run_pinned_workload("deterministic", 5_000) == run_pinned_workload(
        "deterministic", 5_000
    )


def test_cli_pass_writes_report(tmp_path):
    out = tmp_path / "digests.json"
    code = main(["--policies", "deterministic", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["digest_ok"] is True
    assert set(report["digests"]) == {"deterministic"}


def test_cli_writes_no_report_without_out(tmp_path, monkeypatch):
    """The gate reads no clock and owns no BENCH file: without ``--out``
    it only prints its verdict."""
    monkeypatch.chdir(tmp_path)
    assert main(["--policies", "deterministic"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_digest_mismatch_exits_nonzero(tmp_path, baseline):
    bad = copy.deepcopy(baseline)
    bad["digests"]["deterministic"]["metrics"] = "f" * 64
    bad_path = tmp_path / "baseline.json"
    bad_path.write_text(json.dumps(bad))
    out = tmp_path / "digests.json"
    code = main(
        [
            "--policies",
            "deterministic",
            "--baseline",
            str(bad_path),
            "--out",
            str(out),
        ]
    )
    assert code == 1
    # The report is still written so the mismatch can be inspected.
    assert json.loads(out.read_text())["digest_ok"] is False


def test_cli_update_baseline_rewrites_file(tmp_path, baseline):
    stale = copy.deepcopy(baseline)
    stale["digests"]["deterministic"]["events"] = "a" * 64
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(stale))
    code = main(
        [
            "--policies",
            "deterministic",
            "--baseline",
            str(path),
            "--update-baseline",
        ]
    )
    assert code == 0
    updated = json.loads(path.read_text())
    # Re-recorded digest matches live behavior (== the committed one),
    # and the policies left out of --policies keep their digests.
    assert updated["digests"] == baseline["digests"]
    # The scenario pin survives the rewrite unchanged.
    assert updated["scenario"] == baseline["scenario"]
