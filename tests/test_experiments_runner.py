"""Tests for the policy-comparison runner."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.replay import ScenarioSpec, app_spec, cell_params, scenario_spec
from repro.experiments.runner import PolicyRun, _average_runs, improvement, run_policies


def test_improvement_signs():
    assert improvement(10.0, 8.0) == pytest.approx(0.2)
    assert improvement(10.0, 12.0) == pytest.approx(-0.2)
    assert improvement(0.0, 5.0) == 0.0


def _dummy_run(name="x", glob=1.0, cmap=None):
    return PolicyRun(
        policy_name=name,
        global_latency_s=glob,
        mean_latency_s=glob,
        p99_latency_s=glob * 2,
        execution_time_s=glob * 3,
        contention_map=cmap or {},
        latency_series=(np.array([]), np.array([])),
        router_series={},
        policy_stats={"policy": name},
        accepted_ratio=1.0,
    )


def test_average_runs_means_fields():
    a = _dummy_run(glob=1.0, cmap={1: 2.0})
    b = _dummy_run(glob=3.0, cmap={1: 4.0, 2: 6.0})
    avg = _average_runs([a, b])
    assert avg.global_latency_s == pytest.approx(2.0)
    assert avg.contention_map[1] == pytest.approx(3.0)
    assert avg.contention_map[2] == pytest.approx(6.0)
    assert avg.seeds == 2


def test_average_single_run_passthrough():
    a = _dummy_run()
    assert _average_runs([a]) is a


def test_policy_run_row_and_peaks():
    r = _dummy_run(cmap={1: 5e-6, 2: 2e-6})
    assert r.map_peak_s == 5e-6
    assert r.map_mean_s == pytest.approx(3.5e-6)
    row = r.row()
    assert row["policy"] == "x"
    assert row["accepted"] == 1.0


def _app_cell() -> ScenarioSpec:
    """Sweep3D's 16 ranks, one iteration, on mesh:4."""
    return app_spec("sweep3d", "deterministic", 0, "mesh:4", "destination",
                    {"num_ranks": 16, "iterations": 1})


def _cell(**changes) -> ScenarioSpec:
    """A small mesh:4 hot-spot cell; ``pattern=`` makes it a permutation."""
    spec = ScenarioSpec(
        policy="deterministic", seed=0, topology="mesh:4", flows=((0, 15), (3, 11)),
        rate_bps=1.5e9, burst_on_s=2e-4, burst_off_s=1e-4, repetitions=2,
        noise_rate_bps=0.0, idle_rate_bps=0.0, notification="destination", drain_s=1e-3,
    )
    if "pattern" in changes:
        spec = replace(spec, flows=(), hosts=16)
    return replace(spec, **changes)


def test_run_policies_compares_pattern_policies():
    spec = _cell(pattern="bit-reversal", rate_bps=4e8, burst_on_s=1e-4, drain_s=5e-4)
    runs = run_policies(spec, ["deterministic", "drb"])
    assert set(runs) == {"deterministic", "drb"}
    for r in runs.values():
        assert r.accepted_ratio == 1.0
        assert r.mean_latency_s > 0


def test_run_policies_multi_seed_averages():
    spec = _cell(pattern="uniform", rate_bps=2e8, burst_on_s=1e-4, burst_off_s=0.0,
                 repetitions=1, drain_s=5e-4)
    runs = run_policies(spec, ["deterministic"], seeds=(0, 1, 2))
    assert runs["deterministic"].seeds == 3


def test_hotspot_cell_requires_bounded_schedule():
    kind, params = cell_params(_cell())
    assert scenario_spec(kind, params) == _cell()
    for repetitions in (0, None):
        with pytest.raises(ValueError, match="repetitions"):
            scenario_spec(kind, {**params, "repetitions": repetitions})


def test_run_policies_hotspot_produces_contention():
    runs = run_policies(_cell(), ["deterministic"])
    assert runs["deterministic"].map_peak_s > 0


@pytest.mark.parametrize("kind", ["hotspot", "pattern", "app"])
def test_sweep_cells_parse_and_match_serial(kind):
    """Every cell the runner fans out parses, and runs to the serial result."""
    from repro.parallel import SweepConfig, SweepExecutor

    class Recording(SweepExecutor):
        def run_strict(self, tasks):
            for task in tasks:
                assert task.kind == kind
                scenario_spec(task.kind, task.params)
            return super().run_strict(tasks)

    spec = _cell(rate_bps=4e8, burst_on_s=1e-4, drain_s=5e-4)
    if kind == "pattern":
        spec = _cell(pattern="bit-reversal", rate_bps=4e8, burst_on_s=1e-4, drain_s=5e-4)
    elif kind == "app":
        spec = _app_cell()
    policies = ["deterministic", "drb"]
    swept = run_policies(spec, policies, executor=Recording(SweepConfig(code_version="test")))
    serial = run_policies(spec, policies)
    assert {p: r.to_dict() for p, r in swept.items()} == {
        p: r.to_dict() for p, r in serial.items()
    }


def test_app_cells_report_execution_time():
    runs = run_policies(_app_cell(), ["deterministic", "drb"])
    for r in runs.values():
        assert r.execution_time_s > 0
        assert r.accepted_ratio == 1.0
