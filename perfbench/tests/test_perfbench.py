"""The benchmark's own tests: tiny smoke runs and its output checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = wl.SIZES["tiny"]


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in layers.PER_LAYER]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    self_time = sum(metrics[name] for name in layers.SELF_TIME)
    assert self_time + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["sim.events"] > 0


def test_traced_outputs_equal_untraced_outputs(tmp_path):
    from spans import SpanProfiler

    for workload in wl.SIM_WORKLOADS:
        untraced = wl.execute(workload, 3, TINY, tmp_path).outputs
        profiler = SpanProfiler()
        layers.install(profiler)
        try:
            traced = wl.execute(workload, 3, TINY, tmp_path).outputs
        finally:
            profiler.uninstall()
        assert traced == untraced
        assert profiler.totals()["sim"][0] == 1


def test_uninstall_restores_every_entry_point():
    from repro.network.router import Router
    from repro.sim.engine import Simulator
    from spans import SpanProfiler

    before = (Simulator.run, Router.forward)
    profiler = SpanProfiler()
    layers.install(profiler)
    assert Simulator.run is not before[0]
    profiler.uninstall()
    assert (Simulator.run, Router.forward) == before


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(layers.PER_LAYER)
    names = [name for name, _ in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_reference_mismatch_counts_as_failed(tmp_path):
    reference = run.load_reference(wl.HOTSPOT, "tiny", 1)
    planted = copy.deepcopy(reference)
    planted["delivered"] += 1
    _, tally, _ = run.measure_sim(wl.HOTSPOT, 1, "tiny", 0.1, tmp_path, planted)
    assert tally.attempted >= 1 and tally.failed == tally.attempted
    _, tally, _ = run.measure_sim(wl.HOTSPOT, 1, "tiny", 0.1, tmp_path, reference)
    assert tally.failed == 0


def test_served_check_catches_planted_digest_and_cache_mismatch():
    reference = run.load_reference(wl.SERVED, "tiny", 0)
    label = sorted(reference)[0]
    cells = {
        name: {"label": name, "result": dict(want, seed=0)}
        for name, want in reference.items()
    }
    job = {"state": "done", "failed_cells": 0, "executed": len(reference)}
    cold = wl.JobOutcome(job=job, cells=cells)
    assert wl.check_job(cold, reference, None) == []

    planted = copy.deepcopy(reference)
    planted[label]["metrics"] = "0" * 64
    assert wl.check_job(cold, planted, None)

    cached_cells = copy.deepcopy(cells)
    cached_cells[label]["result"]["seed"] = 1
    cached = wl.JobOutcome(
        job=dict(job, executed=0, cache_hits=len(reference)), cells=cached_cells,
    )
    problems = wl.check_job(cached, reference, cold)
    assert any("cached result differs" in p for p in problems)
    assert wl.check_job(wl.JobOutcome(problems=["no terminal SSE frame"]), reference, cold)


def test_calibration_kernels_do_fixed_work():
    # Normalised times compare across commits only while the kernels'
    # work stays exactly the same.
    import calibrate

    assert [kernel() for kernel, _ in calibrate.KERNELS] == [
        6500, 651033854187500, 28500, 141254,
    ]
    speed = calibrate.HostSpeed()
    assert 0 < calibrate.between(speed.sample(), speed.sample()) < 100
    assert len(speed.samples) == 2


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", wl.HOTSPOT, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
