"""Tests for the benchmarks' one timing routine (``benchmarks/timing.py``)
and the committed engine rate reference it writes."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.replay import build
from repro.perf import DEFAULT_POLICIES, pinned_hotspot_spec

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import timing  # noqa: E402

PROVENANCE = {"cores", "python", "code_version", "git_commit"}


def test_measure_rates_pinned_hotspot():
    result = timing.measure(
        lambda: build(pinned_hotspot_spec("deterministic")), repeats=2, max_events=5_000
    )
    assert result.events == [5_000, 5_000]
    assert [s.sim.events_executed for s in result.results] == [5_000, 5_000]
    assert result.events_per_s > 0
    raw = [n / s for n, s in zip(result.events, result.cpu_s)]
    assert result.rates() == pytest.approx([r * f for r, f in zip(raw, result.slowdown)])
    report = result.report()
    assert report["cpu_s"] == [round(s, 6) for s in result.cpu_s]
    assert len(report["slowdown"]) == 2
    assert report["events"] == [5_000, 5_000]


def test_repeat_times_a_latency():
    result = timing.repeat(lambda: sum(range(1000)), repeats=3)
    assert result.results == [499500] * 3
    assert result.seconds > 0
    assert "events_per_s" not in result.report()


def test_write_report_adds_provenance(tmp_path):
    out = tmp_path / "BENCH_x.json"
    timing.write_report(out, {"benchmark": "x"})
    report = json.loads(out.read_text())
    assert report["benchmark"] == "x"
    assert set(report["provenance"]) == PROVENANCE


def test_committed_engine_reference_covers_every_policy():
    report = json.loads((ROOT / "BENCH_engine.json").read_text())
    for policy in DEFAULT_POLICIES:
        assert report["policies"][policy]["events_per_s"] > 0, policy
    assert set(report["provenance"]) == PROVENANCE
    assert report["digest_ok"] is True
