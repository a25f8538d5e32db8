"""Policy-comparison runner (§4.3 evaluation method).

Runs the *same* workload (same seeds, same injection times) under each
routing policy and collects the quantities Chapter 4 plots: global average
latency (Eq. 4.2), windowed latency series, per-router contention latency,
latency-map surfaces, execution time for trace replays, and the predictive
policies' pattern statistics.  Multiple seeds are averaged as in §4.3.

Every workload, hot-spot, permutation or application trace, is a
:class:`~repro.analysis.replay.ScenarioSpec` run by :func:`run_policies`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.analysis.replay import APP_TIMEOUT_S, ScenarioSpec, build, cell_params
from repro.experiments.stats import ConfidenceInterval, confidence_interval


@dataclass
class PolicyRun:
    """Everything measured for one policy under one workload."""

    policy_name: str
    global_latency_s: float
    mean_latency_s: float
    p99_latency_s: float
    execution_time_s: float
    contention_map: dict[int, float]
    latency_series: tuple[np.ndarray, np.ndarray]
    router_series: dict[int, tuple[np.ndarray, np.ndarray]]
    policy_stats: dict
    accepted_ratio: float
    seeds: int = 1
    #: 95 % CI of the global latency over seeds (§4.3); zero-width for
    #: single-seed runs.
    global_latency_ci: Optional[ConfidenceInterval] = None

    @property
    def map_peak_s(self) -> float:
        return max(self.contention_map.values(), default=0.0)

    @property
    def map_mean_s(self) -> float:
        values = list(self.contention_map.values())
        return float(np.mean(values)) if values else 0.0

    def row(self) -> dict:
        return {
            "policy": self.policy_name,
            "global_latency_us": round(self.global_latency_s * 1e6, 3),
            "map_peak_us": round(self.map_peak_s * 1e6, 3),
            "exec_time_ms": round(self.execution_time_s * 1e3, 4),
            "accepted": round(self.accepted_ratio, 3),
        }

    def to_dict(self) -> dict:
        """Lossless JSON form (Python floats round-trip bit-exactly).

        This is what lets :mod:`repro.parallel` ship a per-seed run back
        from a worker process, or answer it from the on-disk cache, with
        results bit-identical to an in-process serial run.
        """
        from repro.parallel.tasks import json_safe

        return {
            "policy_name": self.policy_name,
            "global_latency_s": self.global_latency_s,
            "mean_latency_s": self.mean_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "execution_time_s": self.execution_time_s,
            "contention_map": {str(k): float(v) for k, v in self.contention_map.items()},
            "latency_series": [
                [float(x) for x in self.latency_series[0]],
                [float(x) for x in self.latency_series[1]],
            ],
            "router_series": {
                str(rid): [[float(x) for x in t], [float(x) for x in v]]
                for rid, (t, v) in self.router_series.items()
            },
            "policy_stats": json_safe(self.policy_stats),
            "accepted_ratio": self.accepted_ratio,
            "seeds": self.seeds,
            "global_latency_ci": (
                None if self.global_latency_ci is None
                else {
                    "mean": self.global_latency_ci.mean,
                    "half_width": self.global_latency_ci.half_width,
                    "samples": self.global_latency_ci.samples,
                }
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PolicyRun":
        ci = data.get("global_latency_ci")
        return cls(
            policy_name=str(data["policy_name"]),
            global_latency_s=float(data["global_latency_s"]),
            mean_latency_s=float(data["mean_latency_s"]),
            p99_latency_s=float(data["p99_latency_s"]),
            execution_time_s=float(data["execution_time_s"]),
            contention_map={int(k): float(v) for k, v in data["contention_map"].items()},
            latency_series=(
                np.asarray(data["latency_series"][0], dtype=float),
                np.asarray(data["latency_series"][1], dtype=float),
            ),
            router_series={
                int(rid): (
                    np.asarray(series[0], dtype=float),
                    np.asarray(series[1], dtype=float),
                )
                for rid, series in data["router_series"].items()
            },
            policy_stats=dict(data["policy_stats"]),
            accepted_ratio=float(data["accepted_ratio"]),
            seeds=int(data.get("seeds", 1)),
            global_latency_ci=(
                None if ci is None
                else ConfidenceInterval(
                    mean=float(ci["mean"]),
                    half_width=float(ci["half_width"]),
                    samples=int(ci["samples"]),
                )
            ),
        )


def improvement(baseline: float, value: float) -> float:
    """Relative reduction of ``value`` vs ``baseline`` (0.2 = 20 % better)."""
    if baseline <= 0:
        return 0.0
    return (baseline - value) / baseline


def _average_runs(runs: list[PolicyRun]) -> PolicyRun:
    """Average per-seed runs (§4.3: repeated simulations, averaged)."""
    first = runs[0]
    if len(runs) == 1:
        return first
    maps: dict[int, list[float]] = {}
    for r in runs:
        for k, v in r.contention_map.items():
            maps.setdefault(k, []).append(v)
    ci = confidence_interval([r.global_latency_s for r in runs])
    return PolicyRun(
        policy_name=first.policy_name,
        global_latency_s=float(np.mean([r.global_latency_s for r in runs])),
        mean_latency_s=float(np.mean([r.mean_latency_s for r in runs])),
        p99_latency_s=float(np.mean([r.p99_latency_s for r in runs])),
        execution_time_s=float(np.mean([r.execution_time_s for r in runs])),
        contention_map={k: float(np.mean(v)) for k, v in maps.items()},
        latency_series=first.latency_series,
        router_series=first.router_series,
        policy_stats=first.policy_stats,
        accepted_ratio=float(np.mean([r.accepted_ratio for r in runs])),
        seeds=len(runs),
        global_latency_ci=ci,
    )


def run_cell(spec: ScenarioSpec, tracer=None, metrics=None, metrics_cadence_s=None) -> PolicyRun:
    """Build ``spec``, run it and measure it.

    A hot-spot or permutation cell runs through its drain, and its
    execution time is the end of the burst schedule.  An application
    cell runs until its last rank finishes: that time is its execution
    time, and a trace still running at :data:`~repro.analysis.replay.APP_TIMEOUT_S`
    raises ``RuntimeError``.  ``tracer`` and ``metrics`` observe only
    (:func:`repro.analysis.replay.build`).
    """
    scenario = build(spec, tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s)
    if spec.app is None:
        scenario.sim.run(until=scenario.until)
        execution_time_s = spec.burst_schedule().end_time()
    else:
        execution_time_s = scenario.workload.run(timeout_s=APP_TIMEOUT_S)
    fabric, recorder = scenario.fabric, scenario.recorder
    return PolicyRun(
        policy_name=spec.policy,
        global_latency_s=recorder.global_average_latency_s,
        mean_latency_s=recorder.mean_latency_s,
        p99_latency_s=recorder.latency_percentile(99),
        execution_time_s=execution_time_s,
        contention_map=fabric.contention_map(),
        latency_series=recorder.latency_series.finalize(),
        router_series={rid: series.finalize() for rid, series in recorder.router_series.items()},
        policy_stats=fabric.policy.stats(),
        accepted_ratio=fabric.accepted_ratio(),
    )


def run_policies(
    spec: ScenarioSpec,
    policies: Sequence[str],
    seeds: Sequence[int] = (0,),
    *,
    executor=None,
) -> dict[str, PolicyRun]:
    """Run ``spec`` under every policy and seed; average per policy (§4.3).

    Each cell is ``spec`` with its policy and seed replaced, and each
    seed reseeds the traffic (an app's trace, when its factory takes a
    seed), the noise and the policy's routing draw.  ``executor`` (a
    :class:`repro.parallel.SweepExecutor`) fans the cells out as
    ``hotspot``/``pattern``/``app`` tasks (:func:`repro.analysis.replay.cell_params`);
    results are bit-identical to the inline loop.
    """
    cells = [replace(spec, policy=name, seed=seed) for name in policies for seed in seeds]
    if executor is not None and len(cells) > 1:
        from repro.parallel.tasks import SimTask

        tasks = []
        for cell in cells:
            kind, params = cell_params(cell)
            tasks.append(SimTask(kind, params, label=f"{kind}:{cell.policy}/seed{cell.seed}"))
        runs = [PolicyRun.from_dict(payload) for payload in executor.run_strict(tasks)]
    else:
        runs = [run_cell(cell) for cell in cells]
    return {
        name: _average_runs(runs[index * len(seeds):(index + 1) * len(seeds)])
        for index, name in enumerate(policies)
    }

