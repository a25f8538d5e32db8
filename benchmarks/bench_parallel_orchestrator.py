"""Benchmark: parallel sweep orchestrator vs serial execution.

Runs the paper's 8x8-mesh hot-spot sweep (4 policies x 8 seeds = 32
cells) plus 4 application-trace cells (the digest gate's pinned POP
cell, 2 policies x 2 seeds) three ways — serial (inline), N-worker
process pool, and a second pool pass answered entirely from the result
cache — asserts per-cell bit-identity across all three, and writes the
measurements to ``BENCH_parallel.json`` at the repo root.

The >= 2x speedup assertion only applies on machines with >= 4 physical
cores (CI runners); on smaller boxes the numbers are still recorded,
honestly, with the core count alongside.  A process pool is not one CPU,
so this bench keeps the orchestrator's wall times and neither pins
itself to a core nor host-normalises; it shares only the report writer
(and its provenance block) with the other benches.

Standalone:
    PYTHONPATH=src python benchmarks/bench_parallel_orchestrator.py \
        [--policies drb pr-drb] [--seeds 8] [--workers 4] [--out BENCH_parallel.json]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile

from repro.analysis.replay import ScenarioSpec, cell_params
from repro.experiments.config import (
    BURST_OFF_S,
    BURST_ON_S,
    HOTSPOT_FLOWS,
    HOTSPOT_IDLE_MBPS,
    HOTSPOT_NOISE_MBPS,
    HOTSPOT_RATE_MBPS,
)
from repro.parallel import SimTask, SweepConfig, run_sweep
from repro.parallel.tasks import canonical_json
from repro.perf import pinned_app_spec
from timing import write_report

DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")
REPETITIONS = 3
#: the application-trace cells: two policies x two seeds.
APP_POLICIES = ("drb", "pr-drb")
APP_SEEDS = 2


def hotspot_task(policy: str, seed: int) -> SimTask:
    """One (policy, seed) cell of the §4.5 hot-spot sweep on the 8x8 mesh."""
    kind, params = cell_params(ScenarioSpec(
        policy=policy, seed=seed, topology="mesh:8", flows=tuple(HOTSPOT_FLOWS),
        rate_bps=HOTSPOT_RATE_MBPS * 1e6, burst_on_s=BURST_ON_S, burst_off_s=BURST_OFF_S,
        repetitions=REPETITIONS, noise_rate_bps=HOTSPOT_NOISE_MBPS * 1e6,
        idle_rate_bps=HOTSPOT_IDLE_MBPS * 1e6, notification="router", drain_s=8e-4,
    ))
    return SimTask(kind=kind, params=params, label=f"{kind}:{policy}/seed{seed}")


def app_task(policy: str, seed: int) -> SimTask:
    """One (policy, seed) cell of POP on fattree:4,2 (:func:`repro.perf.pinned_app_spec`)."""
    kind, params = cell_params(pinned_app_spec(policy, seed))
    return SimTask(kind=kind, params=params, label=f"{kind}:{policy}/seed{seed}")


def run_bench(policies=DEFAULT_POLICIES, n_seeds=8, workers=None, out="BENCH_parallel.json"):
    cpu_count = os.cpu_count() or 1
    # Always exercise the real process pool (>= 2 workers), even on boxes
    # where that cannot speed anything up — correctness (bit-identity,
    # cache behaviour) is worth checking regardless of core count.  The
    # *timed* comparison is a different matter: a pool with more workers
    # than cores measures oversubscription, not parallelism, so the
    # speedup is only reported when the pool fits the machine.
    workers = workers or max(2, min(4, cpu_count))
    oversubscribed = workers > cpu_count
    tasks = [hotspot_task(p, s) for p in policies for s in range(n_seeds)]
    tasks += [app_task(p, s) for p in APP_POLICIES for s in range(APP_SEEDS)]
    version = "bench-parallel-v1"  # pinned: measurement, not invalidation

    serial = run_sweep(tasks, SweepConfig(workers=1, code_version=version))
    assert serial.all_ok, [o.error for o in serial.failed]

    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as cache_dir:
        parallel = run_sweep(
            tasks,
            SweepConfig(workers=workers, code_version=version, cache_dir=cache_dir),
        )
        assert parallel.all_ok, [o.error for o in parallel.failed]
        assert parallel.executed == len(tasks)

        mismatched = [
            task.display()
            for task, a, b in zip(tasks, serial.results, parallel.results)
            if canonical_json(a) != canonical_json(b)
        ]
        assert not mismatched, f"parallel != serial for {mismatched}"

        cached = run_sweep(
            tasks,
            SweepConfig(workers=workers, code_version=version, cache_dir=cache_dir),
        )
        assert cached.executed == 0, "second invocation must run zero simulations"
        assert cached.cache_hits == len(tasks)
        assert [canonical_json(r) for r in cached.results] == [
            canonical_json(r) for r in serial.results
        ]

    if oversubscribed:
        # The pool leg launched more workers than cores: its wall time
        # measures contention, not parallel speedup.  Recording a sub-1x
        # "speedup" here would be misleading (and was: 0.79x on a 1-core
        # box), so the timed comparison is skipped with the reason.
        speedup = None
        speedup_assertion = {
            "checked": False,
            "skipped_reason": (
                f"{workers} workers > {cpu_count} core(s): the pool leg is "
                "oversubscribed, so its wall time measures contention, not "
                "speedup"
            ),
        }
    elif cpu_count >= 4:
        speedup = serial.wall_s / parallel.wall_s if parallel.wall_s > 0 else 0.0
        speedup_assertion = {"checked": True, "skipped_reason": None}
    else:
        speedup = serial.wall_s / parallel.wall_s if parallel.wall_s > 0 else 0.0
        speedup_assertion = {
            "checked": False,
            "skipped_reason": (
                f"only {cpu_count} core(s); the >= 2x assertion needs >= 4 "
                "physical cores to be meaningful"
            ),
        }
    payload = {
        "benchmark": "parallel_orchestrator",
        "workload": {
            "kind": "hotspot",
            "topology": "mesh:8",
            "policies": list(policies),
            "seeds": n_seeds,
            "cells": len(tasks),
            "repetitions": REPETITIONS,
            "app_cells": {
                "app": "pop", "topology": "fattree:4,2", "policies": list(APP_POLICIES),
                "seeds": APP_SEEDS,
            },
        },
        "cpu_count": cpu_count,
        "workers": workers,
        "oversubscribed": oversubscribed,
        "serial_wall_s": round(serial.wall_s, 4),
        "parallel_wall_s": round(parallel.wall_s, 4),
        "speedup": round(speedup, 3) if speedup is not None else None,
        "cached_wall_s": round(cached.wall_s, 4),
        "cache_hit_rate": cached.cache_hits / len(tasks),
        "bit_identical": True,
        "cells_per_s_parallel": round(len(tasks) / parallel.wall_s, 3)
        if parallel.wall_s > 0 else 0.0,
        "speedup_assertion": speedup_assertion,
    }
    payload = write_report(out, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if speedup_assertion["checked"]:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {workers} workers on {cpu_count} "
            f"cores, measured {speedup:.2f}x"
        )
    else:
        print(f"SKIPPED speedup assertion: {speedup_assertion['skipped_reason']}")
    return payload


def bench_parallel_orchestrator(benchmark):
    """pytest-benchmark entry point (one full serial+parallel+cached pass)."""
    benchmark.pedantic(run_bench, rounds=1, iterations=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--policies", nargs="+", default=list(DEFAULT_POLICIES))
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args()
    run_bench(
        policies=args.policies, n_seeds=args.seeds,
        workers=args.workers, out=args.out,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
