"""Benchmark: checkpoint size, save/restore latency, and cadence overhead.

Three questions a crash-safe sweep deployment needs answered
(docs/checkpoint.md):

* how big is a mid-run snapshot, and how does it scale with the
  simulation size;
* how long do ``save_scenario_checkpoint`` / ``load_scenario_checkpoint``
  take, i.e. what does one periodic checkpoint cost;
* what throughput does the default 20k-event cadence cost end to end —
  asserted below 5%, the budget the default was chosen against.

Before timing, it asserts the correctness invariant the numbers rest on:
a cadence-checkpointed run's digests are bit-identical to an untouched
run (the hook only observes event boundaries).

Standalone:
    PYTHONPATH=src python benchmarks/bench_checkpoint.py \
        [--repeats 3] [--out BENCH_checkpoint.json]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.analysis.replay import finish, run_scenario
from repro.checkpoint.runner import (
    build_context,
    load_scenario_checkpoint,
    save_scenario_checkpoint,
)

#: (mesh_side, repetitions) points spanning small to sweep-sized cells.
SIZES = ((4, 3), (6, 10), (6, 40))

#: the worker default (repro.parallel.worker) whose overhead we budget.
DEFAULT_CADENCE = 200_000

#: cadence dense enough that several snapshots fire inside the
#: benchmark workload, giving a measurable per-save cost.
PROBE_CADENCE = 10_000

#: throughput budget for the default cadence, asserted.
OVERHEAD_BUDGET = 0.05


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


def profile_size(mesh_side: int, repetitions: int, repeats: int, tmp: Path) -> dict:
    """Snapshot size + save/restore latency for one scenario size."""
    params = {"policy": "pr-drb", "seed": 0, "mesh_side": mesh_side,
              "repetitions": repetitions}
    context = build_context("replay", params)
    context.sim.run(until=context.until / 2)
    path = tmp / f"size_{mesh_side}x{repetitions}.ckpt"

    save_s = _best(lambda: save_scenario_checkpoint(context, path), repeats)
    restore_s = _best(lambda: load_scenario_checkpoint(path), repeats)
    return {
        "mesh_side": mesh_side,
        "repetitions": repetitions,
        "events_at_snapshot": context.sim.events_executed,
        "snapshot_bytes": os.path.getsize(path),
        "save_s": save_s,
        "restore_s": restore_s,
    }


def _run_with_cadence(params: dict, cadence, tmp: Path):
    """Run one replay cell, optionally checkpointing every ``cadence``
    events exactly as a resumable worker does; returns (digests, rate)."""
    context = build_context("replay", params)
    if cadence:
        path = tmp / "cadence.ckpt"
        context.sim.set_checkpoint_cadence(
            cadence, lambda: save_scenario_checkpoint(context, path)
        )
    start = time.process_time()
    context.sim.run(until=context.until)
    elapsed = time.process_time() - start
    executed = context.sim.events_executed
    context.sim.set_checkpoint_cadence(None)
    result = finish(context).to_dict()
    return result, (executed / elapsed if elapsed > 0 else 0.0), executed


def cadence_overhead(repeats: int, tmp: Path) -> dict:
    """Measure per-save cost at a dense probe cadence, then project the
    throughput cost of the worker's default cadence.

    The benchmark workload (~80k events) is smaller than the 200k-event
    default cadence, so the default is probed indirectly: snapshots at
    ``PROBE_CADENCE`` give an empirical cost per save, and the overhead
    at any cadence C is ``save_cost * event_rate / C`` (one save per C
    events).  The probe's own measured overhead is reported too, as a
    sanity anchor for the projection.
    """
    params = {"policy": "pr-drb", "seed": 0, "mesh_side": 6, "repetitions": 40}

    # Correctness first: the cadence hook must not perturb the digests.
    plain, _, _ = _run_with_cadence(params, None, tmp)
    hooked, _, _ = _run_with_cadence(params, PROBE_CADENCE, tmp)
    assert hooked == plain, "cadence checkpointing perturbed the digests"

    rate_off = rate_on = 0.0
    executed = 0
    for _ in range(repeats):
        _, rate, executed = _run_with_cadence(params, None, tmp)
        rate_off = max(rate_off, rate)
        _, rate, _ = _run_with_cadence(params, PROBE_CADENCE, tmp)
        rate_on = max(rate_on, rate)
    saves_per_run = executed // PROBE_CADENCE
    probe_overhead = (rate_off - rate_on) / rate_off if rate_off else 0.0
    # time_on - time_off, amortized over the snapshots that fired.
    save_cost_s = (
        (executed / rate_on - executed / rate_off) / saves_per_run
        if rate_on and rate_off and saves_per_run
        else 0.0
    )
    projected = save_cost_s * rate_off / DEFAULT_CADENCE if rate_off else 0.0
    return {
        "probe_cadence_events": PROBE_CADENCE,
        "default_cadence_events": DEFAULT_CADENCE,
        "run_events": executed,
        "probe_saves_per_run": saves_per_run,
        "events_per_s_off": rate_off,
        "events_per_s_probe": rate_on,
        "probe_overhead": probe_overhead,
        "save_cost_s": save_cost_s,
        "default_cadence_overhead": projected,
        "budget": OVERHEAD_BUDGET,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_checkpoint.json")
    args = parser.parse_args(argv)

    # Resume correctness smoke: a restored cell finishes with the same
    # digests as an uninterrupted one (the exhaustive gate is
    # ``python -m repro.checkpoint verify``).
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        params = {"policy": "pr-drb", "seed": 0, "mesh_side": 4, "repetitions": 3}
        reference = run_scenario(**params).to_dict()
        context = build_context("replay", params)
        context.sim.run(until=context.until / 2)
        save_scenario_checkpoint(context, tmp / "smoke.ckpt")
        _, resumed = load_scenario_checkpoint(tmp / "smoke.ckpt")
        resumed.sim.run(until=resumed.until)
        assert finish(resumed).to_dict() == reference, "resume drift"

        sizes = [profile_size(m, r, args.repeats, tmp) for m, r in SIZES]
        cadence = cadence_overhead(args.repeats, tmp)

    assert cadence["default_cadence_overhead"] < OVERHEAD_BUDGET, (
        f"default-cadence overhead {cadence['default_cadence_overhead']:.1%} "
        f"exceeds {OVERHEAD_BUDGET:.0%} budget"
    )

    report = {
        "benchmark": "checkpoint",
        "repeats": args.repeats,
        "sizes": sizes,
        "cadence": cadence,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
