"""Benchmark: checkpoint size, save/restore latency, and cadence overhead.

Three questions a crash-safe sweep deployment needs answered
(docs/checkpoint.md):

* how big is a mid-run snapshot, and how does it scale with the
  simulation size;
* how long do ``save_scenario_checkpoint`` / ``load_scenario_checkpoint``
  take, i.e. what does one periodic checkpoint cost;
* what throughput does the default 200k-event cadence cost end to end —
  asserted below 5%, the budget the default was chosen against.

It asserts the correctness invariant the numbers rest on, on the timed
runs themselves: a cadence-checkpointed run's digests are bit-identical
to an untouched run (the hook only observes event boundaries).  Every
time and rate is a host-normalised median from :mod:`timing`.

Standalone:
    PYTHONPATH=src python benchmarks/bench_checkpoint.py \
        [--repeats 3] [--out BENCH_checkpoint.json]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from pathlib import Path

from repro.analysis.replay import finish, run_scenario
from repro.checkpoint.runner import (
    build_context,
    load_scenario_checkpoint,
    save_scenario_checkpoint,
)
from timing import Timing, measure, pin_to_one_cpu, repeat, write_report

#: (mesh_side, repetitions) points spanning small to sweep-sized cells.
SIZES = ((4, 3), (6, 10), (6, 40))

#: the worker default (repro.parallel.worker) whose overhead we budget.
DEFAULT_CADENCE = 200_000

#: cadence dense enough that several snapshots fire inside the
#: benchmark workload, giving a measurable per-save cost.
PROBE_CADENCE = 10_000

#: throughput budget for the default cadence, asserted.
OVERHEAD_BUDGET = 0.05


def profile_size(mesh_side: int, repetitions: int, repeats: int, tmp: Path) -> dict:
    """Snapshot size + save/restore latency for one scenario size."""
    params = {"policy": "pr-drb", "seed": 0, "mesh_side": mesh_side,
              "repetitions": repetitions}
    context = build_context("replay", params)
    context.sim.run(until=context.until / 2)
    path = tmp / f"size_{mesh_side}x{repetitions}.ckpt"

    save = repeat(lambda: save_scenario_checkpoint(context, path), repeats=repeats)
    restore = repeat(lambda: load_scenario_checkpoint(path), repeats=repeats)
    return {
        "mesh_side": mesh_side,
        "repetitions": repetitions,
        "events_at_snapshot": context.sim.events_executed,
        "snapshot_bytes": os.path.getsize(path),
        "save_s": save.seconds,
        "restore_s": restore.seconds,
        "save_timing": save.report(),
        "restore_timing": restore.report(),
    }


def _with_cadence(params: dict, cadence: int, tmp: Path):
    """A replay cell that checkpoints every ``cadence`` events exactly
    as a resumable worker does."""
    context = build_context("replay", params)
    path = tmp / "cadence.ckpt"
    context.sim.set_checkpoint_cadence(
        cadence, lambda: save_scenario_checkpoint(context, path)
    )
    return context


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

    off, on = Timing(), Timing()
    for _ in range(repeats):  # interleaved: a slow phase hits both alike
        off += measure(lambda: build_context("replay", params), repeats=1)
        on += measure(lambda: _with_cadence(params, PROBE_CADENCE, tmp), repeats=1)

    # The cadence hook must not perturb the digests of the timed runs.
    digests = []
    for context in off.results + on.results:
        context.sim.set_checkpoint_cadence(None)
        digests.append(finish(context).to_dict())
    assert all(d == digests[0] for d in digests), (
        "cadence checkpointing perturbed the digests"
    )

    rate_off, rate_on = off.events_per_s, on.events_per_s
    executed = off.events[0]
    saves_per_run = executed // PROBE_CADENCE
    probe_overhead = (rate_off - rate_on) / rate_off
    # time_on - time_off, amortized over the snapshots that fired.
    save_cost_s = (executed / rate_on - executed / rate_off) / saves_per_run
    projected = save_cost_s * rate_off / DEFAULT_CADENCE
    return {
        "probe_cadence_events": PROBE_CADENCE,
        "default_cadence_events": DEFAULT_CADENCE,
        "run_events": executed,
        "probe_saves_per_run": saves_per_run,
        "events_per_s_off": rate_off,
        "events_per_s_probe": rate_on,
        "timing_off": off.report(),
        "timing_probe": on.report(),
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
    pin_to_one_cpu()

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

    report = write_report(args.out, {
        "benchmark": "checkpoint",
        "repeats": args.repeats,
        "sizes": sizes,
        "cadence": cadence,
    })
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
