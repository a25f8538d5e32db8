"""Benchmark: observability overhead on the pinned hot-spot workload.

Measures the same :mod:`repro.perf` pinned workload four ways — tracing
off, tracing into a memory-backed :class:`~repro.obs.Tracer`, tracing
plus a cadence-snapshotting :class:`~repro.obs.MetricsRegistry`, and
``served`` (tracer + metrics whose snapshots publish into a live
:class:`~repro.obs.MetricsBus` with one draining SSE-style subscriber —
the full ``repro.serve`` telemetry plane) — and records the event-rate
cost of each into ``BENCH_obs.json`` at the repo root.  Rates are the
host-normalised medians of :mod:`timing`, with the four modes
interleaved inside every repeat.  The ``served``
leg must cost < 10 % over ``traced+metrics``: bus publication is one
lock-bookkeeping hop plus a non-blocking queue offer per snapshot.
Before timing anything it asserts the PR's two invariants:

* tracing **off** leaves the ``repro.perf`` digests bit-identical to the
  committed baseline (the instrumentation guard is one ``is not None``
  branch per site);
* tracing **on** does not alter simulated behavior — the replay digests
  of a traced and an untraced run are equal.

Standalone:
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        [--policy pr-drb] [--events 200000] [--repeats 3] [--out BENCH_obs.json]
"""

from __future__ import annotations

import argparse
import threading
from contextlib import contextmanager, nullcontext

from repro.analysis.replay import build, run_scenario
from repro.obs import MemorySink, MetricsBus, MetricsRegistry, Tracer
from repro.perf import check_digests, load_baseline, pinned_hotspot_spec, run_pinned_workload
from timing import Timing, measure, pin_to_one_cpu, write_report

#: mode -> factory of the observers ``build`` attaches in that mode.
MODES = {
    "off": dict,
    "traced": lambda: {"tracer": Tracer(sinks=[MemorySink()])},
    "traced+metrics": lambda: {"tracer": Tracer(sinks=[MemorySink()]),
                               "metrics": MetricsRegistry(), "metrics_cadence_s": 5e-5},
}
MODES["served"] = MODES["traced+metrics"]


def bench_traced_pinned_run(benchmark):
    """pytest-benchmark entry: pinned pr-drb workload with a live tracer."""

    def run():
        tracer = Tracer()
        return run_pinned_workload("pr-drb", 60_000, tracer=tracer)

    executed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert executed == 60_000


@contextmanager
def served(metrics: MetricsRegistry):
    """The full telemetry plane: every cadence snapshot publishes into a
    bus with one live subscriber draining from another thread, exactly
    as an attached SSE consumer would."""
    bus = MetricsBus()
    subscription = bus.subscribe()
    stop_draining = threading.Event()

    def drain() -> None:
        while not stop_draining.is_set():
            subscription.get(timeout=0.05)

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    metrics.on_snapshot = lambda snap: bus.publish("cell.metrics", {"snapshot": snap})
    try:
        yield
    finally:
        # process_time counts every thread: the drainer must be gone
        # before the next mode's timed run.
        stop_draining.set()
        drainer.join()
    assert bus.published > 0, "served leg published no snapshots"


def rate_modes(policy: str, events: int, repeats: int) -> dict[str, Timing]:
    """Time every mode ``repeats`` times, the modes interleaved inside
    each repeat so a slow phase of the host hits every mode alike."""
    timings = {mode: Timing() for mode in MODES}
    for _ in range(repeats):
        for mode, observers in MODES.items():
            kwargs = observers()
            with served(kwargs["metrics"]) if mode == "served" else nullcontext():
                timings[mode] += measure(
                    lambda: build(pinned_hotspot_spec(policy), **kwargs),
                    repeats=1, max_events=events,
                )
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--policy", default="pr-drb")
    parser.add_argument("--events", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_obs.json")
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    # Invariant 1: tracing off keeps the committed perf digests.
    digest_results = check_digests([args.policy], load_baseline())
    assert digest_results[args.policy]["ok"], "digest drift: see repro.perf"

    # Invariant 2: tracing on does not perturb behavior.
    bare = run_scenario(seed=0, policy=args.policy, repetitions=2)
    traced = run_scenario(
        seed=0, policy=args.policy, repetitions=2, tracer=Tracer()
    )
    assert bare.events == traced.events and bare.metrics == traced.metrics

    timings = rate_modes(args.policy, args.events, args.repeats)
    assert all(t.events == [args.events] * args.repeats for t in timings.values())
    rates = {mode: timing.events_per_s for mode, timing in timings.items()}
    overhead = {
        mode: (rates["off"] - rate) / rates["off"]
        for mode, rate in rates.items()
        if mode != "off"
    }
    # The serving plane must be nearly free on top of full observation:
    # < 10 % slower than traced+metrics (usually indistinguishable).
    served_vs_instrumented = (
        (rates["traced+metrics"] - rates["served"]) / rates["traced+metrics"]
    )
    assert served_vs_instrumented < 0.10, (
        f"served leg costs {served_vs_instrumented:.1%} over traced+metrics "
        "(budget 10%)"
    )
    write_report(args.out, {
        "benchmark": "obs_overhead",
        "policy": args.policy,
        "events": args.events,
        "repeats": args.repeats,
        "events_per_s": {k: round(v, 1) for k, v in rates.items()},
        "modes": {mode: timing.report() for mode, timing in timings.items()},
        "overhead_fraction": {k: round(v, 4) for k, v in overhead.items()},
        "served_vs_traced_metrics": round(served_vs_instrumented, 4),
        "digests_bit_identical_tracing_off": True,
        "behavior_identical_tracing_on": True,
    })
    for mode, rate in rates.items():
        extra = (
            f"  ({overhead[mode]:+.1%} vs off)" if mode in overhead else ""
        )
        print(f"{mode:16s} {rate:12,.0f} events/sec{extra}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
