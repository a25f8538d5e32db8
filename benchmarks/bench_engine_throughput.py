"""Simulator-core microbenchmarks and the per-policy throughput watch.

Measures the discrete-event engine's raw event rate and a packet's
end-to-end cost through the fabric, so regressions in the substrate are
visible independently of the Chapter-4 experiments.

Run standalone, it rates every policy the digest gate covers on the
pinned congested hot-spot (:func:`repro.perf.pinned_hotspot_spec`) and
writes ``BENCH_engine.json``:

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--quick] [--out PATH]

It first runs the ``repro.perf`` digest gate on every policy and exits 1
on drift, so every rate comes from a build that replays bit-identically.
Rates are host-normalised by :mod:`timing`; a rate more than
:data:`TOLERANCE` below the committed ``BENCH_engine.json`` only warns,
because a shared host's throughput is too noisy to fail on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.replay import build
from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.perf import (
    DEFAULT_POLICIES,
    check_digests,
    load_baseline,
    main as perf_main,
    pinned_hotspot_spec,
    run_pinned_workload,
)
from repro.routing.deterministic import DeterministicPolicy
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh2D
from timing import measure, pin_to_one_cpu, write_report

#: the committed rate reference the watch compares against.
REFERENCE = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: a normalised rate may fall this far below the reference before a warning.
TOLERANCE = 0.20


def bench_event_engine_rate(benchmark):
    """Schedule/execute chains of empty events."""

    def run():
        sim = Simulator()

        def chain(n):
            if n:
                sim.schedule(1e-9, chain, n - 1)

        sim.schedule(0.0, chain, 20000)
        sim.run()
        return sim.events_executed

    executed = benchmark(run)
    assert executed == 20001


def bench_fabric_packet_throughput(benchmark):
    """Push a packet batch across an 8x8 mesh under deterministic routing."""

    def run():
        sim = Simulator()
        fabric = Fabric(Mesh2D(8), NetworkConfig(), DeterministicPolicy(), sim)
        for i in range(500):
            fabric.send(i % 64, (i * 17 + 5) % 64, 1024)
        sim.run()
        return fabric.data_packets_delivered

    delivered = benchmark(run)
    assert delivered > 450  # loopback sends excluded


def bench_hotspot_events_per_s(benchmark):
    """Pinned hot-spot workload (see repro.perf): one deterministic-policy
    pass, asserting the digest gate holds for that policy."""
    executed = benchmark.pedantic(
        run_pinned_workload, args=("deterministic", 60_000),
        rounds=1, iterations=1,
    )
    assert executed == 60_000
    results = check_digests(["deterministic"], load_baseline())
    assert results["deterministic"]["ok"], "digest drift: see repro.perf"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter rating for CI: 60k events x 3 runs per policy, not 200k x 5",
    )
    parser.add_argument("--out", type=Path, default=Path("BENCH_engine.json"))
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    # Every rate comes from a build that replays bit-identically.
    if perf_main([]) != 0:
        print("digest drift: nothing was timed", file=sys.stderr)
        return 1

    reference = (json.loads(REFERENCE.read_text(encoding="utf-8"))["policies"]
                 if REFERENCE.exists() else {})
    events, repeats = (60_000, 3) if args.quick else (200_000, 5)
    policies, warnings = {}, []
    for policy in DEFAULT_POLICIES:
        timing = measure(lambda: build(pinned_hotspot_spec(policy)),
                         repeats=repeats, max_events=events)
        # Some policies finish the 50 bursts in fewer events than the cap.
        assert len(set(timing.events)) == 1, f"{policy}: same-seed runs diverged"
        policies[policy] = entry = timing.report()
        known = reference.get(policy, {}).get("events_per_s")
        versus = "no reference rate"
        if known:
            entry["vs_reference"] = round(timing.events_per_s / known, 3)
            versus = f"{entry['vs_reference']:.2f}x the reference"
            if timing.events_per_s < known * (1.0 - TOLERANCE):
                warnings.append(
                    f"{policy}: {timing.events_per_s:.0f} ev/s is more than "
                    f"{TOLERANCE:.0%} below the committed {known:.0f} ev/s "
                    "(host-dependent; not a failure)"
                )
        print(f"{policy:<18} {entry['events_per_s']:>10.0f} ev/s "
              f"(raw {entry['raw_events_per_s']:.0f}; {versus})")
    write_report(args.out, {
        "benchmark": "engine_throughput",
        "workload": "repro.perf.pinned_hotspot_spec",
        "max_events": events,
        "repeats": repeats,
        "quick": args.quick,
        "digest_ok": True,
        "policies": policies,
        "warnings": warnings,
    })
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"report: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
