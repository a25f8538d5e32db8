#!/usr/bin/env python3
"""Profile the simulator's hot path.

The HPC-Python discipline: no optimization without measuring.  This
script cProfiles a representative congested simulation — the pinned
mesh:8 hot-spot workload that ``benchmarks/bench_engine_throughput.py``
rates (``python -m repro.perf`` digests other cells: the mesh:4
``replay_spec`` hot-spot and the pinned POP trace cell) — and prints
the top functions by cumulative and internal time, so changes to the
event chain (Fabric._arrive / Router.forward) can be checked for
regressions.  It also prints the
run's events/sec so a profile and a throughput number always come from
the same invocation.

Built on :mod:`repro.parallel.profiling` — the same plumbing that
``python -m repro.parallel run --profile`` uses to drop per-cell
cProfile stats next to cached sweep results (see docs/parallel.md).

Usage:  python scripts/profile_sim.py [--policy pr-drb] [--events N]
                                      [--sort tottime|cumulative] [--dump PATH]
"""

from __future__ import annotations

import argparse
import time

from repro.parallel.profiling import profile_call, stats_text, write_profile
from repro.perf import DEFAULT_POLICIES, run_pinned_workload


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--policy", default="pr-drb", choices=DEFAULT_POLICIES,
                        help="routing policy to profile (default: pr-drb)")
    parser.add_argument("--events", type=int, default=300_000)
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative"])
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--dump", default=None,
                        help="also dump raw .prof stats (plus a .txt "
                        "rendering) to this path")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="additionally run the same workload once more "
                        "with repro.obs tracing (un-profiled, so the profile "
                        "stays clean) and write a Perfetto trace JSON here — "
                        "load it at ui.perfetto.dev")
    args = parser.parse_args()

    start = time.process_time()
    executed, profiler = profile_call(
        run_pinned_workload, args.policy, args.events
    )
    elapsed = time.process_time() - start
    rate = executed / elapsed if elapsed > 0 else 0.0
    print(f"policy {args.policy}: executed {executed} events "
          f"in {elapsed:.2f}s CPU = {rate:,.0f} events/sec (profiled)\n")
    print(stats_text(profiler, sort=args.sort, top=args.top))
    if args.dump:
        write_profile(profiler, args.dump, top=args.top)
        print(f"raw stats: {args.dump} (text: {args.dump}.txt)")
    if args.trace:
        from repro.obs import MemorySink, Tracer, write_perfetto

        memory = MemorySink()
        tracer = Tracer(sinks=[memory])
        run_pinned_workload(args.policy, args.events, tracer=tracer)
        write_perfetto(args.trace, memory.records,
                       label=f"profile_sim:{args.policy}")
        print(f"perfetto trace: {args.trace} ({len(memory.records)} records; "
              f"open at ui.perfetto.dev)")


if __name__ == "__main__":
    main()
