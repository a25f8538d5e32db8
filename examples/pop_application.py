#!/usr/bin/env python3
"""Application-aware routing on the Parallel Ocean Program (§4.8.4).

Synthesizes a POP logical trace (periodic 2-D halos with scattered remote
partners + an allreduce-heavy barotropic solver), replays it through the
trace-driven MPI runtime on a 64-host fat-tree, and compares all seven
routing policies of Fig. 4.27: deterministic, cyclic, random, DRB, PR-DRB,
FR-DRB and predictive FR-DRB.

Run:  python examples/pop_application.py
"""

from repro.analysis.replay import app_spec
from repro.experiments.runner import run_policies

POLICIES = [
    "deterministic", "cyclic", "random",
    "drb", "pr-drb", "fr-drb", "pr-fr-drb",
]


def main() -> None:
    print("Replaying POP (64 ranks, 3 time-steps) under each policy...\n")
    spec = app_spec("pop", "pr-drb", 0, "fattree:4,3", "router", {"num_ranks": 64, "steps": 3})
    runs = run_policies(spec, POLICIES)
    print(f"{'policy':13s} {'global latency':>15s} {'map peak':>10s} {'exec time':>11s}")
    baseline = runs["deterministic"]
    for name in POLICIES:
        r = runs[name]
        gain = (1 - r.global_latency_s / baseline.global_latency_s) * 100
        print(
            f"{name:13s} {r.global_latency_s * 1e6:11.2f} us "
            f"{r.map_peak_s * 1e6:7.2f} us "
            f"{r.execution_time_s * 1e3:8.3f} ms"
            + (f"   ({gain:+.1f}% vs det)" if name != "deterministic" else "")
        )
    pr = runs["pr-drb"].policy_stats
    print(
        f"\nPR-DRB pattern statistics: learned={pr.get('patterns_learned')}, "
        f"reapplied={pr.get('patterns_reapplied')}, reuses={pr.get('total_reuses')}"
    )


if __name__ == "__main__":
    main()
