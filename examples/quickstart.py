#!/usr/bin/env python3
"""Quickstart: simulate PR-DRB on a fat-tree in ~20 lines.

Builds a 4-ary 3-tree (64 hosts), drives 32 of its hosts with *bursty*
perfect-shuffle traffic (the repetitive communication-phase model PR-DRB
is designed for), and prints the latency summary for the deterministic
baseline, DRB, and PR-DRB.

Run:  python examples/quickstart.py
"""

from repro import BurstSchedule, build_network, run_synthetic

#: four communication bursts separated by computation phases (Fig. 2.6).
SCHEDULE = BurstSchedule(on_s=3e-4, off_s=5e-4, repetitions=4)


def main() -> None:
    print(f"{'policy':15s} {'mean latency':>14s} {'p99':>12s} {'accepted':>9s}")
    for policy in ("deterministic", "drb", "pr-drb"):
        net = build_network(topology="fattree:4,3", policy=policy,
                            notification="router")
        result = run_synthetic(
            net,
            pattern="perfect-shuffle",
            rate_mbps=1200,
            duration_s=SCHEDULE.end_time(),
            hosts=range(32),
            schedule=SCHEDULE,
            drain_s=1.5e-3,
        )
        summary = result.summary()
        print(
            f"{policy:15s} {summary['mean_latency_s'] * 1e6:11.2f} us "
            f"{summary['p99_latency_s'] * 1e6:9.2f} us "
            f"{summary['accepted_ratio']:8.2f}"
        )
    print("\nLower is better; DRB/PR-DRB balance traffic over alternative")
    print("paths while the deterministic baseline keeps colliding flows on")
    print("the same up-links.")


if __name__ == "__main__":
    main()
