#!/usr/bin/env python3
"""Hot-spot learning demo (the Fig. 3.1 story).

Four aggressor flows collide on one column of an 8x8 mesh in repeated
communication bursts (the paper's bursty-application model).  During the
first burst PR-DRB behaves exactly like DRB — it is *learning* which
contending-flow pattern causes the congestion and which alternative-path
combination controls it.  On every later burst it recognizes the pattern
(>= 80 % signature match) and re-applies the saved solution at once.

The script prints a per-burst latency table for DRB vs PR-DRB and the
PR-DRB solution-database statistics, then renders the mesh latency map
(Figs 4.10-4.11) as ASCII art.

Run:  python examples/hotspot_learning.py
"""

import numpy as np

from repro.analysis.replay import ScenarioSpec
from repro.experiments.config import (
    HOTSPOT_FLOWS,
    HOTSPOT_IDLE_MBPS,
    HOTSPOT_NOISE_MBPS,
    HOTSPOT_RATE_MBPS,
)
from repro.experiments.runner import run_policies
from repro.topology import make_topology
from repro.topology.mesh import Mesh2D

BURSTS = 6


def ascii_map(contention: dict[int, float], topo: Mesh2D) -> str:
    """Render per-router contention latency as a character grid."""
    grid = np.zeros((topo.height, topo.width))
    for router, value in contention.items():
        x, y = topo.coords(router)
        grid[y, x] = value
    peak = grid.max() or 1.0
    shades = " .:-=+*#%@"
    lines = []
    for row in grid[::-1]:  # y axis upward
        lines.append(
            "".join(shades[min(9, int(v / peak * 9.999))] for v in row)
        )
    return "\n".join(lines)


def main() -> None:
    spec = ScenarioSpec(
        policy="pr-drb", seed=0, topology="mesh:8", flows=tuple(HOTSPOT_FLOWS),
        rate_bps=HOTSPOT_RATE_MBPS * 1e6, burst_on_s=3e-4, burst_off_s=6e-4,
        repetitions=BURSTS, noise_rate_bps=HOTSPOT_NOISE_MBPS * 1e6,
        idle_rate_bps=HOTSPOT_IDLE_MBPS * 1e6, notification="router", drain_s=8e-4,
    )
    topo = make_topology(spec.topology)
    schedule = spec.burst_schedule()
    runs = run_policies(spec, ["drb", "pr-drb"])

    print("Per-burst mean latency (us):")
    print(f"{'burst':>5s} {'drb':>8s} {'pr-drb':>8s}")
    for b in range(BURSTS):
        start = b * schedule.period_s
        row = []
        for name in ("drb", "pr-drb"):
            t, v = runs[name].latency_series
            mask = (t >= start) & (t < start + schedule.period_s)
            row.append(v[mask].mean() * 1e6 if mask.any() else 0.0)
        print(f"{b + 1:5d} {row[0]:8.1f} {row[1]:8.1f}")

    stats = runs["pr-drb"].policy_stats
    print(
        f"\nPR-DRB learned {stats['patterns_learned']} congestion patterns, "
        f"re-applied saved solutions {stats['solutions_applied']} times."
    )
    for name in ("drb", "pr-drb"):
        r = runs[name]
        print(f"\n{name} latency map (peak {r.map_peak_s * 1e6:.1f} us):")
        print(ascii_map(r.contention_map, topo))


if __name__ == "__main__":
    main()
