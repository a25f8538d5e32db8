"""Canonical experiment parameters (Tables 4.2 and 4.3) and scaling.

The thesis simulated an InfiniBand-flavoured OPNET model whose effective
per-link goodput (protocol overheads, credits, VL arbitration) is well
below the nominal 2 Gbps; congestion appears there at 400-600 Mbps/node.
Our leaner VCT model delivers nearly the nominal link rate, so the same
*relative* operating points sit at higher absolute offered loads.  The
``PAPER_RATE_MAP`` records the mapping used throughout the reproduction:
the paper's low operating point (400 Mbps ≈ 50 % of effective capacity)
maps to 1000 Mbps here, and the high point (600 ≈ 70 %) to 1400 Mbps.
Shapes (who wins, where crossovers fall) are preserved; absolute
microseconds are not comparable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

#: paper-quoted per-node injection rates -> this model's operating points.
PAPER_RATE_MAP = {400: 1000.0, 600: 1400.0}

#: the §4.5 hot-spot specific pattern on the 8x8 mesh: sources on rows
#: 0-3 of column 0, destinations on column x=5, rows 4-7 — the minimal
#: paths share only the column-5 climb, which becomes the hot spot.
HOTSPOT_FLOWS = [(0, 37), (8, 45), (16, 53), (24, 61)]

#: per-flow burst rate for the hot-spot experiments (bits/s scale-mapped
#: as above; 4 flows x 1.3 Gbps over one 2 Gbps column).
HOTSPOT_RATE_MBPS = 1300.0
#: uniform background noise from the remaining nodes (§4.6.2).
HOTSPOT_NOISE_MBPS = 30.0
#: Fig. 2.6a low-load phase between bursts.
HOTSPOT_IDLE_MBPS = 250.0

#: burst envelope: communication phase / computation phase durations.
BURST_ON_S = 3e-4
BURST_OFF_S = 6e-4


@dataclass(frozen=True)
class Scale:
    """Experiment sizing: quick (tests) vs full (benchmarks)."""

    name: str
    #: bursty repetitions for synthetic experiments.
    repetitions: int
    #: seeds averaged per §4.3.
    seeds: tuple[int, ...]
    #: ranks for application traces.
    app_ranks: int
    #: iteration knob passed to trace synthesizers.
    app_iterations: int


QUICK = Scale(name="quick", repetitions=3, seeds=(0,), app_ranks=16, app_iterations=1)
FULL = Scale(name="full", repetitions=8, seeds=(0, 1), app_ranks=64, app_iterations=3)
