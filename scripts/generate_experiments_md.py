#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every scenario at FULL scale.

Usage:  python scripts/generate_experiments_md.py [--scale quick|full]

Takes a couple of minutes at full scale; writes the paper-vs-measured
record for every table and figure into EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments.config import FULL, QUICK
from repro.experiments.scenarios import ALL_SCENARIOS

HEADER = """\
# EXPERIMENTS — paper vs measured

Generated by `python scripts/generate_experiments_md.py` (scale: {scale}).

Each section regenerates one table or figure of *Predictive and
Distributed Routing Balancing for High Speed Interconnection Networks*
(Núñez Castillo et al., IEEE CLUSTER 2011 / UAB thesis 2013).  The
"paper" line quotes the claim; the table shows what this reproduction
measures; the checks assert the claim's *shape* (orderings, directions,
engagement of the predictive machinery).  Absolute values are not
comparable: the thesis ran an InfiniBand-flavoured OPNET model, this
repository a leaner virtual-cut-through model (see DESIGN.md for the
rate mapping).

Summary: {passed}/{total} experiments reproduce their claimed shape.

"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=["quick", "full"], default="full")
    parser.add_argument("--output", default=None)
    args = parser.parse_args()
    scale = FULL if args.scale == "full" else QUICK
    out_path = Path(args.output or Path(__file__).resolve().parent.parent / "EXPERIMENTS.md")

    sections = []
    passed = 0
    for name, fn in ALL_SCENARIOS.items():
        t0 = time.time()
        result = fn(scale)
        wall = time.time() - t0
        ok = result.passed
        passed += ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({wall:.1f}s)", flush=True)
        body = result.render()
        sections.append(
            f"## {result.experiment_id} — {result.title}\n\n"
            f"Bench: `benchmarks/bench_scenarios.py::bench_scenario[{name}]` — wall {wall:.1f}s\n\n"
            "```\n" + body + "\n```\n"
        )
    text = HEADER.format(scale=scale.name, passed=passed, total=len(ALL_SCENARIOS))
    text += "\n".join(sections)
    out_path.write_text(text)
    print(f"wrote {out_path} ({passed}/{len(ALL_SCENARIOS)} passed)")
    return 0 if passed == len(ALL_SCENARIOS) else 1


if __name__ == "__main__":
    sys.exit(main())
