"""CLI: ``python -m repro.faults`` — seeded fault-campaign smoke run.

Runs the reference 4x4-mesh campaign (transient link flaps + ACK loss,
reliable transport on) once per policy, prints the resilience table, and
enforces the acceptance gates:

* every policy delivers a nonzero fraction of its offered load;
* PR-DRB's delivered-under-fault ratio is at least deterministic's;
* MTTR is finite (the transient faults were actually repaired).

Exit 0 iff all gates hold — usable directly as a CI step.  A bad
argument (an unknown or malformed ``--policies`` entry, a value no
campaign could use) exits 2 before anything runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from repro.faults.campaign import (
    DEFAULT_POLICIES,
    FaultCampaignSpec,
    run_fault_campaign,
)
from repro.faults.metrics import render_reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Fault-injection campaign: link flaps + ACK loss on a "
        "small mesh, compared across routing policies.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mesh-side", type=int, default=4)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--ack-loss", type=float, default=0.1)
    parser.add_argument(
        "--policies", nargs="+", default=list(DEFAULT_POLICIES),
        help="routing policies to campaign (default: %(default)s)",
    )
    parser.add_argument(
        "--stochastic", action="store_true",
        help="draw flaps from an MTBF/MTTR process instead of the schedule",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    # Exit 1 means a failed gate: a bad input must not read as one.
    from repro.routing import check_policy_spec

    for policy in args.policies:
        try:
            check_policy_spec(policy)
        except ValueError as exc:
            parser.error(f"argument --policies: {exc}")
    try:
        spec = FaultCampaignSpec(
            seed=args.seed,
            mesh_side=args.mesh_side,
            repetitions=args.repetitions,
            ack_loss=args.ack_loss,
            stochastic=args.stochastic,
        )
    except ValueError as exc:
        parser.error(str(exc))
    results = run_fault_campaign(args.policies, spec)
    reports = [results[p].report for p in args.policies]
    if args.json:
        print(json.dumps({p: results[p].to_dict() for p in args.policies}, indent=2))
    else:
        print(render_reports(reports))

    failures = []
    for report in reports:
        if not report.delivered_ratio > 0:
            failures.append(f"{report.policy}: delivered-under-fault ratio is 0")
        if report.failures and not math.isfinite(report.mttr_s):
            failures.append(f"{report.policy}: MTTR is not finite")
    ratios = {r.policy: r.delivered_ratio for r in reports}
    if "pr-drb" in ratios and "deterministic" in ratios:
        if ratios["pr-drb"] < ratios["deterministic"]:
            failures.append(
                "pr-drb delivered-under-fault ratio "
                f"{ratios['pr-drb']:.3f} < deterministic's "
                f"{ratios['deterministic']:.3f}"
            )
    # Keep stdout machine-parseable under --json: gates go to stderr.
    gate_out = sys.stderr if args.json else sys.stdout
    for failure in failures:
        print(f"FAIL: {failure}", file=gate_out)
    if not failures:
        print(f"OK: {len(reports)} policies, seed={args.seed}", file=gate_out)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
