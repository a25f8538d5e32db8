"""Benchmark: dragonfly hot-spot throughput per routing policy.

The acceptance gate of the notified-adaptive family: on the pinned
``dragonfly:4,2,2`` group-pair hot-spot (see
:func:`repro.perf.pinned_dragonfly_spec`) the notification-driven
policy must deliver at least **1.2x** the packets deterministic minimal
routing manages, and every policy's same-seed replay must be
bit-identical (the digest is a SHA-256 over the executed event stream),
which the timed runs themselves show.  The report also records each
policy's host-normalised events/sec (:mod:`timing`) so engine
regressions on the dragonfly path stay visible.

Standalone:
    PYTHONPATH=src python benchmarks/bench_dragonfly.py \
        [--repeats 3] [--out BENCH_dragonfly.json]

The FULL-scale ``ext_dragonfly_hotspot`` / ``ext_dragonfly_noise``
scenario tables run in ``bench_scenarios.py``.
"""

from __future__ import annotations

import argparse
import json

from repro.analysis.replay import build
from repro.perf import pinned_dragonfly_spec
from timing import measure, pin_to_one_cpu, write_report

#: throughput ratio the notified policy must clear over deterministic.
THROUGHPUT_GATE = 1.2

POLICIES = ("deterministic", "notified-adaptive", "ugal")


def profile_policy(policy: str, repeats: int) -> dict:
    """Counters and host-normalised event rate of ``repeats`` digested
    runs; the timed runs themselves prove same-seed digest identity."""
    timing = measure(lambda: build(pinned_dragonfly_spec(policy), digest=True),
                     repeats=repeats)
    digests = {scenario.trace.hexdigest() for scenario in timing.results}
    assert len(digests) == 1, f"{policy}: same-seed dragonfly replay diverged"
    scenario = timing.results[0]
    return {
        "digest": digests.pop(),
        "events_executed": scenario.sim.events_executed,
        "packets_injected": scenario.fabric.data_packets_injected,
        "packets_delivered": scenario.fabric.data_packets_delivered,
        "events_per_s": round(timing.events_per_s, 1),
        "timing": timing.report(),
        "policy_stats": scenario.policy_obj.stats(),
    }


def build_report(repeats: int) -> dict:
    per_policy = {p: profile_policy(p, repeats) for p in POLICIES}
    det = per_policy["deterministic"]["packets_delivered"]
    ratios = {
        p: round(per_policy[p]["packets_delivered"] / det, 3)
        for p in POLICIES
    }
    return {
        "benchmark": "dragonfly",
        "workload": "dragonfly:4,2,2 group-pair hot-spot + noise (pinned)",
        "throughput_gate": THROUGHPUT_GATE,
        "policies": per_policy,
        "throughput_ratio_vs_deterministic": ratios,
    }


def check_report(report: dict) -> None:
    ratios = report["throughput_ratio_vs_deterministic"]
    assert ratios["notified-adaptive"] >= THROUGHPUT_GATE, (
        f"notified-adaptive throughput ratio {ratios['notified-adaptive']} "
        f"below the {THROUGHPUT_GATE}x gate"
    )
    arn_stats = report["policies"]["notified-adaptive"]["policy_stats"]
    assert arn_stats["escalations"] > 0, "no escalation ever happened"
    assert arn_stats["valiant_routed"] > 0, "no Valiant packet was routed"


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------

def bench_dragonfly_throughput_gate(benchmark):
    """Pinned-workload gate: digest identity + 1.2x throughput."""
    report = benchmark.pedantic(build_report, args=(2,), rounds=1, iterations=1)
    check_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per policy (>= 2: they are digest-compared)")
    parser.add_argument("--out", default="BENCH_dragonfly.json")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be >= 2")
    pin_to_one_cpu()

    report = build_report(args.repeats)
    check_report(report)
    report = write_report(args.out, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
