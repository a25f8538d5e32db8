"""Digest gate and pinned workloads (``python -m repro.perf``).

The hot-path optimizations in :mod:`repro.sim.engine`,
:mod:`repro.network` and :mod:`repro.core` are only admissible if they
change *nothing* observable: the rule (docs/performance.md) is **no
optimization without a digest match**.  The gate enforces it: replay the
seeded :func:`repro.analysis.replay` scenario and the pinned application
cell (:func:`pinned_app_spec`) for every routing policy and compare the
event-trace and metrics digests against the committed ``baseline.json``.
Any drift is a hard failure (exit code 1): the "optimization" changed
simulation behavior and must be fixed or the baseline consciously
re-recorded with ``--update-baseline``.

The module also pins the workloads the benchmarks time
(:func:`pinned_hotspot_spec`, :func:`pinned_dragonfly_spec`).  It reads
no clock: ``benchmarks/bench_engine_throughput.py`` rates every policy
on the pinned hot-spot, host-normalised, against the committed
``BENCH_engine.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "DEFAULT_POLICIES",
    "BASELINE_PATH",
    "load_baseline",
    "check_digests",
    "pinned_app_spec",
    "pinned_dragonfly_spec",
    "pinned_hotspot_spec",
    "run_pinned_workload",
    "run_pinned_dragonfly_workload",
    "main",
]

#: Policies covered by the gate, in report order: every registered
#: policy, one name per factory (aliases are not separate policies).
DEFAULT_POLICIES = (
    "deterministic", "drb", "pr-drb", "fr-drb",
    "random", "cyclic", "adaptive", "adaptive-hop", "pr-fr-drb",
    "notified-adaptive", "ugal",
)

#: Committed baseline: the replay scenario, its per-policy digests and
#: the pinned application cell's.
BASELINE_PATH = Path(__file__).with_name("baseline.json")

#: baseline sections of per-policy digests: the replay scenario's and
#: :func:`pinned_app_spec`'s.
SECTIONS = ("digests", "app_digests")


def load_baseline(path: Optional[Path] = None) -> dict:
    """Load the committed (or an explicit) baseline JSON."""
    with open(path or BASELINE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Digest gate
# ----------------------------------------------------------------------
def check_digests(
    policies: Sequence[str], baseline: dict, section: str = "digests"
) -> dict[str, dict]:
    """Replay one section's scenario per policy; compare both digests.

    ``"digests"`` replays ``baseline["scenario"]``, ``"app_digests"``
    the :func:`pinned_app_spec` cell.  Returns ``{policy: {"ok": bool,
    "got": {...}, "expected": {...}}}``.  A policy missing from the
    baseline is reported with ``ok=False`` so a newly added policy forces
    a conscious baseline update.
    """
    from repro.analysis.replay import build, finish, replay_spec

    scenario = baseline["scenario"]
    results: dict[str, dict] = {}
    for policy in policies:
        if section == "digests":
            spec = replay_spec(policy, scenario["seed"], scenario["mesh_side"],
                               scenario["repetitions"])
        else:
            spec = pinned_app_spec(policy)
        built = build(spec, digest=True)
        built.sim.run(until=built.until)
        run = finish(built)
        got = {
            "events": run.events,
            "metrics": run.metrics,
            "events_executed": run.events_executed,
            "packets_delivered": run.packets_delivered,
        }
        expected = baseline.get(section, {}).get(policy)
        ok = expected is not None and all(
            got[k] == expected[k] for k in got
        )
        results[policy] = {"ok": ok, "got": got, "expected": expected}
    return results


# ----------------------------------------------------------------------
# Pinned hot-spot workloads (shared with scripts/profile_sim.py)
# ----------------------------------------------------------------------
def pinned_hotspot_spec(policy: str, seed: int = 0, repetitions: int = 50):
    """The pinned mesh:8 hot-spot scenario the throughput watch times.

    An 8x8 mesh with four colliding hot-spot flows under a repeated
    on/off burst schedule — the congested steady state whose profile
    drove the engine/network optimizations (docs/performance.md).  The
    parameters must not drift, or the rates in ``BENCH_engine.json``
    stop being comparable.  No drain: callers stop it with
    ``max_events``.
    """
    from repro.analysis.replay import ScenarioSpec

    return ScenarioSpec(
        policy=policy, seed=seed, topology="mesh:8",
        flows=((0, 37), (8, 45), (16, 53), (24, 61)),
        rate_bps=1.3e9, burst_on_s=3e-4, burst_off_s=3e-4, repetitions=repetitions,
        noise_rate_bps=0.0, idle_rate_bps=250e6, notification="destination", drain_s=None,
    )


def pinned_dragonfly_spec(policy: str, seed: int = 0, repetitions: int = 3):
    """The pinned dragonfly group-pair hot-spot.

    The adversarial permutation behind ``benchmarks/bench_dragonfly.py``
    and the CI dragonfly-smoke digest gate: every host of group 0 sends
    to its mirror in group 1 on ``dragonfly:4,2,2``, so all eight flows
    contend for the pair's single global link under router-based
    notification, plus uniform background noise.  The parameters are
    pinned — the smoke job compares same-seed event digests across runs,
    so any drift here is a determinism bug, not a tunable.
    """
    from repro.analysis.replay import ScenarioSpec

    return ScenarioSpec(
        policy=policy, seed=seed, topology="dragonfly:4,2,2",
        flows=tuple((h, h + 8) for h in range(8)),
        rate_bps=1.3e9, burst_on_s=3e-4, burst_off_s=1e-4, repetitions=repetitions,
        noise_rate_bps=30e6, idle_rate_bps=0.0, notification="router", drain_s=8e-4,
    )


def pinned_app_spec(policy: str, seed: int = 0):
    """The pinned application-trace cell of the digest gate.

    POP (16 ranks, 2 time steps) on ``fattree:4,2`` under router-based
    notification, replayed by :class:`repro.mpi.runtime.TraceRuntime`.
    Unlike the replay hot-spot it tells ``drb``, ``fr-drb`` and
    ``pr-drb`` apart: FR-DRB's watchdog fires on it.
    """
    from repro.analysis.replay import app_spec

    return app_spec("pop", policy, seed, "fattree:4,2", "router",
                    {"num_ranks": 16, "steps": 2})


def run_pinned_workload(
    policy: str, max_events: int, tracer=None, metrics=None,
    metrics_cadence_s: Optional[float] = None,
) -> int:
    """Run :func:`pinned_hotspot_spec` for ``max_events``; return events
    executed.  No event digest; the optional ``tracer``/``metrics``
    observe only."""
    from repro.analysis.replay import build

    scenario = build(
        pinned_hotspot_spec(policy),
        tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s,
    )
    scenario.sim.run(until=scenario.until, max_events=max_events)
    return scenario.sim.events_executed


def run_pinned_dragonfly_workload(
    policy: str, max_events: Optional[int] = None, seed: int = 0,
) -> dict:
    """Run :func:`pinned_dragonfly_spec` digested; return run counters."""
    from repro.analysis.replay import build

    scenario = build(pinned_dragonfly_spec(policy, seed), digest=True)
    scenario.sim.run(until=scenario.until, max_events=max_events)
    fabric = scenario.fabric
    return {
        "events_executed": scenario.sim.events_executed,
        "packets_injected": fabric.data_packets_injected,
        "packets_delivered": fabric.data_packets_delivered,
        "digest": scenario.trace.hexdigest(),
        "policy_stats": scenario.policy_obj.stats(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="digest gate: replay every policy against baseline.json",
    )
    parser.add_argument(
        "--policies",
        default=",".join(DEFAULT_POLICIES),
        help="comma-separated policy list (default: every registered policy)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline JSON (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the digest report to this path",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-record the digests into the baseline file "
        "(a conscious act: review the behavior change first)",
    )
    args = parser.parse_args(argv)

    # Exit 1 means digest drift: a bad input must not read as one.
    from repro.routing import check_policy_spec

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        parser.error(f"argument --policies: names no policy, got {args.policies!r}")
    for policy in policies:
        try:
            check_policy_spec(policy)
        except ValueError as exc:
            parser.error(f"argument --policies: {exc}")
    baseline = load_baseline(args.baseline)
    digest_ok = True
    digests: dict[str, dict] = {}
    for section in SECTIONS:
        results = check_digests(policies, baseline, section)
        digest_ok &= all(r["ok"] for r in results.values())
        digests[section] = {p: r["got"] for p, r in results.items()}
        prefix = "" if section == "digests" else "app:"
        for policy, result in results.items():
            print(f"[{'ok ' if result['ok'] else 'FAIL'}] {prefix}{policy}")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "digest_ok": digest_ok,
            **digests,
            "scenario": baseline["scenario"],
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"report: {args.out}")

    if args.update_baseline:
        target = args.baseline or BASELINE_PATH
        updated = {
            **{section: {**baseline.get(section, {}), **digests[section]}
               for section in SECTIONS},
            "scenario": baseline["scenario"],
        }
        target.write_text(
            json.dumps(updated, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"baseline updated: {target}")
        return 0

    if not digest_ok:
        print(
            "digest mismatch: simulation behavior drifted from the "
            "committed baseline (see docs/performance.md)",
            file=sys.stderr,
        )
        return 1
    return 0
