"""Command-line interface.

``python -m repro <command>``:

* ``simulate``    — run a synthetic workload on a chosen topology/policy;
* ``experiment``  — regenerate one of the paper's tables/figures;
* ``list``        — list available experiments, policies and patterns;
* ``analyze``     — Chapter-2 analyses of a saved (or synthesized) trace;
* ``replay``      — replay an application trace under one policy.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__


def _cmd_list(args) -> int:
    from repro.apps import APP_TRACES
    from repro.experiments.scenarios import ALL_SCENARIOS
    from repro.routing import policy_aliases
    from repro.traffic.patterns import PATTERNS

    print("experiments:")
    for name, fn in ALL_SCENARIOS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        print(f"  {name:24s} {doc}")
    print("\npolicies:")
    for name, aliases in sorted(policy_aliases().items()):
        also = f"(alias {', '.join(aliases)})" if aliases else ""
        print(f"  {name:24s} {also}".rstrip())
    print(f"\npatterns: {' '.join(sorted(PATTERNS))} uniform")
    print(f"app traces: {' '.join(sorted(APP_TRACES))}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.api import build_network, run_synthetic
    from repro.traffic.bursty import BurstSchedule

    try:
        net = build_network(
            topology=args.topology, policy=args.policy, notification=args.notification
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schedule = None
    if args.bursts:
        schedule = BurstSchedule(
            on_s=args.burst_on_us * 1e-6,
            off_s=args.burst_off_us * 1e-6,
            repetitions=args.bursts,
        )
    result = run_synthetic(
        net,
        pattern=args.pattern,
        rate_mbps=args.rate_mbps,
        duration_s=(schedule.end_time() if schedule else args.duration_us * 1e-6),
        schedule=schedule,
        seed=args.seed,
    )
    for key, value in result.summary().items():
        print(f"{key}: {value}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.config import FULL, QUICK
    from repro.experiments.scenarios import ALL_SCENARIOS

    fn = ALL_SCENARIOS.get(args.name)
    if fn is None:
        print(f"unknown experiment {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    result = fn(FULL if args.scale == "full" else QUICK)
    print(result.render())
    return 0 if result.passed else 1


def _cmd_analyze(args) -> int:
    from repro.apps import APP_TRACES
    from repro.apps.commmatrix import CommMatrixStats
    from repro.apps.phases import detect_phases
    from repro.mpi.trace import call_breakdown
    from repro.mpi.traceio import load_trace

    if args.trace in APP_TRACES:
        trace = APP_TRACES[args.trace](num_ranks=args.ranks)
    else:
        trace = load_trace(args.trace)
    print(f"trace: {trace.name} ({trace.num_ranks} ranks, {trace.total_events} events)")
    print("\nMPI call breakdown (Table 2.1 analysis):")
    for call, share in sorted(call_breakdown(trace).items(), key=lambda kv: -kv[1]):
        print(f"  {call:10s} {share * 100:6.2f}%")
    report = detect_phases(trace)
    print("\nphases (Table 2.2 analysis):")
    print(f"  total={report.total_phases} relevant={report.relevant_phases} "
          f"weight={report.total_weight}")
    stats = CommMatrixStats.from_trace(trace)
    print("\ncommunication topology (Fig 2.10-2.13 analysis):")
    print(f"  mean TDC={stats.mean_tdc:.2f} max TDC={stats.max_tdc} "
          f"diagonal band={stats.diagonal_band_fraction * 100:.1f}%")
    return 0


def _cmd_replay(args) -> int:
    from repro.apps import APP_TRACES
    from repro.experiments.runner import run_app_workload
    from repro.mpi.traceio import load_trace
    from repro.topology.fattree import KaryNTree

    if args.trace in APP_TRACES:
        factory = APP_TRACES[args.trace]
        kwargs = {"num_ranks": args.ranks}
    else:
        trace = load_trace(args.trace)
        factory = lambda **_: trace  # noqa: E731
        kwargs = {}
    runs = run_app_workload(
        lambda: KaryNTree(4, 3),
        [args.policy],
        factory,
        trace_kwargs=kwargs,
        notification=args.notification,
    )
    run = runs[args.policy]
    print(f"policy: {args.policy}")
    print(f"execution time: {run.execution_time_s * 1e3:.3f} ms")
    print(f"global average latency: {run.global_latency_s * 1e6:.2f} us")
    print(f"contention peak: {run.map_peak_s * 1e6:.2f} us")
    for key, value in run.policy_stats.items():
        print(f"{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PR-DRB reproduction: simulate, analyze, regenerate the paper",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments / policies / patterns")

    sim = sub.add_parser("simulate", help="run a synthetic workload")
    sim.add_argument("--topology", default="fattree:4,3", metavar="SPEC",
                     help="topology spec, e.g. mesh:8, fattree:4,3, "
                     "dragonfly:4,2,2 (default: %(default)s)")
    sim.add_argument("--policy", default="pr-drb")
    sim.add_argument("--pattern", default="perfect-shuffle")
    sim.add_argument("--rate-mbps", type=float, default=1000.0)
    sim.add_argument("--duration-us", type=float, default=1000.0)
    sim.add_argument("--bursts", type=int, default=0,
                     help="number of bursty repetitions (0 = continuous)")
    sim.add_argument("--burst-on-us", type=float, default=300.0)
    sim.add_argument("--burst-off-us", type=float, default=600.0)
    sim.add_argument("--notification", default="router",
                     choices=["destination", "router"])
    sim.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("name")
    exp.add_argument("--scale", choices=["quick", "full"], default="quick")

    ana = sub.add_parser("analyze", help="analyze a trace (file or app name)")
    ana.add_argument("trace")
    ana.add_argument("--ranks", type=int, default=64)

    rep = sub.add_parser("replay", help="replay a trace under one policy")
    rep.add_argument("trace")
    rep.add_argument("--policy", default="pr-drb")
    rep.add_argument("--ranks", type=int, default=64)
    rep.add_argument("--notification", default="router",
                     choices=["destination", "router"])
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "analyze": _cmd_analyze,
    "replay": _cmd_replay,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
