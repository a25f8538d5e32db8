"""CLI: ``python -m repro.parallel`` — run and inspect sweeps.

Subcommands
-----------
``run``
    Fan a policy x seed sweep (replay digests or fault scenarios) out to
    N workers, against the content-addressed result cache.
``status``
    Print the last sweep's manifest from the cache directory: counts,
    wall-clock, throughput, and the failure ledger.
``cache``
    ``inspect`` lists validated entries; ``purge`` removes everything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.parallel.cache import ResultCache
from repro.parallel.orchestrator import SweepConfig, run_sweep
from repro.parallel.tasks import SimTask, expand_grid

DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")
_DEFAULT_CACHE = ".repro_cache"


def _cache_dir(args) -> str:
    return args.cache_dir or os.environ.get("REPRO_CACHE_DIR", _DEFAULT_CACHE)


def _parse_seeds(text: str) -> int | list[int]:
    """``"8"`` -> a seed count (seeds 0..7); ``"0,3,5"`` -> exactly those."""
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return int(text)


#: job-spec field -> the flag that sets it, to name the flag in errors.
_FLAGS = {
    "policies": "--policies",
    "seeds": "--seeds",
    "mesh_side": "--mesh-side",
    "repetitions": "--repetitions",
    "ack_loss": "--ack-loss",
}


def _grid_tasks(parser: argparse.ArgumentParser, args) -> list[SimTask]:
    """The flags as a job spec, expanded as ``POST /jobs`` expands it.

    A value no sweep could run is a usage error naming its flag (exit 2).
    """
    if args.workers < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    if args.timeout is not None and not args.timeout > 0:
        parser.error(f"argument --timeout: must be > 0 seconds, got {args.timeout}")
    if args.timeout is not None and args.workers < 2:
        parser.error("argument --timeout: needs --workers >= 2 (an inline sweep cannot "
                     f"stop a running cell), got --workers {args.workers}")
    if args.retries < 0:
        parser.error(f"argument --retries: must be >= 0, got {args.retries}")
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError:
        parser.error(
            f"argument --seeds: expected a count or a comma list of integers, "
            f"got {args.seeds!r}"
        )
    try:
        spec = {
            "kind": args.kind,
            "policies": args.policies,
            "seeds": seeds,
            "mesh_side": args.mesh_side,
            "repetitions": args.repetitions,
        }
        if args.ack_loss is not None:
            spec["ack_loss"] = args.ack_loss
        return expand_grid(spec)
    except ValueError as exc:
        message = str(exc).removeprefix("params: ")
        # the field a message names first is the refused one; an unknown
        # field's message goes on to list the fields the grid takes
        named = sorted((message.index(f"'{name}'"), flag) for name, flag in _FLAGS.items()
                       if f"'{name}'" in message)
        parser.error(f"argument {named[0][1]}: {message}" if named else message)


def _progress_printer(event: dict) -> None:
    kind = event["event"]
    label = event.get("label", "")
    done = event.get("completed", 0)
    total = event.get("total", 0)
    if kind in ("done", "cached"):
        rate = event.get("rate")
        rate_text = f" {rate:.2f} task/s" if rate else ""
        print(f"[{done}/{total}] {kind:6s} {label}{rate_text}", file=sys.stderr)
    else:
        print(
            f"[{done}/{total}] {kind:6s} {label} "
            f"(attempt {event.get('attempt')}, {event.get('reason')})",
            file=sys.stderr,
        )


def _cmd_run(args) -> int:
    config = SweepConfig(
        workers=args.workers,
        timeout_s=args.timeout,
        max_retries=args.retries,
        cache_dir=None if args.no_cache else _cache_dir(args),
        profile=args.profile,
        trace=args.trace,
    )
    report = run_sweep(
        args.tasks, config, progress=None if args.json else _progress_printer,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for outcome, result in zip(report.outcomes, report.results):
            if outcome.status == "failed":
                print(f"{outcome.task.display():32s} FAILED: {outcome.error}")
            elif args.kind == "replay":
                print(
                    f"{outcome.task.display():32s} {outcome.status:6s} "
                    f"events={result['events'][:16]}… "
                    f"metrics={result['metrics'][:16]}…"
                )
            else:
                ratio = result.get("report", {}).get("delivered_ratio", 0.0)
                print(
                    f"{outcome.task.display():32s} {outcome.status:6s} "
                    f"delivered_ratio={ratio:.3f}"
                )
        rate = len(report.outcomes) / report.wall_s if report.wall_s > 0 else 0.0
        print(
            f"{len(report.outcomes)} cells in {report.wall_s:.2f}s "
            f"({rate:.2f} cells/s): {report.executed} executed, "
            f"{report.cache_hits} from cache, {len(report.failed)} failed; "
            f"workers={report.workers} code_version={report.code_version}"
        )
    return 0 if report.all_ok else 1


def _cmd_status(args) -> int:
    cache = ResultCache(_cache_dir(args))
    manifest = cache.read_manifest()
    if manifest is None:
        print(f"no sweep manifest under {cache.root}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(
        f"last sweep: {len(manifest.get('outcomes', []))} cells, "
        f"{manifest.get('executed', 0)} executed, "
        f"{manifest.get('cache_hits', 0)} cached, "
        f"{manifest.get('wall_s', 0.0):.2f}s wall, "
        f"workers={manifest.get('workers')}, "
        f"code_version={manifest.get('code_version')}"
    )
    failures = manifest.get("failures", [])
    if failures:
        print(f"failure ledger ({len(failures)} events):")
        for failure in failures:
            final = "FINAL" if failure.get("final") else "retried"
            print(
                f"  {failure.get('label'):32s} attempt {failure.get('attempt')} "
                f"{failure.get('reason')}: {failure.get('error')} [{final}]"
            )
    else:
        print("failure ledger: empty")
    return 0


def _cmd_cache(args) -> int:
    cache = ResultCache(_cache_dir(args))
    if args.cache_command == "purge":
        removed = cache.purge()
        print(f"purged {removed} entries from {cache.root}")
        return 0
    entries = list(cache.entries())
    if args.json:
        print(json.dumps([e.to_dict() for e in entries], indent=2, sort_keys=True))
        return 0
    for entry in entries:
        label = entry.label or entry.kind
        print(
            f"{entry.key[:16]}… {label:32s} code={entry.code_version} "
            f"{entry.size_bytes}B"
        )
    print(f"{len(entries)} entries under {cache.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel",
        description="Deterministic parallel sweeps with a content-addressed "
        "result cache (docs/parallel.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a policy x seed sweep")
    run_parser.add_argument("--kind", choices=["replay", "fault"], default="replay")
    run_parser.add_argument(
        "--policies", nargs="+", default=list(DEFAULT_POLICIES),
        help="routing policies to sweep (default: %(default)s)",
    )
    run_parser.add_argument(
        "--seeds", default="4",
        help="seed count (N -> 0..N-1) or explicit comma list (default: 4)",
    )
    run_parser.add_argument("--mesh-side", type=int, default=4)
    run_parser.add_argument("--repetitions", type=int, default=3)
    run_parser.add_argument("--ack-loss", type=float, default=None,
                            help="fault sweeps only: ACK loss probability (default: 0.1)")
    run_parser.add_argument("--workers", type=int, default=2)
    run_parser.add_argument("--timeout", type=float, default=None,
                            help="per-task wall-clock budget, seconds")
    run_parser.add_argument("--retries", type=int, default=3)
    run_parser.add_argument("--cache-dir", default=None,
                            help=f"result cache (default: {_DEFAULT_CACHE})")
    run_parser.add_argument("--no-cache", action="store_true")
    run_parser.add_argument("--profile", action="store_true",
                            help="cProfile each executed cell into the cache dir")
    run_parser.add_argument("--trace", action="store_true",
                            help="repro.obs-trace each executed cell into the "
                            "cache dir (<key>.trace.jsonl)")
    run_parser.add_argument("--json", action="store_true")

    status_parser = sub.add_parser("status", help="print the last sweep manifest")
    status_parser.add_argument("--cache-dir", default=None)
    status_parser.add_argument("--json", action="store_true")

    cache_parser = sub.add_parser("cache", help="inspect or purge the cache")
    cache_parser.add_argument("cache_command", choices=["inspect", "purge"])
    cache_parser.add_argument("--cache-dir", default=None)
    cache_parser.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "status": _cmd_status,
    "cache": _cmd_cache,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        args.tasks = _grid_tasks(parser, args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
