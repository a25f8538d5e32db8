"""CLI: ``python -m repro.parallel`` — run, verify, inspect sweeps.

Subcommands
-----------
``run``
    Fan a policy x seed sweep (replay digests or fault scenarios) out to
    N workers, against the content-addressed result cache.
``verify``
    Parallel-equivalence smoke: run the same small sweep serially and
    with N workers (both uncached) and fail unless every cell's result —
    including the replay event/metric digests — is bit-identical.
    Exit 0 iff equivalent; used directly as a CI step.
``status``
    Print the last sweep's manifest from the cache directory: counts,
    wall-clock, throughput, and the failure ledger.
``cache``
    ``inspect`` lists validated entries; ``purge`` removes everything.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from repro.parallel.cache import ResultCache
from repro.parallel.orchestrator import SweepConfig, run_sweep
from repro.parallel.tasks import canonical_json, expand_grid

DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")
_DEFAULT_CACHE = ".repro_cache"


def _cache_dir(args) -> str:
    return args.cache_dir or os.environ.get("REPRO_CACHE_DIR", _DEFAULT_CACHE)


def _parse_seeds(text: str) -> list[int]:
    """``"8"`` -> seeds 0..7; ``"0,3,5"`` -> exactly those."""
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return list(range(int(text)))


def _grid_spec(args) -> dict:
    """The flags as a job spec: the same grid ``POST /jobs`` expands."""
    return {
        "kind": args.kind,
        "policies": args.policies,
        "seeds": _parse_seeds(args.seeds),
        "mesh_side": args.mesh_side,
        "repetitions": args.repetitions,
        "ack_loss": args.ack_loss,
    }


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


def _sweep_config(args, cache_dir: Optional[str]) -> SweepConfig:
    return SweepConfig(
        workers=args.workers,
        timeout_s=args.timeout,
        max_retries=args.retries,
        cache_dir=cache_dir,
        profile=getattr(args, "profile", False),
        trace=getattr(args, "trace", False),
        resume=getattr(args, "resume", False),
    )


def _cmd_run(args) -> int:
    cache_dir = None if args.no_cache else _cache_dir(args)
    tasks = expand_grid(_grid_spec(args))
    report = run_sweep(
        tasks,
        _sweep_config(args, cache_dir),
        progress=None if args.json else _progress_printer,
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


def _cmd_verify(args) -> int:
    tasks = expand_grid(_grid_spec(args))
    parallel_config = _sweep_config(args, None)
    serial = run_sweep(tasks, dataclasses.replace(parallel_config, workers=1))
    parallel = run_sweep(tasks, parallel_config)
    if not serial.all_ok or not parallel.all_ok:
        print("FAIL: sweep cells failed", file=sys.stderr)
        for report in (serial, parallel):
            for outcome in report.failed:
                print(f"  {outcome.task.display()}: {outcome.error}", file=sys.stderr)
        return 1
    mismatches = []
    for task, left, right in zip(tasks, serial.results, parallel.results):
        if canonical_json(left) != canonical_json(right):
            mismatches.append(task.display())
    if mismatches:
        print(
            f"NON-DETERMINISTIC: {len(mismatches)} cell(s) differ between "
            f"serial and {args.workers}-worker execution:", file=sys.stderr,
        )
        for label in mismatches:
            print(f"  {label}", file=sys.stderr)
        return 1
    print(
        f"DETERMINISTIC: {len(tasks)} cells bit-identical between serial and "
        f"{args.workers}-worker execution "
        f"(serial {serial.wall_s:.2f}s, parallel {parallel.wall_s:.2f}s)"
    )
    return 0


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
        f"{manifest.get('resumed', 0)} resumed, "
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


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=["replay", "fault"], default="replay")
    parser.add_argument(
        "--policies", nargs="+", default=list(DEFAULT_POLICIES),
        help="routing policies to sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds", default="4",
        help="seed count (N -> 0..N-1) or explicit comma list (default: 4)",
    )
    parser.add_argument("--mesh-side", type=int, default=4)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--ack-loss", type=float, default=0.1,
                        help="fault sweeps: ACK loss probability")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-task wall-clock budget, seconds")
    parser.add_argument("--retries", type=int, default=3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel",
        description="Deterministic parallel sweeps with a content-addressed "
        "result cache (docs/parallel.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a policy x seed sweep")
    _add_sweep_arguments(run_parser)
    run_parser.add_argument("--cache-dir", default=None,
                            help=f"result cache (default: {_DEFAULT_CACHE})")
    run_parser.add_argument("--no-cache", action="store_true")
    run_parser.add_argument("--profile", action="store_true",
                            help="cProfile each executed cell into the cache dir")
    run_parser.add_argument("--trace", action="store_true",
                            help="repro.obs-trace each executed cell into the "
                            "cache dir (<key>.trace.jsonl)")
    run_parser.add_argument("--resume", action="store_true",
                            help="crash-safe cells: write periodic checkpoints "
                            "to the cache dir and resume any left by an "
                            "interrupted sweep (docs/checkpoint.md)")
    run_parser.add_argument("--json", action="store_true")

    verify_parser = sub.add_parser(
        "verify", help="serial vs parallel bit-equivalence smoke (CI gate)"
    )
    _add_sweep_arguments(verify_parser)

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
    "verify": _cmd_verify,
    "status": _cmd_status,
    "cache": _cmd_cache,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
