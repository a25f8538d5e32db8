"""``python -m repro.obs`` — trace tooling.

Subcommands:

* ``summarize PATH`` — event counts, zone transitions, notification and
  prediction statistics (solution-DB hit rate), drop reasons, latency.
* ``export PATH --format perfetto|jsonl|prometheus --out OUT`` — convert
  a JSONL trace for ``ui.perfetto.dev``, re-emit canonical JSONL, or
  fold it into Prometheus text-format metrics.
* ``tail PATH [--name N] [--track T] [--follow]`` — live counterpart of
  ``summarize``: render records one per line as the file grows.
* ``diff A B`` — byte-level comparison of two traces modulo the header
  line; exit 1 on any difference.
* ``record --policy P --out PATH [--perfetto PATH]`` — run the pinned
  hot-spot workload (see :mod:`repro.perf`) with tracing on.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, TextIO

from repro.obs.export import (
    export_prometheus,
    registry_from_records,
    write_perfetto,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    JsonlSink,
    MemorySink,
    TraceRecord,
    Tracer,
    category,
    parse_trace_line,
    read_trace,
)


# ----------------------------------------------------------------------
# summarize
# ----------------------------------------------------------------------
def summarize(records: Sequence[TraceRecord], header: Optional[dict] = None) -> dict:
    """Aggregate a record stream into the summary dict the CLI prints."""
    by_name: dict[str, int] = {}
    by_category: dict[str, int] = {}
    zone_transitions: dict[str, int] = {}
    drops: dict[str, int] = {}
    latencies: list[float] = []
    for record in records:
        by_name[record.name] = by_name.get(record.name, 0) + 1
        cat = category(record.name)
        by_category[cat] = by_category.get(cat, 0) + 1
        args = record.args or {}
        if record.name == "zone.transition":
            edge = f"{args.get('from', '?')}->{args.get('to', '?')}"
            zone_transitions[edge] = zone_transitions.get(edge, 0) + 1
        elif record.name == "packet.drop":
            reason = args.get("reason", "?")
            drops[reason] = drops.get(reason, 0) + 1
        elif record.name == "packet.deliver":
            latency = args.get("latency_s")
            if latency is not None:
                latencies.append(latency)

    hits = by_name.get("prediction.hit", 0)
    misses = by_name.get("prediction.miss", 0)
    consulted = hits + misses
    summary: dict = {
        "label": (header or {}).get("label", ""),
        "records": len(records),
        "events_by_name": dict(sorted(by_name.items())),
        "events_by_category": dict(sorted(by_category.items())),
        "zone_transitions": dict(sorted(zone_transitions.items())),
        "notifications": {
            "sent": by_name.get("notify.send", 0),
            "received": by_name.get("notify.recv", 0),
        },
        "prediction": {
            "hits": hits,
            "misses": misses,
            "saves": by_name.get("prediction.save", 0),
            "invalidations": by_name.get("prediction.invalidate", 0),
            "hit_rate": hits / consulted if consulted else 0.0,
        },
        "drops_by_reason": dict(sorted(drops.items())),
    }
    if latencies:
        summary["delivery"] = {
            "packets": len(latencies),
            "mean_latency_s": sum(latencies) / len(latencies),
            "max_latency_s": max(latencies),
        }
    return summary


def _print_summary(summary: dict) -> None:
    print(f"label:   {summary['label'] or '(none)'}")
    print(f"records: {summary['records']}")
    print("events:")
    for name, count in summary["events_by_name"].items():
        print(f"  {name:<24} {count:>8}")
    if summary["zone_transitions"]:
        print("zone transitions:")
        for edge, count in summary["zone_transitions"].items():
            print(f"  {edge:<24} {count:>8}")
    notifications = summary["notifications"]
    print(
        f"notifications: {notifications['sent']} sent, "
        f"{notifications['received']} received"
    )
    prediction = summary["prediction"]
    print(
        f"solution DB: {prediction['hits']} hits, {prediction['misses']} "
        f"misses, {prediction['saves']} saves "
        f"(hit rate {prediction['hit_rate']:.1%})"
    )
    if summary["drops_by_reason"]:
        print("drops:")
        for reason, count in summary["drops_by_reason"].items():
            print(f"  {reason:<24} {count:>8}")
    if "delivery" in summary:
        delivery = summary["delivery"]
        print(
            f"delivered: {delivery['packets']} packets, mean latency "
            f"{delivery['mean_latency_s']:.3e}s, max "
            f"{delivery['max_latency_s']:.3e}s"
        )


# ----------------------------------------------------------------------
# tail
# ----------------------------------------------------------------------
def render_record(record: TraceRecord) -> str:
    """One human-readable line per record (the ``tail`` rendering)."""
    track = f"{record.track[0]}:{record.track[1]}" if len(record.track) > 1 else str(record.track)
    parts = [f"[{record.ts * 1e6:12.3f}us]", f"{record.name:<22}", f"{track:<18}"]
    if record.ph == "X":
        parts.append(f"dur={record.dur:.3e}s")
    if record.args:
        parts.append(" ".join(f"{k}={record.args[k]}" for k in sorted(record.args)))
    return " ".join(parts).rstrip()


def _record_matches(
    record: TraceRecord,
    names: Optional[Sequence[str]],
    tracks: Optional[Sequence[str]],
) -> bool:
    if names and record.name not in names:
        return False
    if tracks:
        kind = str(record.track[0])
        full = f"{record.track[0]}:{record.track[1]}" if len(record.track) > 1 else kind
        if kind not in tracks and full not in tracks:
            return False
    return True


def tail_trace(
    path,
    names: Optional[Sequence[str]] = None,
    tracks: Optional[Sequence[str]] = None,
    follow: bool = False,
    interval_s: float = 0.2,
    max_records: Optional[int] = None,
    idle_timeout_s: Optional[float] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Follow a (possibly still growing) JSONL trace; returns lines printed.

    The live counterpart of ``summarize``: each record renders as one
    line, filtered by event ``names`` and/or ``tracks`` (a track filter
    matches either the kind — ``router`` — or the full ``kind:ident``).
    Without ``follow`` the function returns at end-of-file; with it, the
    file is polled every ``interval_s`` until ``max_records`` have been
    printed or ``idle_timeout_s`` passes with no new complete line.
    This is tooling around a trace *file* — the wall-clock reads below
    pace the polling loop and never touch a simulation.
    """
    stream = out or sys.stdout
    printed = 0
    pending = ""
    number = 0
    with open(path, "r", encoding="utf-8") as fh:
        idle_since = time.monotonic()
        while True:
            chunk = fh.readline()
            if chunk:
                pending += chunk
                if not pending.endswith("\n"):
                    # A writer is mid-line; wait for the rest.
                    continue
                line, pending = pending.strip(), ""
                number += 1
                idle_since = time.monotonic()
                if not line:
                    continue
                record = parse_trace_line(line, f"{path}:{number}")
                if record is None:
                    continue
                if not _record_matches(record, names, tracks):
                    continue
                print(render_record(record), file=stream)
                printed += 1
                if max_records is not None and printed >= max_records:
                    return printed
                continue
            if not follow:
                return printed
            if idle_timeout_s is not None and time.monotonic() - idle_since > idle_timeout_s:
                return printed
            time.sleep(interval_s)


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def diff_traces(path_a, path_b) -> list[str]:
    """Differences between two JSONL traces, header line exempted.

    Returns human-readable difference descriptions (empty = identical).
    Compares the raw record lines byte-for-byte — the determinism
    contract is *byte* identity, not structural similarity.
    """

    def record_lines(path) -> list[str]:
        lines = []
        with open(path, "r", encoding="utf-8") as fh:
            for i, line in enumerate(fh):
                line = line.rstrip("\n")
                if not line:
                    continue
                if i == 0 and '"type":"header"' in line.replace(" ", ""):
                    continue
                lines.append(line)
        return lines

    a, b = record_lines(path_a), record_lines(path_b)
    problems: list[str] = []
    if len(a) != len(b):
        problems.append(f"record count differs: {len(a)} vs {len(b)}")
    for i, (line_a, line_b) in enumerate(zip(a, b)):
        if line_a != line_b:
            problems.append(f"first differing record at line {i + 2}:")
            problems.append(f"  a: {line_a}")
            problems.append(f"  b: {line_b}")
            break
    return problems


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------
def record_pinned(
    policy: str,
    out: Path,
    max_events: int = 200_000,
    perfetto: Optional[Path] = None,
    label: str = "",
) -> dict:
    """Trace the pinned hot-spot workload to ``out`` (JSONL).

    Returns the trace summary.  ``perfetto`` additionally writes the
    Chrome/Perfetto export of the same run.
    """
    from repro.perf import run_pinned_workload

    memory = MemorySink()
    tracer = Tracer(sinks=[JsonlSink(out, label=label), memory])
    metrics = MetricsRegistry()
    run_pinned_workload(policy, max_events, tracer=tracer, metrics=metrics)
    tracer.close()
    if perfetto is not None:
        write_perfetto(perfetto, memory.records, label=label)
    return summarize(memory.records)


def _trace_command(args) -> int:
    """Run a command that reads trace files: summarize, export, tail, diff."""
    if args.command == "summarize":
        header, records = read_trace(args.trace)
        summary = summarize(records, header)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            _print_summary(summary)
        return 0

    if args.command == "export":
        header, records = read_trace(args.trace)
        if args.format == "perfetto":
            write_perfetto(args.out, records, label=header.get("label", ""))
        elif args.format == "prometheus":
            text = export_prometheus(registry_from_records(records))
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sink = JsonlSink(args.out, label=header.get("label", ""))
            for record in records:
                sink.write(record)
            sink.close()
        print(f"wrote {args.out}")
        return 0

    if args.command == "tail":
        tail_trace(
            args.trace,
            names=args.names,
            tracks=args.tracks,
            follow=args.follow,
            interval_s=args.interval,
            max_records=args.max_records,
            idle_timeout_s=args.idle_timeout,
        )
        return 0

    problems = diff_traces(args.trace_a, args.trace_b)  # diff
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print("traces identical (header exempt)")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="trace summarize/export/tail/diff/record",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="aggregate a JSONL trace")
    p_sum.add_argument("trace", type=Path)
    p_sum.add_argument("--json", action="store_true", help="print JSON")

    p_exp = sub.add_parser("export", help="convert a JSONL trace")
    p_exp.add_argument("trace", type=Path)
    p_exp.add_argument(
        "--format", choices=("perfetto", "jsonl", "prometheus"), default="perfetto"
    )
    p_exp.add_argument("--out", type=Path, required=True)

    p_tail = sub.add_parser(
        "tail", help="render trace records live, one line each"
    )
    p_tail.add_argument("trace", type=Path)
    p_tail.add_argument(
        "--name", action="append", dest="names", default=None,
        help="only these event names (repeatable, e.g. --name packet.drop)",
    )
    p_tail.add_argument(
        "--track", action="append", dest="tracks", default=None,
        help="only these tracks: a kind ('router') or 'kind:ident' (repeatable)",
    )
    p_tail.add_argument(
        "--follow", "-f", action="store_true",
        help="keep polling as the file grows (tail -f semantics)",
    )
    p_tail.add_argument("--interval", type=float, default=0.2,
                        help="poll interval in seconds with --follow")
    p_tail.add_argument("--max-records", type=int, default=None,
                        help="stop after printing this many records")
    p_tail.add_argument("--idle-timeout", type=float, default=None,
                        help="with --follow: stop after this many idle seconds")

    p_diff = sub.add_parser("diff", help="compare two traces modulo header")
    p_diff.add_argument("trace_a", type=Path)
    p_diff.add_argument("trace_b", type=Path)

    p_rec = sub.add_parser("record", help="trace the pinned perf workload")
    p_rec.add_argument("--policy", default="pr-drb")
    p_rec.add_argument("--events", type=int, default=200_000)
    p_rec.add_argument("--out", type=Path, default=Path("trace.jsonl"))
    p_rec.add_argument("--perfetto", type=Path, default=None)
    p_rec.add_argument("--label", default="")

    args = parser.parse_args(argv)

    if args.command in ("summarize", "export", "tail", "diff"):
        try:
            return _trace_command(args)
        except (OSError, ValueError) as exc:
            # A missing file or malformed line: the message names it.
            print(f"python -m repro.obs {args.command}: {exc}", file=sys.stderr)
            return 2

    summary = record_pinned(  # record
        args.policy, args.out,
        max_events=args.events, perfetto=args.perfetto, label=args.label,
    )
    _print_summary(summary)
    print(f"wrote {args.out}")
    if args.perfetto:
        print(f"wrote {args.perfetto}")
    return 0
