"""CLI: ``python -m repro.serve`` — run the service, or prove it harmless.

``python -m repro.serve --port 8321 --cache-dir .repro_cache``
    Serve until interrupted: job API + SSE telemetry + dashboard.

``python -m repro.serve --selftest``
    End-to-end smoke on an ephemeral port (exit 0 iff all hold):

    1. POST a pinned ``mesh:4`` two-cell replay grid; watch the SSE
       firehose (subscribed before the POST) and require progress
       events, per-cell metrics snapshots and a terminal ``done`` state
       for the job, and an opening ``state`` frame on its own stream.
    2. Re-POST the identical grid and require **zero** recomputed cells
       — every cell answers from the content-addressed result cache.
    3. Fetch the per-cell results and require the event/metric digests
       to be bit-identical to a direct in-process
       :func:`repro.analysis.replay.run_scenario` — serving is
       observer-only.
    4. Scrape ``GET /metrics`` and validate every line against the
       Prometheus text exposition grammar.
    5. Attach a deliberately tiny (maxsize=1), never-read bus
       subscription, run another job, and require that the job still
       completes while only the subscriber's drop counter grows — a
       slow consumer must never stall the simulation.

The selftest is the CI ``serve-smoke`` gate and doubles as living
documentation of the service contract (docs/serving.md).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
import urllib.request
from typing import Optional, Sequence

from repro.serve.http import make_server
from repro.serve.service import SimulationService

#: the pinned smoke grid: small, fast, and deterministic.
SMOKE_SPEC = {
    "kind": "replay",
    "policies": ["pr-drb", "deterministic"],
    "seeds": [0],
    "mesh_side": 4,
    "repetitions": 2,
}

_PROM_LINE = re.compile(
    r"^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
    r"([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]?(inf|nan)))$"
)


def _get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _post_json(base: str, path: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=body, headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _read_sse(base: str, path: str, max_s: float = 30.0, frames=None, opened=None,
              until=None) -> list[dict]:
    """Collect ``{"event", "payload"}`` frames until the server closes us
    or ``until(frame)`` holds; sets ``opened`` at the first frame."""
    frames = [] if frames is None else frames
    deadline = time.monotonic() + max_s  # repro: allow(no-wall-clock)
    with urllib.request.urlopen(base + path, timeout=max_s) as response:
        event_type, data = None, None
        for raw in response:
            if time.monotonic() > deadline:  # repro: allow(no-wall-clock)
                break
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue
            if line.startswith("event: "):
                event_type = line[len("event: "):]
            elif line.startswith("data: "):
                data = line[len("data: "):]
            elif line == "" and event_type is not None and data is not None:
                frames.append({"event": event_type, "payload": json.loads(data)})
                event_type, data = None, None
                if opened is not None:
                    opened.set()
                if until is not None and until(frames[-1]):
                    break
    return frames


def _is_terminal(frame: dict) -> bool:
    return frame["event"] == "job" and frame["payload"]["data"]["state"] in ("done", "failed")


def _wait_terminal(base: str, job_id: str, max_s: float = 30.0) -> dict:
    deadline = time.monotonic() + max_s  # repro: allow(no-wall-clock)
    while time.monotonic() < deadline:  # repro: allow(no-wall-clock)
        job = _get_json(base, f"/jobs/{job_id}")
        if job["state"] in ("done", "failed"):
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not reach a terminal state in {max_s}s")


def run_selftest(cache_dir: str, journal_path: str) -> int:
    from repro.analysis.replay import run_scenario

    service = SimulationService(cache_dir=cache_dir, journal_path=journal_path)
    server = make_server(service, host="127.0.0.1", port=0)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        status = "ok" if ok else "FAIL"
        print(f"[serve-smoke] {status:4s} {name}" + (f" — {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    try:
        health = _get_json(base, "/healthz")
        check("healthz", health.get("ok") is True)

        # 1. Submit the pinned grid and watch the SSE firehose live.  It is
        # subscribed (opening frame read) before the POST, because no
        # stream replays history.
        firehose: list[dict] = []
        opened = threading.Event()
        reader = threading.Thread(
            target=_read_sse, args=(base, "/events?idle=3"), daemon=True,
            kwargs={"frames": firehose, "opened": opened, "until": _is_terminal},
        )
        reader.start()
        opened.wait(10)
        submitted = _post_json(base, "/jobs", SMOKE_SPEC)
        job_id = submitted["job"]["id"]
        check("submit", submitted["created"] is True, job_id)
        reader.join(timeout=30)
        frames = [f for f in firehose[1:] if f["payload"].get("job") == job_id]
        kinds = [f["event"] for f in frames]
        opening = _read_sse(base, f"/jobs/{job_id}/events?idle=0.5")
        check("sse.state-frame", bool(opening) and opening[0]["event"] == "state")
        check("sse.progress", "progress" in kinds, f"{kinds.count('progress')} frames")
        check(
            "sse.cell-metrics", "cell.metrics" in kinds,
            f"{kinds.count('cell.metrics')} snapshots",
        )
        terminal = [f for f in frames if _is_terminal(f)]
        job = _wait_terminal(base, job_id)
        check("job.done", job["state"] == "done", job.get("error") or "")
        check(
            "sse.terminal", bool(terminal) or job["state"] == "done",
            "terminal job event observed" if terminal else "via poll",
        )
        check("job.executed", job["executed"] == 2, f"executed={job['executed']}")

        # 2. Identical re-POST: zero recomputation, all cells from cache.
        resubmitted = _post_json(base, "/jobs", SMOKE_SPEC)
        rejob = _wait_terminal(base, resubmitted["job"]["id"])
        check(
            "dedup.zero-recompute",
            rejob["state"] == "done" and rejob["executed"] == 0
            and rejob["cache_hits"] == 2,
            f"executed={rejob['executed']} cache_hits={rejob['cache_hits']}",
        )

        # 3. Serving is observer-only: digests match a direct serial run.
        results = _get_json(base, f"/jobs/{job_id}/results")
        by_label = {c["label"]: c["result"] for c in results["cells"]}
        digests_ok = True
        for policy in SMOKE_SPEC["policies"]:
            direct = run_scenario(
                seed=0, policy=policy,
                mesh_side=SMOKE_SPEC["mesh_side"],
                repetitions=SMOKE_SPEC["repetitions"],
            ).to_dict()
            served = by_label[f"replay:{policy}/seed0"]
            if (
                served["events"] != direct["events"]
                or served["metrics"] != direct["metrics"]
            ):
                digests_ok = False
        check("digests.bit-identical", digests_ok)

        # 4. Prometheus exposition grammar.
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
        bad = [
            line for line in text.splitlines()
            if line.strip() and not _PROM_LINE.match(line)
        ]
        check(
            "metrics.prometheus-syntax", not bad and "serve_jobs_submitted" in text,
            bad[0] if bad else f"{len(text.splitlines())} lines",
        )

        # 5. A stalled subscriber only drops; the simulation never waits.
        stalled = service.bus.subscribe(maxsize=1)
        slow_spec = dict(SMOKE_SPEC, seeds=[1])
        slow = _post_json(base, "/jobs", slow_spec)
        slow_job = _wait_terminal(base, slow["job"]["id"])
        check(
            "slow-subscriber.drops-only",
            slow_job["state"] == "done" and stalled.dropped > 0,
            f"dropped={stalled.dropped}",
        )
        service.bus.unsubscribe(stalled)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()

    if failures:
        print(f"[serve-smoke] FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("[serve-smoke] all checks passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Simulation-as-a-service: job API, SSE telemetry, "
        "dashboard (docs/serving.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--cache-dir", default=".repro_cache",
                        help="content-addressed result cache (dedup across jobs)")
    parser.add_argument("--journal", default=None,
                        help="job journal JSONL (default: <cache-dir>/jobs.jsonl)")
    parser.add_argument("--workers", type=int, default=1,
                        help="sweep workers per job; >1 loses per-cell "
                        "metrics snapshots (hooks cannot cross processes)")
    parser.add_argument("--cadence", type=float, default=1e-4,
                        help="sim-time seconds between per-cell metrics snapshots")
    parser.add_argument("--selftest", action="store_true",
                        help="run the end-to-end smoke on an ephemeral port")
    args = parser.parse_args(argv)

    if args.selftest:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
            return run_selftest(f"{tmp}/cache", f"{tmp}/jobs.jsonl")

    import os

    os.makedirs(args.cache_dir, exist_ok=True)
    journal = args.journal or os.path.join(args.cache_dir, "jobs.jsonl")
    try:
        service = SimulationService(
            cache_dir=args.cache_dir, journal_path=journal,
            workers=args.workers, cadence_s=args.cadence,
        )
    except ValueError as exc:  # a malformed journal line, named
        print(f"python -m repro.serve: {exc}", file=sys.stderr)
        return 2
    server = make_server(service, host=args.host, port=args.port)
    actual_port = server.server_address[1]
    print(
        f"repro.serve on http://{args.host}:{actual_port} "
        f"(cache={args.cache_dir}, journal={journal}, workers={args.workers})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
