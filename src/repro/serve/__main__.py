"""CLI: ``python -m repro.serve`` — run the service.

``python -m repro.serve --port 8321 --cache-dir .repro_cache``
    Serve until interrupted: job API + SSE telemetry + dashboard
    (docs/serving.md).  ``--port 0`` binds an ephemeral port; the bound
    address is printed to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.serve.http import make_server
from repro.serve.service import SimulationService


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
    args = parser.parse_args(argv)

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
