"""repro.serve — simulation-as-a-service with a live telemetry plane.

A stdlib-only HTTP service (``http.server.ThreadingHTTPServer``; no new
dependencies) that accepts :class:`~repro.parallel.tasks.SimTask` grids
as JSON jobs, executes them through the :mod:`repro.parallel` sweep
orchestrator against the content-addressed result cache, and streams
progress plus per-cell metrics snapshots to any number of subscribers
over Server-Sent Events.

Pieces
------
* :mod:`repro.serve.jobs` — declarative grid expansion, job records, and
  the crash-safe JSONL job journal;
* :mod:`repro.serve.service` — :class:`SimulationService`: the worker
  thread that drains the job queue through ``run_sweep`` and publishes
  telemetry into a :class:`~repro.obs.bus.MetricsBus`;
* :mod:`repro.serve.http` — the HTTP/SSE surface (``POST /jobs``,
  ``GET /jobs/<id>/events``, ``GET /events``, ``GET /metrics``,
  ``GET /`` dashboard);
* ``python -m repro.serve`` — CLI (``--port``, ``--cache-dir``,
  ``--journal``, ``--workers``, ``--cadence``).

House invariant (docs/serving.md): serving is *observer-only*.  A cell
executed with the telemetry plane attached produces bit-identical
event/metric digests to the same cell run bare, and a slow or
disconnected SSE subscriber only ever increments a drop counter — it
never stalls the simulation.  ``tests/test_serve_http.py`` holds the
service to both over real loopback HTTP.
"""

from repro.serve.jobs import Job, JobStore, expand_grid, grid_key
from repro.serve.service import SimulationService
from repro.serve.http import make_server

__all__ = [
    "Job",
    "JobStore",
    "SimulationService",
    "expand_grid",
    "grid_key",
    "make_server",
]
