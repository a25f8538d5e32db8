"""The service core: a job-queue worker thread publishing live telemetry.

:class:`SimulationService` owns four things:

* a :class:`~repro.serve.jobs.JobStore` (journaled job table),
* a :class:`~repro.obs.bus.MetricsBus` (fan-out to SSE subscribers),
* a :class:`~repro.obs.metrics.MetricsRegistry` of *service-level*
  metrics (jobs/cells counters, bus stats provider) — what
  ``GET /metrics`` renders through
  :func:`~repro.obs.export.export_prometheus`,
* one worker thread draining submitted jobs through
  :func:`~repro.parallel.orchestrator.run_sweep`.

Jobs execute on the inline sweep backend by default (``workers=1``):
that is the only backend that can carry the per-cell metrics hook (a
callable cannot cross the pickle boundary), and it is what makes the
telemetry plane complete — every cadence snapshot of every cell reaches
the bus.  A multi-worker service still streams progress events; it just
loses the per-cell snapshot series (documented in docs/serving.md).

Everything published is observation: the worker thread runs the same
``run_sweep`` a CLI user would, the bus never blocks it (bounded lossy
subscriber queues), and cell digests are bit-identical with or without
the service attached
(``tests/test_serve_http.py::TestEndToEnd::test_served_digests_match_direct_run``).
"""

from __future__ import annotations

import queue
import threading
from typing import Optional

from repro.obs.bus import MetricsBus
from repro.obs.metrics import MetricsRegistry
from repro.parallel.orchestrator import SweepConfig, run_sweep
from repro.parallel.tasks import code_version
from repro.serve.jobs import Job, JobStore, expand_grid, grid_key

__all__ = ["SimulationService"]

#: default sim-time cadence for per-cell metrics snapshots (seconds).
DEFAULT_CADENCE_S = 1e-4


class SimulationService:
    """Accept job specs, run them, and narrate everything onto the bus."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        journal_path=None,
        workers: int = 1,
        cadence_s: Optional[float] = DEFAULT_CADENCE_S,
        pinned_code_version: Optional[str] = None,
    ) -> None:
        self.bus = MetricsBus()
        self.store = JobStore(journal_path)
        self.cache_dir = cache_dir
        self.workers = max(1, int(workers))
        self.cadence_s = cadence_s
        self.code_version = (
            pinned_code_version if pinned_code_version is not None else code_version()
        )

        self.metrics = MetricsRegistry()
        self._jobs_submitted = self.metrics.counter("serve.jobs_submitted")
        self._jobs_deduped = self.metrics.counter("serve.jobs_deduped")
        self._jobs_completed = self.metrics.counter("serve.jobs_completed")
        self._jobs_failed = self.metrics.counter("serve.jobs_failed")
        self._cells_executed = self.metrics.counter("serve.cells_executed")
        self._cells_cached = self.metrics.counter("serve.cells_cached")
        self._snapshots_published = self.metrics.counter("serve.snapshots_published")
        self.metrics.provider("bus", self.bus.stats)
        self.metrics.gauge(
            "serve.jobs_queued",
            lambda: sum(1 for j in self.store.list() if j.state == "queued"),
        )

        self._queue: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._worker = threading.Thread(
            target=self._drain, name="repro-serve-worker", daemon=True
        )
        self._worker.start()
        # Jobs a previous process left queued (journal replay) re-enter
        # the queue in submission order.
        for job in self.store.pending():
            self._queue.put(job.id)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: dict) -> tuple[Job, bool]:
        """Expand, dedup, journal, and enqueue a job spec.

        Returns ``(job, created)``: ``created`` is False when an
        identical grid (same content-addressed cell set under the current
        code version) is already queued or running — the caller gets that
        job instead of a duplicate.  Completed jobs do *not* dedup at the
        job level: a re-POST makes a fresh job whose cells all answer
        from the result cache (zero recomputation), which is the
        freshness semantics a client polling for results expects.
        """
        tasks = expand_grid(spec)  # raises ValueError on malformed specs
        grid = grid_key(tasks, self.code_version)
        active = self.store.find_active(grid)
        if active is not None:
            self._jobs_deduped.inc()
            return active, False
        job = self.store.create(spec, grid, total=len(tasks))
        self._jobs_submitted.inc()
        self.bus.publish("job", {"state": job.state, "job": job.to_dict()}, job=job.id)
        self._queue.put(job.id)
        return job, True

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if job_id is None:
                return
            try:
                self._run_job(job_id)
            except Exception as exc:  # noqa: BLE001 - job poisoned, service lives
                self.store.update(
                    job_id, state="failed",
                    error=f"{type(exc).__name__}: {exc}",
                )
                self._jobs_failed.inc()
                job = self.store.get(job_id)
                self.bus.publish(
                    "job", {"state": "failed", "job": job.to_dict()}, job=job_id,
                )

    def _run_job(self, job_id: str) -> None:
        job = self.store.get(job_id)
        if job is None or job.state not in ("queued",):
            return
        tasks = expand_grid(job.spec)
        self.store.update(job_id, state="running")
        self.bus.publish(
            "job", {"state": "running", "job": self.store.get(job_id).to_dict()},
            job=job_id,
        )

        def on_progress(event: dict) -> None:
            if event.get("event") in ("done", "cached", "failed"):
                self.store.update(job_id, completed=event.get("completed", 0))
            self.bus.publish("progress", event, job=job_id)

        def on_metrics(payload: dict) -> None:
            self._snapshots_published.inc()
            self.bus.publish("cell.metrics", payload, job=job_id)

        report = run_sweep(
            tasks,
            SweepConfig(
                workers=self.workers,
                cache_dir=self.cache_dir,
                code_version=self.code_version,
            ),
            progress=on_progress,
            metrics_hook=on_metrics if self.workers <= 1 else None,
            metrics_cadence_s=self.cadence_s,
        )

        self._cells_executed.inc(report.executed)
        self._cells_cached.inc(report.cache_hits)
        cells = [
            {"key": o.key, "label": o.task.display(), "status": o.status}
            for o in report.outcomes
        ]
        state = "done" if report.all_ok else "failed"
        error = None
        if not report.all_ok:
            error = "; ".join(
                f"{o.task.display()}: {o.error}" for o in report.failed[:5]
            )
        self.store.update(
            job_id, state=state, completed=len(report.outcomes),
            executed=report.executed, cache_hits=report.cache_hits,
            failed_cells=len(report.failed), wall_s=report.wall_s,
            error=error, cells=cells,
        )
        if report.all_ok:
            self._jobs_completed.inc()
        else:
            self._jobs_failed.inc()
        self.bus.publish(
            "job", {"state": state, "job": self.store.get(job_id).to_dict()},
            job=job_id,
        )

    # ------------------------------------------------------------------
    # Results / introspection
    # ------------------------------------------------------------------
    def job_results(self, job_id: str) -> Optional[dict]:
        """Per-cell results for a terminal job, read from the cache.

        Returns ``{"cells": [{key, label, status, result}, ...]}`` or
        None for unknown/non-terminal jobs or cacheless services.
        """
        job = self.store.get(job_id)
        if job is None or job.state not in ("done", "failed"):
            return None
        if self.cache_dir is None:
            return {"cells": [dict(c, result=None) for c in job.cells]}
        from repro.parallel.cache import ResultCache

        cache = ResultCache(self.cache_dir)
        return {
            "cells": [dict(c, result=cache.get(c["key"])) for c in job.cells]
        }

    def prometheus(self) -> str:
        from repro.obs.export import export_prometheus

        return export_prometheus(self.metrics)

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker after the current job (idempotent)."""
        self._stop.set()
        self._queue.put(None)
        if self._worker.is_alive():
            self._worker.join(timeout=timeout)
        self.store.close()
