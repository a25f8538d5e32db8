"""Process-pool sweep orchestrator with supervision and result caching.

Fans independent :class:`~repro.parallel.tasks.SimTask` cells out to a
``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`.
Because every task kind is hermetic (own Simulator, own seeded
RandomStreams — see :mod:`repro.parallel.worker`), a parallel sweep's
per-cell results are bit-identical to the serial ones; scheduling order
across workers cannot leak into any cell.

Supervision (vocabulary follows :mod:`repro.faults`): per-task timeout,
bounded retry with capped exponential backoff, crash isolation (a worker
dying with ``os._exit`` / a signal breaks the pool; the pool is rebuilt
and unfinished cells are requeued), and a structured *failure ledger*
recording every failure event — transient or final — with its reason.

Wall-clock readings in this module are confined to the supervision layer
(timeouts, backoff, throughput reporting); they never feed a simulation,
which is why this module is on the wall-clock allowlist of
``tests/test_determinism_sources.py``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.parallel.cache import ResultCache
from repro.parallel.tasks import SimTask, code_version, task_key
from repro.parallel.worker import execute_task, pool_worker

__all__ = [
    "FailureRecord",
    "SweepConfig",
    "SweepExecutor",
    "SweepReport",
    "TaskOutcome",
    "default_executor",
    "run_sweep",
]

ProgressHook = Callable[[dict], None]

#: a pooled cell's first retry waits this long; the wait doubles per
#: attempt, capped at BACKOFF_CAP_S.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


@dataclass(frozen=True)
class SweepConfig:
    """Everything that governs one sweep's execution (not its results)."""

    #: worker processes; <= 1 executes inline (no pool, no crash isolation).
    workers: int = 1
    #: per-task wall-clock budget; None disables.  Needs ``workers >= 2``:
    #: an inline cell cannot be stopped, so :func:`run_sweep` refuses it.
    timeout_s: Optional[float] = None
    #: retry budget per cell *beyond* the first attempt.
    max_retries: int = 3
    #: cache directory; None disables caching entirely.
    cache_dir: Optional[str] = None
    #: cProfile each executed cell into the cache directory.
    profile: bool = False
    #: repro.obs-trace each executed cell into the cache directory
    #: (``<key>.trace.jsonl`` next to the entry); needs ``cache_dir``.
    trace: bool = False
    #: pin the code-version token (None = content hash of the package).
    code_version: Optional[str] = None

    def resolved_version(self) -> str:
        return self.code_version if self.code_version is not None else code_version()


@dataclass(frozen=True)
class FailureRecord:
    """One failure event (a cell may produce several before succeeding)."""

    key: str
    kind: str
    label: str
    attempt: int
    reason: str  # "error" | "worker-crash" | "timeout"
    error: str
    final: bool

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "label": self.label,
            "attempt": self.attempt,
            "reason": self.reason,
            "error": self.error,
            "final": self.final,
        }


@dataclass
class TaskOutcome:
    """Terminal state of one unique cell."""

    task: SimTask
    key: str
    status: str  # "ok" | "cached" | "failed"
    attempts: int
    result: Optional[dict]
    error: Optional[str] = None
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "task": self.task.to_dict(),
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "wall_s": self.wall_s,
        }


@dataclass
class SweepReport:
    """Everything a sweep produced, in submission order."""

    outcomes: list[TaskOutcome]
    #: input-task index -> outcome index (duplicate specs share a cell).
    index_of: list[int]
    failures: list[FailureRecord]
    wall_s: float
    executed: int
    cache_hits: int
    workers: int
    code_version: str

    @property
    def results(self) -> list[Optional[dict]]:
        """Per input task (submission order); None for failed cells."""
        return [self.outcomes[i].result for i in self.index_of]

    @property
    def all_ok(self) -> bool:
        return all(o.status != "failed" for o in self.outcomes)

    @property
    def failed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def to_dict(self) -> dict:
        return {
            "outcomes": [o.to_dict() for o in self.outcomes],
            "index_of": list(self.index_of),
            "failures": [f.to_dict() for f in self.failures],
            "wall_s": self.wall_s,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "workers": self.workers,
            "code_version": self.code_version,
            "all_ok": self.all_ok,
        }


@dataclass
class _Cell:
    """Book-keeping for one unique task while the sweep runs."""

    task: SimTask
    key: str
    attempts: int = 0
    not_before: float = 0.0
    started: float = 0.0


def _emit(progress: Optional[ProgressHook], payload: dict) -> None:
    if progress is not None:
        progress(payload)


def _backoff(attempt: int) -> float:
    return min(BACKOFF_BASE_S * (2 ** max(attempt - 1, 0)), BACKOFF_CAP_S)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: terminate workers, drop queued work."""
    processes = list(getattr(pool, "_processes", {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_sweep(
    tasks: Sequence[SimTask],
    config: Optional[SweepConfig] = None,
    progress: Optional[ProgressHook] = None,
    metrics_hook: Optional[Callable[[dict], None]] = None,
    metrics_cadence_s: Optional[float] = None,
) -> SweepReport:
    """Execute ``tasks``, deduplicated by cache key, with supervision.

    Returns a :class:`SweepReport`; never raises for task failures — they
    land in ``report.failures`` / ``report.failed`` so one poisoned cell
    cannot take down the rest of the sweep.

    ``metrics_hook`` receives live per-cell telemetry: each cadence
    snapshot a cell's :class:`~repro.obs.metrics.MetricsRegistry` takes
    is wrapped as ``{"key", "label", "snapshot"}`` and handed to the hook
    as it happens (``repro.serve`` streams these over SSE).  Hooks are
    callables and cannot cross the pickle boundary, so only the inline
    backend (``workers <= 1``) publishes them; pooled sweeps stream
    progress events only.  Attaching a hook never changes cell results —
    the registry rides a simulator deadline.  An inline sweep
    cannot stop a running cell, so it raises ``ValueError`` on a timeout.
    """
    config = config or SweepConfig()
    if config.timeout_s is not None and config.workers <= 1:
        raise ValueError(f"timeout_s={config.timeout_s} needs workers >= 2: an inline "
                         f"sweep (workers={config.workers}) cannot stop a running cell")
    version = config.resolved_version()
    cache = ResultCache(config.cache_dir) if config.cache_dir else None

    # Deduplicate by content-addressed key, preserving first appearance.
    cells: list[_Cell] = []
    index_of: list[int] = []
    by_key: dict[str, int] = {}
    for task in tasks:
        key = task_key(task, version)
        if key not in by_key:
            by_key[key] = len(cells)
            cells.append(_Cell(task=task, key=key))
        index_of.append(by_key[key])

    outcomes: dict[str, TaskOutcome] = {}
    failures: list[FailureRecord] = []
    start = time.monotonic()

    # Cache pass: anything already computed under this code version is
    # answered without running a single simulation.
    pending: list[_Cell] = []
    for cell in cells:
        cached = cache.get(cell.key) if cache is not None else None
        if cached is not None:
            outcomes[cell.key] = TaskOutcome(
                task=cell.task, key=cell.key, status="cached",
                attempts=0, result=cached,
            )
            _emit(progress, {
                "event": "cached", "key": cell.key, "label": cell.task.display(),
                "completed": len(outcomes), "total": len(cells),
            })
        else:
            pending.append(cell)

    def profile_path(cell: _Cell) -> Optional[str]:
        if not config.profile or cache is None:
            return None
        path = cache.profile_path_for(cell.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return str(path)

    def trace_path(cell: _Cell) -> Optional[str]:
        if not config.trace or cache is None:
            return None
        path = cache.trace_path_for(cell.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return str(path)

    def record_success(cell: _Cell, result: dict, wall_s: float) -> None:
        if cache is not None:
            cache.put(cell.key, cell.task, version, result)
        outcomes[cell.key] = TaskOutcome(
            task=cell.task, key=cell.key, status="ok",
            attempts=cell.attempts, result=result, wall_s=wall_s,
        )
        elapsed = time.monotonic() - start
        _emit(progress, {
            "event": "done", "key": cell.key, "label": cell.task.display(),
            "completed": len(outcomes), "total": len(cells),
            "wall_s": wall_s, "elapsed_s": elapsed,
            "rate": len(outcomes) / elapsed if elapsed > 0 else 0.0,
        })

    def record_failure(cell: _Cell, reason: str, error: str) -> bool:
        """Ledger the failure; True when the cell may still retry."""
        retriable = cell.attempts <= config.max_retries
        failures.append(FailureRecord(
            key=cell.key, kind=cell.task.kind, label=cell.task.display(),
            attempt=cell.attempts, reason=reason, error=error,
            final=not retriable,
        ))
        if not retriable:
            outcomes[cell.key] = TaskOutcome(
                task=cell.task, key=cell.key, status="failed",
                attempts=cell.attempts, result=None, error=error,
            )
        _emit(progress, {
            "event": "retry" if retriable else "failed",
            "key": cell.key, "label": cell.task.display(), "reason": reason,
            "attempt": cell.attempts, "completed": len(outcomes),
            "total": len(cells),
        })
        return retriable

    if config.workers <= 1:
        _run_inline(
            pending, config, profile_path, trace_path,
            record_success, record_failure,
            metrics_hook=metrics_hook, metrics_cadence_s=metrics_cadence_s,
        )
    else:
        _run_pooled(
            pending, config, profile_path, trace_path,
            record_success, record_failure,
        )

    wall_s = time.monotonic() - start
    report = SweepReport(
        outcomes=[outcomes[cell.key] for cell in cells],
        index_of=index_of,
        failures=failures,
        wall_s=wall_s,
        executed=sum(1 for o in outcomes.values() if o.status == "ok"),
        cache_hits=sum(1 for o in outcomes.values() if o.status == "cached"),
        workers=config.workers,
        code_version=version,
    )
    if cache is not None:
        manifest = report.to_dict()
        manifest["cache_stats"] = cache.stats.to_dict()
        # Results live in the per-key entries; the manifest is the sweep's
        # status ledger, so keep it light.
        for outcome in manifest["outcomes"]:
            outcome.pop("result", None)
        cache.write_manifest(manifest)
    return report


def _run_inline(
    pending, config, profile_path, trace_path,
    record_success, record_failure,
    metrics_hook=None, metrics_cadence_s=None,
) -> None:
    """Serial backend: same semantics minus crash isolation (and no
    timeouts: :func:`run_sweep` refuses them here)."""

    def cell_hook(cell):
        if metrics_hook is None:
            return None
        key, label = cell.key, cell.task.display()

        def on_snapshot(snap: dict) -> None:
            metrics_hook({"key": key, "label": label, "snapshot": snap})

        return on_snapshot

    queue = list(pending)
    while queue:
        cell = queue.pop(0)
        cell.attempts += 1
        t0 = time.monotonic()
        try:
            result = execute_task(
                cell.task,
                profile_path=profile_path(cell),
                trace_path=trace_path(cell),
                metrics_hook=cell_hook(cell),
                metrics_cadence_s=metrics_cadence_s,
            )
        except Exception as exc:  # noqa: BLE001 - ledgered, not swallowed
            if record_failure(cell, "error", f"{type(exc).__name__}: {exc}"):
                queue.append(cell)
            continue
        wall = time.monotonic() - t0
        record_success(cell, result, wall)


def _run_pooled(
    pending, config, profile_path, trace_path,
    record_success, record_failure,
) -> None:
    """Process-pool backend with timeout / crash supervision."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=config.workers, mp_context=ctx)

    pool = new_pool()
    queue: list[_Cell] = list(pending)
    in_flight: dict[Future, _Cell] = {}
    try:
        while queue or in_flight:
            now = time.monotonic()
            # Submit every ready cell; the pool queues beyond #workers.
            still_waiting: list[_Cell] = []
            for cell in queue:
                if cell.not_before <= now:
                    cell.attempts += 1
                    cell.started = now
                    future = pool.submit(
                        pool_worker, cell.task.to_dict(),
                        profile_path(cell), trace_path(cell),
                    )
                    in_flight[future] = cell
                else:
                    still_waiting.append(cell)
            queue = still_waiting

            if not in_flight:
                # Only backed-off retries remain; sleep until the nearest.
                delay = max(min(c.not_before for c in queue) - now, 0.0)
                time.sleep(min(delay + 1e-3, 0.25))
                continue

            done, _ = wait(set(in_flight), timeout=0.05, return_when=FIRST_COMPLETED)

            broken = False
            for future in done:
                cell = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    if record_failure(cell, "worker-crash", "worker process died"):
                        cell.not_before = 0.0
                        queue.append(cell)
                except Exception as exc:  # noqa: BLE001 - ledgered
                    if record_failure(cell, "error", f"{type(exc).__name__}: {exc}"):
                        now = time.monotonic()
                        cell.not_before = now + _backoff(cell.attempts)
                        queue.append(cell)
                else:
                    wall = time.monotonic() - cell.started
                    record_success(cell, result, wall)

            # Per-task timeout: kill the pool (there is no per-future
            # cancel for a running worker) and requeue the survivors.
            timed_out: list[_Cell] = []
            if config.timeout_s is not None and in_flight and not broken:
                now = time.monotonic()
                timed_out = [
                    cell for cell in in_flight.values()
                    if now - cell.started > config.timeout_s
                ]
            if broken or timed_out:
                timed_out_ids = [id(cell) for cell in timed_out]
                survivors = [
                    cell for cell in in_flight.values()
                    if id(cell) not in timed_out_ids
                ]
                in_flight.clear()
                _kill_pool(pool)
                pool = new_pool()
                for cell in timed_out:
                    if record_failure(
                        cell, "timeout",
                        f"exceeded {config.timeout_s}s wall-clock budget",
                    ):
                        cell.not_before = 0.0
                        queue.append(cell)
                for cell in survivors:
                    # Collateral of the recycle (crash or timeout kill):
                    # their attempt is charged (we cannot prove innocence
                    # after a crash), but they requeue immediately.
                    if record_failure(cell, "worker-crash", "pool recycled mid-task"):
                        cell.not_before = 0.0
                        queue.append(cell)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# Executor facade (what experiments/faults integrate against)
# ----------------------------------------------------------------------
@dataclass
class SweepExecutor:
    """A reusable sweep runner bound to one :class:`SweepConfig`."""

    config: SweepConfig = field(default_factory=SweepConfig)
    progress: Optional[ProgressHook] = None

    def run(self, tasks: Sequence[SimTask]) -> SweepReport:
        return run_sweep(tasks, self.config, progress=self.progress)

    def run_strict(self, tasks: Sequence[SimTask]) -> list[dict]:
        """Results in task order; raises if any cell finally failed."""
        report = self.run(tasks)
        if not report.all_ok:
            summary = "; ".join(
                f"{o.task.display()}: {o.error}" for o in report.failed[:5]
            )
            raise RuntimeError(
                f"{len(report.failed)} sweep cell(s) failed after retries: {summary}"
            )
        return [r for r in report.results if r is not None]


def default_executor() -> Optional[SweepExecutor]:
    """Executor configured from the environment, or None (serial).

    ``REPRO_PARALLEL_WORKERS`` (int >= 2) turns on process-pool execution
    for every integrated surface (experiment scenarios, fault campaigns,
    benchmarks); ``REPRO_CACHE_DIR`` adds the on-disk result cache.  The
    worker count is clamped to ``os.cpu_count()``: oversubscribing a small
    box only adds scheduler churn to CPU-bound simulation cells.  A value
    that is not an integer raises ``ValueError`` naming the variable.
    """
    raw = os.environ.get("REPRO_PARALLEL_WORKERS", "0")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_PARALLEL_WORKERS must be an integer, got {raw!r}"
        ) from None
    if workers < 2:
        return None
    cpu_count = os.cpu_count()
    if cpu_count is not None and workers > cpu_count:
        workers = max(2, cpu_count)
    return SweepExecutor(
        config=SweepConfig(
            workers=workers, cache_dir=os.environ.get("REPRO_CACHE_DIR")
        )
    )
