"""Worker-side task execution: deterministic, hermetic, picklable.

Every registered task kind builds a *fresh* simulation from its params —
its own :class:`~repro.sim.engine.Simulator`, its own
:class:`~repro.sim.rng.RandomStreams` from the task's seed — and returns
a JSON-serializable result dict.  Nothing in this module reads the wall
clock or ambient RNG: a task executed in a spawn-context worker process
is bit-identical to the same task executed inline in the parent (the
``repro.analysis`` lints and the parallel-equivalence CI smoke both
enforce this).

Task kinds
----------
``replay``
    One seeded small-mesh hot-spot run, built from its params by the
    scenario spine (:func:`repro.analysis.replay.scenario_spec`); result
    carries the event-trace and metrics SHA-256 digests.
``hotspot`` / ``pattern``
    One (policy, seed) cell of
    :func:`repro.experiments.runner.run_hotspot_workload` /
    :func:`~repro.experiments.runner.run_pattern_workload` on a
    declarative topology spec, its params parsed by
    :func:`repro.parallel.tasks.workload_kwargs`; result is a lossless
    :meth:`~repro.experiments.runner.PolicyRun.to_dict`.
``fault``
    One policy's seeded fault scenario through the same spine; result
    is a :class:`repro.faults.campaign.FaultRunResult` dict.
``selftest``
    Orchestrator test double: succeeds, raises, crashes the worker
    process, or spins — used by the supervision tests and CI only.

Crash-safe execution (docs/checkpoint.md)
-----------------------------------------
When the orchestrator hands a cell a ``checkpoint_path``, the ``replay``
and ``fault`` kinds run through :mod:`repro.checkpoint` instead of the
one-shot runners: a checkpoint is written every
``REPRO_CHECKPOINT_EVERY`` executed events (SIGKILL recovery), SIGTERM
triggers a final snapshot at the next event boundary followed by
``os._exit(CHECKPOINTED_EXIT)``, and a valid checkpoint already on disk
is resumed instead of starting over.  Determinism makes the spliced run
bit-identical to an uninterrupted one, so cached results never fork.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional

from repro.parallel.tasks import SCENARIO_KINDS, SimTask, json_safe, workload_kwargs

__all__ = [
    "CHECKPOINTED_EXIT",
    "RESUMABLE_KINDS",
    "TASK_KINDS",
    "execute_task",
    "pool_worker",
]

#: exit status of a worker that parked a final checkpoint on SIGTERM
#: (BSD ``EX_TEMPFAIL``: try again — here, resume from the checkpoint).
CHECKPOINTED_EXIT = 75

#: task kinds the checkpoint runner can build and resume.
RESUMABLE_KINDS = SCENARIO_KINDS

#: one snapshot of a sweep-sized cell costs ~25 ms against ~120k
#: simulated events/s, so a 200k cadence keeps the measured throughput
#: cost near 2% — under the 5% budget bench_checkpoint.py asserts.
_DEFAULT_CHECKPOINT_EVERY = 200_000


def _checkpoint_every() -> int:
    """Events between periodic checkpoints (``REPRO_CHECKPOINT_EVERY``).

    The default keeps the cadence overhead well under the 5 % budget
    asserted by ``benchmarks/bench_checkpoint.py``; tests and the CI
    kill-and-resume smoke shrink it to force mid-run snapshots.
    """
    raw = os.environ.get("REPRO_CHECKPOINT_EVERY", "")
    try:
        value = int(raw)
    except ValueError:
        return _DEFAULT_CHECKPOINT_EVERY
    return max(1, value) if value else _DEFAULT_CHECKPOINT_EVERY


# ----------------------------------------------------------------------
# Kind implementations
# ----------------------------------------------------------------------
def _run_spec(kind: str, params: dict, tracer, metrics, metrics_cadence_s) -> dict:
    from repro.analysis.replay import build, scenario_spec, task_result

    scenario = build(scenario_spec(kind, params), digest=True, tracer=tracer,
                     metrics=metrics, metrics_cadence_s=metrics_cadence_s)
    scenario.sim.run(until=scenario.until)
    return task_result(scenario)


def _run_replay(params: dict, tracer=None, metrics=None, metrics_cadence_s=None) -> dict:
    return _run_spec("replay", params, tracer, metrics, metrics_cadence_s)


def _run_fault(params: dict, tracer=None, metrics=None, metrics_cadence_s=None) -> dict:
    return _run_spec("fault", params, tracer, metrics, metrics_cadence_s)


def _run_hotspot(params: dict, tracer=None, metrics=None, metrics_cadence_s=None) -> dict:
    from repro.experiments.runner import run_hotspot_workload

    runs = run_hotspot_workload(
        **workload_kwargs("hotspot", params),
        tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s,
    )
    return runs[params["policy"]].to_dict()


def _run_pattern(params: dict, tracer=None, metrics=None, metrics_cadence_s=None) -> dict:
    from repro.experiments.runner import run_pattern_workload

    runs = run_pattern_workload(
        **workload_kwargs("pattern", params),
        tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s,
    )
    return runs[params["policy"]].to_dict()


def _run_selftest(params: dict, tracer=None, metrics=None, metrics_cadence_s=None) -> dict:
    """Supervision test double — never used by real sweeps."""
    mode = params.get("mode", "ok")
    if mode == "ok":
        return {"value": params.get("value", 0)}
    if mode == "fail":
        raise ValueError(params.get("message", "selftest failure"))
    if mode == "crash-once":
        # Crash the worker process hard on the first attempt; succeed on
        # the retry.  Cross-attempt state lives in a caller-named flag
        # file because the crashed process's memory is gone.
        flag = params["flag_path"]
        if not os.path.exists(flag):
            with open(flag, "w", encoding="utf-8") as handle:
                handle.write("crashed")
            os._exit(13)
        return {"value": "recovered"}
    if mode == "crash":
        os._exit(13)
    if mode == "spin":
        # Burn CPU without reading the wall clock; long enough that the
        # orchestrator's timeout fires first, bounded so a missed kill
        # cannot hang a test run forever.
        total = 0
        for i in range(int(params.get("iterations", 2 * 10**8))):
            total += i & 7
        return {"value": total}
    raise ValueError(f"unknown selftest mode {mode!r}")


TASK_KINDS: dict[str, Callable[[dict], dict]] = {
    "replay": _run_replay,
    "fault": _run_fault,
    "hotspot": _run_hotspot,
    "pattern": _run_pattern,
    "selftest": _run_selftest,
}


# ----------------------------------------------------------------------
# Crash-safe execution
# ----------------------------------------------------------------------
_HANDLER_UNSET = object()


def _run_resumable(task: SimTask, checkpoint_path: str) -> dict:
    """Run a resumable cell with periodic checkpoints and SIGTERM hand-off.

    The SIGTERM handler only sets a flag — a snapshot taken *inside* a
    signal handler could land mid-event and capture a torn state.  The
    engine's cadence hook (which always runs at an event boundary) writes
    the snapshot and, when the flag is up, exits with
    :data:`CHECKPOINTED_EXIT` so the orchestrator can ledger the cell as
    ``checkpointed`` rather than crashed.
    """
    import signal

    from repro.checkpoint import (
        build_context,
        finish_context,
        load_scenario_checkpoint,
        save_scenario_checkpoint,
    )

    path = Path(checkpoint_path)
    context = None
    if path.exists():
        try:
            _, context = load_scenario_checkpoint(path)
        except Exception:  # noqa: BLE001 - corrupt/stale/foreign checkpoint
            # Any unreadable checkpoint is discarded and the cell simply
            # recomputes from scratch — determinism makes that safe.
            context = None
            try:
                path.unlink()
            except OSError:
                pass
    if context is None:
        context = build_context(task.kind, task.params)

    interrupted = {"seen": False}

    def _on_sigterm(signum, frame):
        interrupted["seen"] = True

    meta = {"task": task.to_dict(), "label": task.display()}

    def _cadence_hook() -> None:
        save_scenario_checkpoint(context, path, meta=meta)
        if interrupted["seen"]:
            # The snapshot just written is the final word for this
            # process; exit hard so no further events run here.
            os._exit(CHECKPOINTED_EXIT)

    restore = _HANDLER_UNSET
    try:
        restore = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    context.sim.set_checkpoint_cadence(_checkpoint_every(), _cadence_hook)
    try:
        context.sim.run(until=context.until)
        result = json_safe(finish_context(context))
    finally:
        context.sim.set_checkpoint_cadence(None)
        if restore is not _HANDLER_UNSET and restore is not None:
            signal.signal(signal.SIGTERM, restore)
    try:
        path.unlink()  # cell completed: the checkpoint is now stale
    except OSError:
        pass
    return result


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def execute_task(
    task: SimTask,
    profile_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    metrics_hook: Optional[Callable[[dict], None]] = None,
    metrics_cadence_s: Optional[float] = None,
) -> dict:
    """Run one task; optionally cProfile it (``<key>.prof`` + a
    ``<key>.prof.txt`` rendering) and/or trace it through
    :mod:`repro.obs` (``<key>.trace.jsonl``), dumping both next to the
    cache entry.  Tracing never perturbs the result — the cell stays
    bit-identical to an untraced run.

    ``metrics_hook`` attaches a :class:`~repro.obs.metrics.MetricsRegistry`
    whose cadence snapshots are handed to the hook as they are taken —
    the live-telemetry egress ``repro.serve`` streams over SSE.  The
    registry rides the simulator observer list, so the cell's digests
    stay bit-identical with or without it.  Hooks are callables, so they
    only exist on the inline backend (the pool cannot pickle them).

    ``checkpoint_path`` opts a :data:`RESUMABLE_KINDS` cell into
    crash-safe execution (see the module docstring).  Profiling, tracing
    and metrics hooks take precedence when combined: their sinks hold
    live handles no snapshot could carry, so such cells run one-shot."""
    runner = TASK_KINDS.get(task.kind)
    if runner is None:
        raise ValueError(
            f"unknown task kind {task.kind!r}; registered: {sorted(TASK_KINDS)}"
        )
    if (
        checkpoint_path is not None
        and task.kind in RESUMABLE_KINDS
        and profile_path is None
        and trace_path is None
        and metrics_hook is None
    ):
        return _run_resumable(task, checkpoint_path)
    tracer = None
    if trace_path is not None:
        from repro.obs import JsonlSink, Tracer

        tracer = Tracer(sinks=[JsonlSink(trace_path, label=task.display())])
    metrics = None
    if metrics_hook is not None:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        metrics.on_snapshot = metrics_hook
    kwargs = {"tracer": tracer}
    if metrics is not None:
        kwargs["metrics"] = metrics
        kwargs["metrics_cadence_s"] = metrics_cadence_s
    try:
        if profile_path is None:
            return json_safe(runner(task.params, **kwargs))
        from repro.parallel.profiling import profile_call, write_profile

        result, profile = profile_call(runner, task.params, **kwargs)
        write_profile(profile, profile_path)
        return json_safe(result)
    finally:
        if tracer is not None:
            tracer.close()


def pool_worker(
    task_dict: dict,
    profile_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
) -> dict:
    """Top-level (picklable) adapter used by the process pool."""
    return execute_task(
        SimTask.from_dict(task_dict),
        profile_path=profile_path,
        trace_path=trace_path,
        checkpoint_path=checkpoint_path,
    )
