"""Worker-side task execution: deterministic, hermetic, picklable.

Every registered task kind builds a *fresh* simulation from its params —
its own :class:`~repro.sim.engine.Simulator`, its own
:class:`~repro.sim.rng.RandomStreams` from the task's seed — and returns
a JSON-serializable result dict.  Nothing in this module reads the wall
clock or ambient RNG (``tests/test_determinism_sources.py`` refuses
both): a task executed in a spawn-context worker process is
bit-identical to the same task executed inline in the parent.
``tests/test_parallel_orchestrator.py::TestPooledSweep::test_parallel_digests_bit_identical_to_serial``
and CI's perf-smoke ``benchmarks/bench_parallel_orchestrator.py`` step
(serial == pool == cache) hold that.

Task kinds
----------
``replay``
    One seeded small-mesh hot-spot run, built from its params by the
    scenario spine (:func:`repro.analysis.replay.scenario_spec`); result
    carries the event-trace and metrics SHA-256 digests.
``hotspot`` / ``pattern`` / ``app``
    One (policy, seed) cell of :func:`repro.experiments.runner.run_policies`:
    a hot-spot, a permutation or an application trace.  Its params are
    the spec's own fields, parsed by the same
    :func:`~repro.analysis.replay.scenario_spec`, and
    :func:`~repro.experiments.runner.run_cell` runs it; result is a
    lossless :meth:`~repro.experiments.runner.PolicyRun.to_dict`.
``fault``
    One policy's seeded fault scenario through the same spine; result
    is a :class:`repro.faults.campaign.FaultRunResult` dict.
``selftest``
    Orchestrator test double: succeeds, raises, crashes the worker
    process, or spins — used by the supervision tests and CI only.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Optional

from repro.parallel.tasks import SCENARIO_KINDS, SimTask, json_safe

__all__ = [
    "TASK_KINDS",
    "execute_task",
    "pool_worker",
]

# ----------------------------------------------------------------------
# Kind implementations
# ----------------------------------------------------------------------
def _run_spec(kind: str, params: dict, tracer=None, metrics=None,
              metrics_cadence_s=None) -> dict:
    from repro.analysis.replay import build, scenario_spec, task_result

    spec = scenario_spec(kind, params)
    if kind in ("hotspot", "pattern", "app"):  # a PolicyRun
        from repro.experiments.runner import run_cell

        return run_cell(spec, tracer, metrics, metrics_cadence_s).to_dict()
    scenario = build(spec, digest=True, tracer=tracer,
                     metrics=metrics, metrics_cadence_s=metrics_cadence_s)
    scenario.sim.run(until=scenario.until)
    return task_result(scenario)


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


TASK_KINDS: dict[str, Callable[..., dict]] = {
    **{kind: functools.partial(_run_spec, kind) for kind in SCENARIO_KINDS},
    "selftest": _run_selftest,
}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def execute_task(
    task: SimTask,
    profile_path: Optional[str] = None,
    trace_path: Optional[str] = None,
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
    registry rides a simulator deadline, so the cell's digests
    stay bit-identical with or without it.  Hooks are callables, so they
    only exist on the inline backend (the pool cannot pickle them)."""
    runner = TASK_KINDS.get(task.kind)
    if runner is None:
        raise ValueError(
            f"unknown task kind {task.kind!r}; registered: {sorted(TASK_KINDS)}"
        )
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
) -> dict:
    """Top-level (picklable) adapter used by the process pool."""
    return execute_task(
        SimTask.from_dict(task_dict),
        profile_path=profile_path,
        trace_path=trace_path,
    )
