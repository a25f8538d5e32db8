"""The traced run's layer map: which ``repro`` entry point is which span.

:func:`install` wraps the public entry points of each layer (see
``README.md`` for the map from metric to layer to end-to-end metric);
:func:`layer_metrics` folds the profiler's totals into the per-layer
metric table that ``BENCHMARK.json`` lists under ``per_layer``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from spans import SpanProfiler, subclasses

_clock = time.perf_counter

#: event callbacks counted by name under ``sim.events.<callback>``; any
#: other callback is counted under ``sim.events.other``.
SIM_CALLBACKS = (
    "Fabric._arrive",
    "Fabric._deliver",
    "HotSpotWorkload._inject_flow",
    "HotSpotWorkload._inject_noise",
)

#: public Metapath methods (properties are left out: wrapping them would
#: need a property replacement, and they are memoized field reads).
_METAPATH_METHODS = (
    "evaluated", "latency_s", "expand", "shrink", "prune",
    "apply_solution", "record_ack", "path_for",
)
_ROUTE_METHODS = ("minimal_route", "alternative_paths", "valiant_route")
_TRAFFIC_METHODS = ("start", "_inject", "_inject_flow", "_inject_noise")
_RECORDER_METHODS = ("on_data_injected", "on_data_delivered", "on_data_dropped")

#: spans reported as ``<span>.calls`` / ``<span>.self_s``.
_CALL_SPANS = (
    "network.forward",
    "network.send",
    "routing.select_path",
    "routing.on_ack",
    "routing.on_predictive_ack",
    "core.metapath",
    "core.solutions",
    "topology.route",
    "traffic",
    "metrics.recorder",
    "analysis.digest",
    "parallel.execute_task",
    "parallel.cache.get",
    "parallel.cache.put",
    "serve.handler",
    "serve.journal",
)

#: (metric, unit) in report order; ``BENCHMARK.json``'s ``per_layer``
#: lists exactly these.
PER_LAYER = (
    [("sim.events", "count")]
    + [(f"sim.events.{cb}", "count") for cb in SIM_CALLBACKS]
    + [("sim.events.other", "count"), ("sim.self_s", "s")]
    + [
        metric
        for span in _CALL_SPANS
        for metric in ((f"{span}.calls", "count"), (f"{span}.self_s", "s"))
    ]
    + [
        ("network.acks", "count"),
        ("network.predictive_acks", "count"),
        ("core.solutions.hit_ratio", "ratio"),
        ("obs.tracer.records", "count"),
        ("obs.tracer.self_s", "s"),
        ("obs.tracer.bytes", "bytes"),
        ("obs.metrics.snapshots", "count"),
        ("obs.metrics.snapshot_s", "s"),
        ("obs.bus.published", "count"),
        ("obs.bus.dropped", "count"),
        ("obs.bus.publish_s", "s"),
        ("parallel.cache.manifest_s", "s"),
        ("parallel.cache.hit_ratio", "ratio"),
        ("parallel.sweep.self_s", "s"),
        ("serve.submit_s", "s"),
        ("serve.results_s", "s"),
        ("serve.transport_s", "s"),
        ("serve.queue_wait_s", "s"),
        ("serve.sse_lag_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead", "ratio"),
        ("unattributed_s", "s"),
    ]
)

#: metrics that are self time on some thread's timeline; with
#: ``unattributed_s`` they add up to ``trace.wall_s``.  Waits
#: (``serve.queue_wait_s``, ``serve.sse_lag_s``) overlap these and are
#: left out of the sum.
SELF_TIME = tuple(
    name for name, unit in PER_LAYER
    if unit == "s" and name not in (
        "trace.wall_s", "unattributed_s", "serve.queue_wait_s", "serve.sse_lag_s",
    )
)


@dataclass
class TraceState:
    """What the taps collect beside span totals."""

    fabrics: list = field(default_factory=list)
    trace_bytes: dict = field(default_factory=dict)
    publish_times: dict = field(default_factory=dict)
    submit_times: dict = field(default_factory=dict)
    queue_waits: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)


def install(profiler: SpanProfiler) -> TraceState:
    """Wrap every layer's entry points; call before building anything."""
    import repro.analysis.replay as replay
    import repro.parallel.orchestrator as orchestrator
    import repro.routing  # noqa: F401 - registers every policy class
    import repro.serve.http as serve_http
    import repro.serve.service as service
    import repro.topology.dragonfly  # noqa: F401 - Topology subclasses
    import repro.topology.mesh  # noqa: F401
    from repro.core.metapath import Metapath
    from repro.core.solutions import SolutionDatabase
    from repro.metrics.recorder import StatsRecorder
    from repro.network.fabric import Fabric
    from repro.network.router import Router
    from repro.obs.bus import BusSubscription, MetricsBus
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import JsonlSink, Tracer
    from repro.parallel.cache import ResultCache
    from repro.routing.base import RoutingPolicy
    from repro.serve.jobs import JobStore
    from repro.sim.engine import Simulator
    from repro.topology.base import Topology
    from repro.traffic.generators import HotSpotWorkload, SyntheticTrafficSource

    state = TraceState()
    span_on = profiler.span_on
    tap_on = profiler.tap_on

    # sim: Simulator.run, with per-callback event counts taken through
    # the public observer API for the duration of the run.
    def counted_run(run):
        timed = profiler.wrap("sim", run)
        count = profiler.count

        def run_with_counts(sim, *args, **kwargs):
            def observe(event) -> None:
                count("sim.cb." + getattr(event.fn, "__qualname__", "?"))

            sim.add_observer(observe)
            try:
                return timed(sim, *args, **kwargs)
            finally:
                sim.remove_observer(observe)

        return run_with_counts

    profiler.patch(Simulator, "run", counted_run)

    # network
    span_on(Router, "forward", "network.forward")
    span_on(Fabric, "send", "network.send")
    tap_on(Fabric, "__init__", after=lambda _r, fabric, *a: state.fabrics.append(fabric))

    # routing: every policy class that defines the entry point itself
    for cls in subclasses(RoutingPolicy):
        for attr in ("select_path", "on_ack", "on_predictive_ack"):
            span_on(cls, attr, f"routing.{attr}")

    # core
    for attr in _METAPATH_METHODS:
        span_on(Metapath, attr, "core.metapath")
    span_on(SolutionDatabase, "save", "core.solutions")
    span_on(SolutionDatabase, "lookup", "core.solutions")

    def on_lookup(result, *_args) -> None:
        profiler.count("core.solutions.lookups")
        if result is not None:
            profiler.count("core.solutions.hits")

    tap_on(SolutionDatabase, "lookup", after=on_lookup)

    # topology: the class methods (route-cache misses) and the instance
    # memos enable_route_cache installs (every query, hits included).
    for cls in subclasses(Topology):
        for attr in _ROUTE_METHODS:
            span_on(cls, attr, "topology.route")

    def wrap_memos(_result, topology) -> None:
        memos = vars(topology)
        if memos.get("_perfbench_wrapped"):
            return
        memos["_perfbench_wrapped"] = True
        for attr in ("minimal_route", "alternative_paths"):
            if attr in memos:
                memos[attr] = profiler.wrap("topology.route", memos[attr])

    tap_on(Topology, "enable_route_cache", after=wrap_memos)

    # traffic
    for cls in (HotSpotWorkload, SyntheticTrafficSource):
        for attr in _TRAFFIC_METHODS:
            span_on(cls, attr, "traffic")

    # metrics
    for attr in _RECORDER_METHODS:
        span_on(StatsRecorder, attr, "metrics.recorder")

    # obs
    span_on(Tracer, "emit", "obs.tracer")
    span_on(MetricsRegistry, "snapshot", "obs.metrics")
    span_on(MetricsBus, "publish", "obs.bus")

    def on_publish(event, *_args) -> None:
        state.publish_times[event["seq"]] = _clock()

    tap_on(MetricsBus, "publish", after=on_publish)

    def on_offer(accepted, *_args) -> None:
        if not accepted:
            profiler.count("obs.bus.dropped")

    tap_on(BusSubscription, "offer", after=on_offer)

    def on_sink_close(_result, sink) -> None:
        state.trace_bytes[sink.path] = os.path.getsize(sink.path)

    tap_on(JsonlSink, "close", after=on_sink_close)

    # analysis
    from repro.analysis.replay import EventTraceDigest

    span_on(EventTraceDigest, "update", "analysis.digest")
    span_on(replay, "digest_metrics", "analysis.digest")

    # parallel (module-level names are patched where they are looked up)
    span_on(orchestrator, "execute_task", "parallel.execute_task")
    span_on(orchestrator, "run_sweep", "parallel.sweep")
    span_on(service, "run_sweep", "parallel.sweep")
    span_on(ResultCache, "get", "parallel.cache.get")
    span_on(ResultCache, "put", "parallel.cache.put")
    span_on(ResultCache, "write_manifest", "parallel.cache.manifest")

    def on_cache_get(result, *_args) -> None:
        if result is not None:
            profiler.count("parallel.cache.hits")

    tap_on(ResultCache, "get", after=on_cache_get)

    # serve
    span_on(service.SimulationService, "submit", "serve.submit")
    span_on(service.SimulationService, "job_results", "serve.results")
    span_on(JobStore, "_journal", "serve.journal")

    def is_stream(handler) -> bool:
        return "/events" in handler.path

    span_on(serve_http._Handler, "do_POST", "serve.handler")
    span_on(serve_http._Handler, "do_GET", "serve.handler", skip=is_stream)

    def on_submit(result, *_args) -> None:
        job, created = result
        if created:
            with state.lock:
                state.submit_times[job.id] = _clock()

    def on_run_job(_service, job_id) -> None:
        with state.lock:
            submitted = state.submit_times.pop(job_id, None)
        if submitted is not None:
            state.queue_waits.append(_clock() - submitted)

    tap_on(service.SimulationService, "submit", after=on_submit)
    tap_on(service.SimulationService, "_run_job", before=on_run_job)
    return state


def uncovered(windows, busy) -> float:
    """Total length of ``windows`` not covered by the merged ``busy``."""
    total = 0.0
    for start, end in windows:
        covered = sum(
            min(end, b_end) - max(start, b_start)
            for b_start, b_end in busy
            if b_start < end and b_end > start
        )
        total += (end - start) - covered
    return total


def layer_metrics(
    profiler: SpanProfiler,
    state: TraceState,
    wall_s: float,
    units: int,
    overhead: float,
    round_trips: tuple = (),
    sse_lags: tuple = (),
) -> dict[str, float]:
    """The per-layer table, per unit of work (``units`` executions).

    Counts and times are totals divided by ``units``; ``wall_s`` is the
    traced wall time of all units together.  ``round_trips`` are the
    client's ``(start, end)`` request intervals (the served workload):
    the part of them during which no thread was inside a span is
    ``serve.transport_s``, so time the worker spends while a response
    is stalled in transit is counted once, in the worker's layers.
    """
    totals = profiler.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    per = float(units)
    out: dict[str, float] = {}
    callbacks = {
        name[len("sim.cb."):]: entry[0]
        for name, entry in totals.items() if name.startswith("sim.cb.")
    }
    out["sim.events"] = sum(callbacks.values()) / per
    for cb in SIM_CALLBACKS:
        out[f"sim.events.{cb}"] = callbacks.pop(cb, 0) / per
    out["sim.events.other"] = sum(callbacks.values()) / per
    out["sim.self_s"] = self_s("sim") / per
    for span in _CALL_SPANS:
        out[f"{span}.calls"] = calls(span) / per
        out[f"{span}.self_s"] = self_s(span) / per
    out["network.acks"] = sum(f.acks_delivered for f in state.fabrics) / per
    out["network.predictive_acks"] = (
        sum(f.predictive_acks_delivered for f in state.fabrics) / per
    )
    lookups = calls("core.solutions.lookups")
    out["core.solutions.hit_ratio"] = (
        calls("core.solutions.hits") / lookups if lookups else 0.0
    )
    out["obs.tracer.records"] = calls("obs.tracer") / per
    out["obs.tracer.self_s"] = self_s("obs.tracer") / per
    out["obs.tracer.bytes"] = sum(state.trace_bytes.values()) / per
    out["obs.metrics.snapshots"] = calls("obs.metrics") / per
    out["obs.metrics.snapshot_s"] = self_s("obs.metrics") / per
    out["obs.bus.published"] = calls("obs.bus") / per
    out["obs.bus.dropped"] = calls("obs.bus.dropped") / per
    out["obs.bus.publish_s"] = self_s("obs.bus") / per
    gets = calls("parallel.cache.get")
    out["parallel.cache.manifest_s"] = self_s("parallel.cache.manifest") / per
    out["parallel.cache.hit_ratio"] = (
        calls("parallel.cache.hits") / gets if gets else 0.0
    )
    out["parallel.sweep.self_s"] = self_s("parallel.sweep") / per
    out["serve.submit_s"] = self_s("serve.submit") / per
    out["serve.results_s"] = self_s("serve.results") / per
    out["serve.transport_s"] = uncovered(round_trips, profiler.busy()) / per
    waits = state.queue_waits
    out["serve.queue_wait_s"] = sum(waits) / len(waits) if waits else 0.0
    out["serve.sse_lag_s"] = sum(sse_lags) / len(sse_lags) if sse_lags else 0.0
    out["trace.wall_s"] = wall_s / per
    out["trace.overhead"] = overhead
    out["unattributed_s"] = out["trace.wall_s"] - sum(out[name] for name in SELF_TIME)
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _ in PER_LAYER}
