"""Wire a tracer / metrics registry into a live fabric.

:func:`instrument` is the one call sites need: it hands the tracer to
every layer that knows how to emit (fabric, policy, routers, NICs — each
holds a ``tracer`` attribute defaulting to ``None`` and guards every emit
with ``if tracer is not None``), registers the standard fabric metrics,
and optionally attaches a sim-time snapshot cadence.

Everything here *observes*: no scheduled events, no mutation of simulated
state — so instrumented and bare runs execute the identical event stream
(``tests/test_obs_instrument.py::TestNonPerturbation`` holds the
digests to that).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import CountingSink, MetricsRegistry
from repro.obs.tracer import Tracer


def instrument(
    fabric,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    cadence_s: Optional[float] = None,
) -> Optional[Tracer]:
    """Install ``tracer`` and/or ``metrics`` on ``fabric``'s whole stack.

    With a registry present the tracer also gets a
    :class:`~repro.obs.metrics.CountingSink`, so every trace event rolls
    up into ``trace.*`` counters (and the latency/wait histograms).
    Returns the tracer for chaining.
    """
    fabric.tracer = tracer
    fabric.policy.tracer = tracer
    for router in fabric.routers:
        router.tracer = tracer
    for node in fabric.nodes:
        node.tracer = tracer
    if metrics is not None:
        register_fabric_metrics(metrics, fabric)
        if tracer is not None:
            tracer.add_sink(CountingSink(metrics))
        if cadence_s is not None:
            metrics.attach(fabric.sim, cadence_s)
    return tracer


def register_fabric_metrics(metrics: MetricsRegistry, fabric) -> None:
    """Standard gauge/provider set over a fabric's live counters."""
    metrics.gauge("fabric.data_packets_injected", lambda: fabric.data_packets_injected)
    metrics.gauge("fabric.data_packets_delivered", lambda: fabric.data_packets_delivered)
    metrics.gauge("fabric.data_bytes_delivered", lambda: fabric.data_bytes_delivered)
    metrics.gauge("fabric.acks_delivered", lambda: fabric.acks_delivered)
    metrics.gauge(
        "fabric.predictive_acks_delivered", lambda: fabric.predictive_acks_delivered
    )
    metrics.gauge("fabric.packets_dropped", lambda: fabric.packets_dropped)
    metrics.gauge("fabric.queue_occupancy_bytes", lambda: _queued_bytes(fabric))
    metrics.gauge("sim.pending_events", lambda: fabric.sim.pending)
    metrics.provider("drops", lambda: dict(sorted(fabric.dropped_by_reason.items())))
    metrics.provider("policy", lambda: _sorted_stats(fabric.policy))
    if hasattr(fabric.policy, "databases"):
        metrics.provider("solution_db", lambda: solution_db_stats(fabric.policy))
    transport = fabric.transport
    if transport is not None and hasattr(transport, "stats"):
        metrics.provider("transport", transport.stats)


def solution_db_stats(policy) -> dict:
    """Size and hit-rate view of a PR-DRB policy's solution databases.

    ``solutions_missed`` is an observability-only counter (kept out of
    ``policy.stats()`` so replay metric digests stay frozen); older
    policy objects without it report a hit rate over hits alone.
    """
    size = sum(len(db.solutions) for db in policy.databases.values())
    hits = policy.solutions_applied
    misses = getattr(policy, "solutions_missed", 0)
    consulted = hits + misses
    return {
        "size": size,
        "flows_tracked": len(policy.databases),
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / consulted if consulted else 0.0,
        "saves": policy.solutions_saved,
        "invalidated": policy.solutions_invalidated,
    }


def _queued_bytes(fabric) -> int:
    return sum(
        port.occupancy_bytes
        for router in fabric.routers
        for port in router.ports.values()
    )


def _sorted_stats(policy) -> dict:
    return dict(sorted(policy.stats().items()))
