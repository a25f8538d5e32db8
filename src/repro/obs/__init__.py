"""repro.obs — structured tracing, metrics registry, and timeline export.

The observability layer for the whole stack.  Three pieces:

* :class:`~repro.obs.tracer.Tracer` — a flight recorder of typed events
  (packet lifecycle, router contention, policy decisions, faults,
  retransmissions) streamed to pluggable sinks (JSONL file, in-memory,
  metrics counting);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters / gauges /
  histograms snapshotted on a configurable *sim-time* cadence;
* ``python -m repro.obs`` — CLI with ``summarize``, ``export``
  (``--format perfetto|jsonl|prometheus``), ``tail``, ``diff`` and
  ``record``.

The instrumentation contract (docs/observability.md): every hot-layer
emit sits behind a single ``if tracer is not None`` guard, events observe
and never mutate, and with tracing disabled the ``repro.perf`` replay
digests stay bit-identical.  Tracing *enabled* also keeps digests
identical — observation rides simulator observers and deadlines and
schedules no events of its own.  ``tests/test_obs_instrument.py``
(``TestNonPerturbation``) holds every policy's digests to both.
"""

from repro.obs.bus import BusSubscription, MetricsBus
from repro.obs.export import (
    export_prometheus,
    registry_from_records,
    to_perfetto,
    write_perfetto,
)
from repro.obs.instrument import instrument, register_fabric_metrics
from repro.obs.metrics import Counter, CountingSink, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import (
    TRACE_VERSION,
    JsonlSink,
    MemorySink,
    TraceRecord,
    Tracer,
    category,
    read_trace,
)

__all__ = [
    "TRACE_VERSION",
    "BusSubscription",
    "Counter",
    "CountingSink",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsBus",
    "MetricsRegistry",
    "TraceRecord",
    "Tracer",
    "category",
    "export_prometheus",
    "instrument",
    "read_trace",
    "register_fabric_metrics",
    "registry_from_records",
    "to_perfetto",
    "write_perfetto",
]
