"""Metrics registry: primitives, cadence snapshots, recorder round-trip."""

import pytest

from repro.metrics.recorder import StatsRecorder, TimeSeries
from repro.obs import CountingSink, Histogram, MetricsRegistry, Tracer
from repro.sim.engine import Simulator


class TestPrimitives:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(2)
        assert registry.counter("x").value == 3

    def test_histogram_buckets_and_mean(self):
        histogram = Histogram("lat", bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 1.5, 5.0):
            histogram.observe(v)
        assert histogram.counts == [1, 2, 1]  # <=1, (1,2], overflow
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(8.5 / 4)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_provider_cannot_shadow_snapshot_keys(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.provider("counters", dict)

    def test_snapshot_includes_gauges_and_providers(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.gauge("g", lambda: 1.5)
        registry.provider("policy", lambda: {"expansions": 2})
        snap = registry.snapshot(0.25)
        assert snap["t"] == 0.25
        assert snap["counters"] == {"c": 7}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["policy"] == {"expansions": 2}
        assert registry.snapshots == [snap]


class TestCadence:
    def test_attach_snapshots_at_due_times_without_scheduling_events(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.attach(sim, cadence_s=1.0)
        before = sim.pending
        for t in (0.4, 0.9, 2.3, 2.4, 5.05):
            sim.schedule(t, lambda: None)
        assert sim.pending == before + 5  # the cadence scheduled nothing
        sim.run()
        # Due times 1.0 and 2.0 fire on the event at t=2.3; 3,4,5 on t=5.05.
        assert [s["t"] for s in registry.snapshots] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_attach_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError):
            MetricsRegistry().attach(Simulator(), cadence_s=0.0)


class TestCountingSink:
    def test_counts_every_record_and_feeds_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(sinks=[CountingSink(registry)])
        tracer.emit(0.0, "packet.deliver", ("flow", "0-1"), args={"latency_s": 2e-6})
        tracer.emit(0.0, "packet.deliver", ("flow", "0-1"), args={"latency_s": 3e-6})
        tracer.emit(0.0, "router.contention", ("router", 1), args={"wait_s": 1e-6})
        assert registry.counter("trace.packet.deliver").value == 2
        assert registry.counter("trace.router.contention").value == 1
        assert registry.histogram("packet.latency_s").count == 2
        assert registry.histogram("router.wait_s").count == 1


class TestRecorderRoundTrip:
    def test_time_series_to_dict_does_not_mutate(self):
        series = TimeSeries(window_s=1.0)
        series.add(0.5, 10.0)
        series.add(1.5, 20.0)  # closes window 0, opens window 1
        snapshot = series.to_dict()
        assert snapshot["open_count"] == 1  # window 1 still open
        # to_dict mid-sim must not flush: finalize still sees the open window.
        times, values = series.finalize()
        assert list(times) == [0.0, 1.0]
        assert list(values) == [10.0, 20.0]
        restored = TimeSeries.from_dict(snapshot)
        t2, v2 = restored.finalize()
        assert list(t2) == list(times)
        assert list(v2) == list(values)

    def test_stats_recorder_round_trip(self):
        recorder = StatsRecorder(window_s=1e-5, track_router_series=True)

        class _Pkt:
            dst = 3

        recorder.on_data_injected(_Pkt(), 0.0)
        recorder.on_data_delivered(_Pkt(), 2e-6, 1e-5)
        recorder.on_data_delivered(_Pkt(), 4e-6, 3e-5)
        recorder.on_data_dropped(_Pkt(), "ttl", 4e-5)
        recorder._on_router_wait(7, 1e-5, 1e-6)

        restored = StatsRecorder.from_dict(recorder.to_dict())
        assert restored.packets_injected == 1
        assert restored.packets_delivered == 2
        assert restored.packets_dropped == 1
        assert restored.drops_by_reason == {"ttl": 1}
        assert restored.latencies == recorder.latencies
        assert restored.first_delivery_t == recorder.first_delivery_t
        assert restored.global_average_latency_s == pytest.approx(
            recorder.global_average_latency_s
        )
        assert restored.to_dict() == recorder.to_dict()
        assert 7 in restored.router_series

    def test_registry_embeds_recorder_in_snapshots(self):
        recorder = StatsRecorder(window_s=1e-5)
        registry = MetricsRegistry()
        registry.bind_recorder(recorder)

        class _Pkt:
            dst = 0

        recorder.on_data_delivered(_Pkt(), 1e-6, 1e-5)
        snap = registry.snapshot(2e-5)
        assert snap["recorder"]["packets_delivered"] == 1
        restored = StatsRecorder.from_dict(snap["recorder"])
        assert restored.packets_delivered == 1
