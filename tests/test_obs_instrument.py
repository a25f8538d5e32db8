"""Instrumented runs: event coverage, non-perturbation, trace determinism."""

import json
from collections import Counter

import pytest

from repro.analysis.replay import build, finish, run_scenario
from repro.faults.campaign import FaultCampaignSpec
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    Tracer,
    read_trace,
    write_perfetto,
)
from repro.obs.cli import diff_traces
from repro.obs.tracer import _encode
from repro.perf import DEFAULT_POLICIES, pinned_dragonfly_spec, pinned_hotspot_spec

ALL_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")

#: every registered policy on the dragonfly hot-spot, and the fault
#: campaign (link flaps, ACK loss, retransmission) for four of them.
OBSERVED_SPECS = [
    pytest.param(pinned_dragonfly_spec(p, seed=0, repetitions=2), id=f"dragonfly-{p}")
    for p in DEFAULT_POLICIES
] + [
    pytest.param(FaultCampaignSpec(seed=0).scenario(p), id=f"faulted-{p}")
    for p in ("drb", "pr-drb", "fr-drb", "notified-adaptive")
]


def traced_run(policy, tmp_path=None, metrics=None, cadence=None, seed=0):
    """The replay run traced: its digest and every record it emitted,
    also written to the JSONL file ``tmp_path`` (labelled with its name)
    when one is given."""
    memory = MemorySink()
    sinks = [memory]
    if tmp_path is not None:
        sinks.append(JsonlSink(tmp_path, label=f"{policy}/{tmp_path.name}"))
    tracer = Tracer(sinks=sinks)
    digest = run_scenario(
        seed=seed, policy=policy, repetitions=2,
        tracer=tracer, metrics=metrics, metrics_cadence_s=cadence,
    )
    tracer.close()
    assert tracer.emitted == len(memory.records)
    return digest, memory.records


def name_counts(records) -> dict[str, int]:
    return dict(sorted(Counter(r.name for r in records).items()))


class TestNonPerturbation:
    """The PR's core invariant: observation never changes behavior."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_digests_identical_with_and_without_tracing(self, policy):
        bare = run_scenario(seed=0, policy=policy, repetitions=2)
        traced, records = traced_run(
            policy, metrics=MetricsRegistry(), cadence=5e-5
        )
        assert records
        assert traced.events == bare.events
        assert traced.metrics == bare.metrics
        assert traced.events_executed == bare.events_executed

    @pytest.mark.parametrize("spec", OBSERVED_SPECS)
    def test_every_policy_and_faulted_run_identical_when_observed(self, spec):
        """A write from an ``if tracer is not None`` branch, a metrics
        provider or ``instrument`` that changes one of these runs shows
        up as a digest or transport counter that differs between the
        bare and the observed run."""

        def run(**observers):
            scenario = build(spec, digest=True, **observers)
            scenario.sim.run(until=scenario.until)
            transport = scenario.transport
            return finish(scenario), None if transport is None else transport.stats()

        bare, bare_transport = run()
        sink = MemorySink()
        traced, traced_transport = run(
            tracer=Tracer(sinks=[sink]), metrics=MetricsRegistry(), metrics_cadence_s=5e-5
        )
        assert traced.events == bare.events
        assert traced.metrics == bare.metrics
        assert traced.events_executed == bare.events_executed
        assert traced_transport == bare_transport
        if spec.faults is not None:
            assert any(r.name == "retx.send" for r in sink.records)


class TestTraceDeterminism:
    """Same seed => byte-identical JSONL, modulo the header label."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_same_seed_traces_byte_identical(self, policy, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        traced_run(policy, tmp_path=path_a)
        traced_run(policy, tmp_path=path_b)
        header_a, *body_a = path_a.read_text().splitlines()
        header_b, *body_b = path_b.read_text().splitlines()
        assert header_a != header_b  # the labels differ; diff_traces exempts them
        assert body_a == body_b
        assert len(body_a) > 100
        assert diff_traces(path_a, path_b) == []

    def test_different_seeds_diverge(self, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        traced_run("pr-drb", tmp_path=path_a, seed=0)
        traced_run("pr-drb", tmp_path=path_b, seed=1)
        assert diff_traces(path_a, path_b) != []


#: traced runs whose every JSONL line is checked against the reference
#: encoding, with the categories and event names each must emit: PR-DRB
#: on the pinned mesh:8 hot-spot (zone transitions, notifications and
#: solution-DB hits: the paper's decision chain), notified-adaptive on
#: the dragonfly under router notification, and one fault-campaign cell
#: (whose ``fault.*`` records carry a list value).
ENCODED_RUNS = [
    pytest.param(pinned_hotspot_spec("pr-drb", repetitions=3), 30_000,
                 {"zone", "msp", "prediction", "congestion",
                  "prediction.hit", "zone.transition", "notify.send"}, id="mesh8-pr-drb"),
    pytest.param(pinned_dragonfly_spec("notified-adaptive"), None,
                 {"packet", "notify", "router", "zone"}, id="dragonfly-notified-adaptive"),
    pytest.param(FaultCampaignSpec(seed=0).scenario("pr-drb"), None,
                 {"fault", "retx"}, id="fault-cell-pr-drb"),
]


class TestTracedRunRecords:
    @pytest.mark.parametrize("spec, max_events, emitted", ENCODED_RUNS)
    def test_every_line_is_the_reference_encoding(
        self, spec, max_events, emitted, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        memory = MemorySink()
        tracer = Tracer(sinks=[memory, JsonlSink(path)])
        scenario = build(spec, tracer=tracer, metrics=MetricsRegistry(),
                         metrics_cadence_s=1e-4)
        scenario.sim.run(until=scenario.until, max_events=max_events)
        tracer.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        assert lines == [_encode(r.to_json_obj()) + "\n" for r in memory.records]
        assert emitted <= {r.category for r in memory.records} | {r.name for r in memory.records}

    def test_counting_sink_counts_equal_the_record_counts(self):
        metrics = MetricsRegistry()
        _, records = traced_run("pr-drb", metrics=metrics)
        assert records
        counters = metrics.to_dict()["counters"]
        assert {
            name.removeprefix("trace."): value
            for name, value in counters.items() if name.startswith("trace.")
        } == name_counts(records)


class TestEventCoverage:
    def test_drb_emits_metapath_lifecycle(self):
        _, records = traced_run("drb")
        counts = name_counts(records)
        assert counts["zone.transition"] > 0
        assert counts["msp.open"] > 0
        assert counts["msp.select"] > 0
        assert counts["notify.send"] > 0
        assert counts["notify.recv"] > 0
        assert counts["congestion.episode"] > 0

    def test_prdrb_emits_prediction_events(self):
        _, records = traced_run("pr-drb")
        counts = name_counts(records)
        assert counts["prediction.save"] > 0
        assert counts["prediction.hit"] > 0
        assert counts["prediction.miss"] > 0

    def test_congestion_episode_has_duration(self):
        _, records = traced_run("pr-drb")
        episodes = [r for r in records if r.name == "congestion.episode"]
        assert episodes and all(e.ph == "X" and e.dur > 0 for e in episodes)

    def test_deterministic_policy_emits_only_fabric_events(self):
        _, records = traced_run("deterministic")
        categories = {r.category for r in records}
        assert categories <= {"packet", "msg", "router"}

    def test_tracks_cover_flows_and_routers(self, tmp_path):
        _, records = traced_run("pr-drb")
        kinds = {r.track[0] for r in records}
        assert {"flow", "router"} <= kinds
        # Tracks become Perfetto processes and threads; the export loads.
        write_perfetto(tmp_path / "trace.json", records, label="pr-drb")
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        assert events and all({"ph", "pid", "tid"} <= event.keys() for event in events)


class TestFabricMetrics:
    def test_registry_mirrors_fabric_counters(self):
        metrics = MetricsRegistry()
        digest, _ = traced_run("pr-drb", metrics=metrics, cadence=5e-5)
        assert len(metrics.snapshots) > 2
        last = metrics.snapshots[-1]
        assert last["gauges"]["fabric.data_packets_delivered"] == pytest.approx(
            digest.packets_delivered
        )
        db = last["solution_db"]
        assert db["hits"] > 0
        assert db["saves"] > 0
        assert 0.0 < db["hit_rate"] <= 1.0
        assert last["policy"]["solutions_applied"] == db["hits"]
        # Monotone counters never decrease across snapshots.
        delivered = [
            s["gauges"]["fabric.data_packets_delivered"]
            for s in metrics.snapshots
        ]
        assert delivered == sorted(delivered)

    def test_cadence_registers_a_deadline_not_an_observer(self):
        """Metrics alone put no per-event call on the run: the cadence
        is one engine deadline and no observer."""
        from repro.analysis.replay import replay_spec

        scenario = build(replay_spec("pr-drb", 0), metrics=MetricsRegistry(),
                         metrics_cadence_s=5e-5)
        assert scenario.sim.observers == ()
        assert len(scenario.sim._deadlines) == 1

    def test_solutions_missed_stays_out_of_policy_stats(self):
        """The digest freezes stats() keys; the obs-only miss counter must
        never leak into them (it would break every committed baseline)."""
        from repro.routing import make_policy

        policy = make_policy("pr-drb")
        assert policy.solutions_missed == 0
        assert "solutions_missed" not in policy.stats()
        assert "solutions_missed" not in policy.pattern_stats()


class TestParallelTraceFiles:
    def test_sweep_writes_trace_next_to_cache_entry(self, tmp_path):
        from repro.parallel import SimTask, SweepConfig, run_sweep

        task = SimTask(
            kind="replay",
            params={"policy": "pr-drb", "seed": 0, "mesh_side": 4,
                    "repetitions": 2},
            label="obs/s0",
        )
        config = SweepConfig(
            workers=1, cache_dir=str(tmp_path), trace=True,
            code_version="obstest000000001",
        )
        report = run_sweep([task], config)
        assert report.all_ok
        traces = list(tmp_path.glob("??/*.trace.jsonl"))
        assert len(traces) == 1
        header, records = read_trace(traces[0])
        assert header["label"] == "obs/s0"
        assert any(r.name == "packet.deliver" for r in records)
        # The traced cell's digests match an untraced direct run.
        direct = run_scenario(seed=0, policy="pr-drb", repetitions=2)
        assert report.results[0]["events"] == direct.events
        assert report.results[0]["metrics"] == direct.metrics
