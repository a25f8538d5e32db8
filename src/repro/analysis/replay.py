"""Seeded-replay determinism harness.

The predictive claim of the paper is only measurable if a scenario replayed
with the same seed is *bit-identical*: every figure averages repeated
bursts across seeds, and PR-DRB's solution reuse compares congestion
signatures across repetitions.  This module runs a small mesh PR-DRB
scenario N times with the same root seed and diffs two digests per run:

* the **event-trace digest** — a SHA-256 over every executed event's
  ``(time, priority, sequence, callback)`` tuple, captured through
  :attr:`Simulator.event_hook`.  Any divergence in scheduling order or
  timing shows up here first.
* the **metrics digest** — a SHA-256 over the recorder's per-packet
  latencies, windowed series, fabric counters and policy statistics (the
  quantities the evaluation chapter actually plots).

Used three ways: as a CLI (``python -m repro.analysis replay``), as a
tier-1 regression test (``tests/test_determinism_replay.py``), and as a
library (:func:`check_determinism`) for gating future refactors.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import struct
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence

from repro.checkpoint.state import Snapshottable

if TYPE_CHECKING:
    from repro.faults.campaign import FaultPlan
    from repro.metrics.recorder import StatsRecorder
    from repro.network.fabric import Fabric
    from repro.routing.base import RoutingPolicy
    from repro.sim.engine import Simulator

__all__ = [
    "RunDigest",
    "ReplayReport",
    "EventTraceDigest",
    "Scenario",
    "ScenarioSpec",
    "build",
    "digest_metrics",
    "finish",
    "replay_spec",
    "run_scenario",
    "scenario_spec",
    "task_result",
    "check_determinism",
    "main",
]


@dataclass(frozen=True)
class RunDigest:
    """Fingerprint of one complete simulation run."""

    seed: int
    policy: str
    events: str
    metrics: str
    events_executed: int
    packets_delivered: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "policy": self.policy,
            "events": self.events,
            "metrics": self.metrics,
            "events_executed": self.events_executed,
            "packets_delivered": self.packets_delivered,
        }


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one scenario ``runs`` times with one seed."""

    runs: tuple[RunDigest, ...]

    @property
    def deterministic(self) -> bool:
        first = self.runs[0]
        return all(
            r.events == first.events and r.metrics == first.metrics
            for r in self.runs[1:]
        )

    def to_dict(self) -> dict:
        return {
            "deterministic": self.deterministic,
            "runs": [r.to_dict() for r in self.runs],
        }


#: events per chain fold; boundaries depend only on the event *count*,
#: so an interrupted-and-resumed run folds at the same points as an
#: uninterrupted one and the digests stay bit-identical.
_DIGEST_BLOCK_EVENTS = 4096


class EventTraceDigest(Snapshottable):
    """Block-chained SHA-256 over the executed event sequence.

    Event records accumulate in a byte buffer; every
    :data:`_DIGEST_BLOCK_EVENTS` events the buffer is folded into a
    running 32-byte chain value (``chain = sha256(chain + block)``).  The
    final digest is ``sha256(chain + tail)``.  Unlike a streaming
    ``hashlib`` object, the ``(chain, buffer, events)`` triple is plain
    picklable state, so a checkpoint can carry the digest mid-run and a
    restored process continues it exactly (docs/checkpoint.md).
    """

    _snapshot_fields_: ClassVar[tuple[str, ...]] = ("events", "_chain", "_buffer")

    def __init__(self) -> None:
        self.events = 0
        self._chain = b""
        self._buffer = bytearray()

    def install(self, sim) -> "EventTraceDigest":
        sim.add_observer(self.update)
        return self

    def update(self, event) -> None:
        self.events += 1
        fn = event.fn
        label = getattr(fn, "__qualname__", repr(fn))
        buffer = self._buffer
        buffer += struct.pack("<dii", event.time, event.priority, event.sequence)
        buffer += label.encode("utf-8")
        if self.events % _DIGEST_BLOCK_EVENTS == 0:
            self._chain = hashlib.sha256(self._chain + buffer).digest()
            del buffer[:]

    def hexdigest(self) -> str:
        return hashlib.sha256(self._chain + bytes(self._buffer)).hexdigest()


def digest_metrics(fabric, recorder, policy) -> str:
    """Canonical SHA-256 over everything the evaluation would plot.

    Floats are hashed via their exact IEEE-754 bits (``struct.pack``):
    determinism here means *bit*-stability, not approximate equality.
    """
    sha = hashlib.sha256()

    def add_floats(values) -> None:
        for v in values:
            sha.update(struct.pack("<d", float(v)))

    def add_text(text: str) -> None:
        sha.update(text.encode("utf-8"))

    add_text(
        f"injected={fabric.data_packets_injected};"
        f"delivered={fabric.data_packets_delivered};"
        f"bytes={fabric.data_bytes_delivered};"
        f"acks={fabric.acks_delivered};"
        f"packs={fabric.predictive_acks_delivered};"
        f"dropped={fabric.packets_dropped};"
    )
    add_floats(recorder.latencies)
    times, values = recorder.latency_series.finalize()
    add_floats(times)
    add_floats(values)
    add_floats([recorder.global_average_latency_s])
    # Policy statistics: a plain dict of counters/floats; sort for a
    # canonical order and hash floats exactly.
    for key in sorted(policy.stats()):
        value = policy.stats()[key]
        add_text(f"{key}=")
        if isinstance(value, float):
            add_floats([value])
        else:
            add_text(repr(value))
    for router_id in sorted(fabric.contention_map()):
        add_text(f"router{router_id}=")
        add_floats([fabric.contention_map()[router_id]])
    return sha.hexdigest()


@dataclass(frozen=True)
class ScenarioSpec:
    """One seeded hot-spot scenario, as plain picklable data.

    The replay harness (:func:`replay_spec`), the fault campaign
    (:meth:`repro.faults.campaign.FaultCampaignSpec.scenario`) and the
    pinned throughput runs (:func:`repro.perf.pinned_hotspot_spec`,
    :func:`repro.perf.pinned_dragonfly_spec`) are all values of this
    type; :func:`build` turns one into a live :class:`Scenario`.
    """

    policy: str
    seed: int
    #: a :func:`repro.topology.make_topology` spec string.
    topology: str
    #: ``(src, dst)`` host pairs of the colliding hot-spot flows.
    flows: tuple[tuple[int, int], ...]
    rate_bps: float
    burst_on_s: float
    burst_off_s: float
    repetitions: int
    #: background rate of every host that is not a flow source.
    noise_rate_bps: float
    #: flow sources' trickle rate between bursts.
    idle_rate_bps: float
    notification: str
    #: run this long past the last burst; ``None``: until ``max_events``.
    drain_s: Optional[float]
    faults: Optional[FaultPlan] = None


def replay_spec(
    policy: str = "pr-drb", seed: int = 0, mesh_side: int = 4, repetitions: int = 3
) -> ScenarioSpec:
    """The seeded small-mesh hot-spot the replay harness digests.

    A ``mesh_side`` x ``mesh_side`` mesh carries three colliding flows plus
    uniform background noise through repeated bursts — small enough for a
    sub-second run, busy enough to exercise ACK notification, metapath
    expansion and (for ``pr-drb``) solution save/replay.
    """
    n = mesh_side * mesh_side
    return ScenarioSpec(
        policy=policy, seed=seed, topology=f"mesh:{mesh_side}",
        # Colliding flows: two columns funnel into the same destination column.
        flows=((0, n - mesh_side + 1), (mesh_side, n - mesh_side + 1), (1, n - 1)),
        rate_bps=1.2e9, burst_on_s=1.5e-4, burst_off_s=1.5e-4, repetitions=repetitions,
        noise_rate_bps=3e7, idle_rate_bps=2e8, notification="router", drain_s=4e-4,
    )


def _int_param(params: dict, name: str, default: int) -> int:
    value = params.get(name, default)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def _known_fields(params, allowed, what: str) -> dict:
    """A copy of ``params``, refused unless it is a dict of ``allowed``
    fields (names, or a dataclass whose field names are allowed)."""
    if isinstance(allowed, type):
        allowed = [f.name for f in fields(allowed)]
    if not isinstance(params, dict):
        raise ValueError(f"{what} must be an object, got {params!r}")
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} field(s) {unknown}; expected some of {list(allowed)}")
    return dict(params)


def scenario_spec(kind: str, params: dict) -> ScenarioSpec:
    """Parse a ``replay`` or ``fault`` task's params into its spec.

    ``replay`` params are ``{"policy", "seed", "mesh_side",
    "repetitions"}``; ``fault`` params are ``{"policy", "spec": {...}}``
    with a :meth:`repro.faults.campaign.FaultCampaignSpec.to_dict` body.
    Missing fields take their defaults; unknown fields and non-integer
    counts raise ``ValueError`` naming the field.
    """
    if kind == "replay":
        params = _known_fields(params, ("policy", "seed", "mesh_side", "repetitions"), kind)
        return replay_spec(
            str(params.get("policy", "pr-drb")),
            _int_param(params, "seed", 0),
            _int_param(params, "mesh_side", 4),
            _int_param(params, "repetitions", 3),
        )
    if kind != "fault":
        raise ValueError(f"unknown scenario kind {kind!r} (expected 'replay' or 'fault')")
    from repro.faults.campaign import FaultCampaignSpec
    from repro.network.config import ReliabilityConfig

    params = _known_fields(params, ("policy", "spec"), kind)
    data = _known_fields(params.get("spec", {}), FaultCampaignSpec, "fault spec")
    for name in ("seed", "mesh_side", "repetitions"):
        _int_param(data, name, 0)
    if isinstance(data.get("reliability"), dict):
        data["reliability"] = ReliabilityConfig(
            **_known_fields(data["reliability"], ReliabilityConfig, "reliability")
        )
    return FaultCampaignSpec(**data).scenario(str(params.get("policy", "pr-drb")))


def _task_params(spec: ScenarioSpec) -> tuple[str, dict]:
    """The ``(kind, params)`` that :func:`scenario_spec` parses into
    ``spec``; ``ValueError`` for a spec no task describes."""
    from repro.faults.campaign import FaultCampaignSpec

    scenario = {"seed": spec.seed, "repetitions": spec.repetitions,
                "mesh_side": int(spec.topology.removeprefix("mesh:"))}
    if spec.faults is None:
        kind, params = "replay", {"policy": spec.policy, **scenario}
    else:
        campaign = FaultCampaignSpec(
            **vars(spec.faults), notification=spec.notification, **scenario
        )
        kind, params = "fault", {"policy": spec.policy, "spec": campaign.to_dict()}
    if scenario_spec(kind, params) != spec:
        raise ValueError(f"not a replay or fault scenario: {spec!r}")
    return kind, params


#: :class:`Scenario` fields a checkpoint carries, in payload order; the
#: last two only when the spec has faults.
_ROOTS = ("until", "sim", "streams", "trace", "recorder", "policy_obj",
          "fabric", "workload", "transport", "injector")


@dataclass
class Scenario:
    """A built scenario: workload started, clock not yet run to the end.

    ``run_scenario`` is :func:`build` → ``sim.run(until)`` →
    :func:`finish`; the split exists so :mod:`repro.checkpoint` can stop
    anywhere in the middle, snapshot the live graph, and a restored
    process can finish the run and produce the same :class:`RunDigest`.
    """

    spec: ScenarioSpec
    #: simulated stop time; ``None`` when the spec has no drain.
    until: Optional[float]
    sim: Simulator
    streams: object
    trace: Optional[EventTraceDigest]
    recorder: StatsRecorder
    policy_obj: RoutingPolicy
    fabric: Fabric
    workload: object
    transport: object = None
    injector: object = None
    invariants: object = None

    def checkpoint_roots(self) -> dict:
        """The named object-graph roots a checkpoint payload carries
        (shared identities survive the single ``pickle.dumps``)."""
        kind, params = _task_params(self.spec)
        names = _ROOTS if self.spec.faults is not None else _ROOTS[:-2]
        return {"kind": kind, "params": params, **{n: getattr(self, n) for n in names}}

    @classmethod
    def from_checkpoint_roots(cls, roots: dict) -> "Scenario":
        spec = scenario_spec(roots["kind"], roots["params"])
        return cls(spec=spec, **{name: roots.get(name) for name in _ROOTS})


def build(
    spec: ScenarioSpec,
    *,
    digest: bool = False,
    tracer=None,
    metrics=None,
    metrics_cadence_s: float | None = None,
    with_invariants: bool = False,
) -> Scenario:
    """Construct (but do not run) ``spec``'s scenario.

    Construction order is load-bearing: the initial event schedule and
    the RNG stream creation fix the event digests.  The observers never
    perturb the run: ``digest`` installs the event-trace digest
    :func:`finish` reads (the throughput timers leave it off),
    ``tracer``/``metrics`` install :mod:`repro.obs` and
    ``with_invariants`` installs :class:`~repro.analysis.invariants.DebugInvariants`.
    """
    from repro.metrics.recorder import StatsRecorder
    from repro.network.config import NetworkConfig
    from repro.network.fabric import Fabric
    from repro.routing import make_policy
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.topology import make_topology
    from repro.traffic.bursty import BurstSchedule
    from repro.traffic.generators import HotSpotFlow, HotSpotWorkload

    streams = RandomStreams(spec.seed)
    sim = Simulator()
    trace = EventTraceDigest().install(sim) if digest else None
    recorder = StatsRecorder(window_s=2.5e-5)
    policy_obj = make_policy(spec.policy, rng=streams.stream("routing"))
    fabric = Fabric(
        make_topology(spec.topology), NetworkConfig(), policy_obj, sim,
        recorder=recorder, notification=spec.notification,
    )
    if tracer is not None or metrics is not None:
        from repro.obs import instrument

        instrument(fabric, tracer, metrics, cadence_s=metrics_cadence_s)
    faults = spec.faults
    transport = injector = invariants = None
    if faults is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.recovery import ReliableTransport

        transport = ReliableTransport(fabric, faults.reliability)
        injector = FaultInjector(fabric, rng=streams.stream("faults"))
    if with_invariants:
        from repro.analysis.invariants import DebugInvariants

        invariants = DebugInvariants(fabric).install()
    schedule = BurstSchedule(
        on_s=spec.burst_on_s, off_s=spec.burst_off_s, repetitions=spec.repetitions
    )
    flows = [HotSpotFlow(src, dst) for src, dst in spec.flows]
    if faults is not None and injector is not None:
        injector.apply(*faults.models(fabric.topology, flows, schedule))
    stop = schedule.end_time()
    workload = HotSpotWorkload(
        fabric, flows, rate_bps=spec.rate_bps, schedule=schedule, stop_s=stop,
        noise_hosts=range(fabric.topology.num_hosts),
        noise_rate_bps=spec.noise_rate_bps, rng=streams.stream("noise"),
        idle_rate_bps=spec.idle_rate_bps,
    )
    workload.start()
    return Scenario(
        spec=spec, until=None if spec.drain_s is None else stop + spec.drain_s,
        sim=sim, streams=streams, trace=trace, recorder=recorder,
        policy_obj=policy_obj, fabric=fabric, workload=workload,
        transport=transport, injector=injector, invariants=invariants,
    )


def finish(scenario: Scenario) -> RunDigest:
    """Digest a scenario built with ``digest=True`` whose clock has run."""
    if scenario.trace is None:
        raise ValueError("finish() needs a scenario built with digest=True")
    if scenario.invariants is not None:
        scenario.invariants.check()
    return RunDigest(
        seed=scenario.spec.seed,
        policy=scenario.spec.policy,
        events=scenario.trace.hexdigest(),
        metrics=digest_metrics(scenario.fabric, scenario.recorder, scenario.policy_obj),
        events_executed=scenario.sim.events_executed,
        packets_delivered=scenario.fabric.data_packets_delivered,
    )


def task_result(scenario: Scenario) -> dict:
    """The JSON result of a finished ``replay`` or ``fault`` task."""
    if scenario.spec.faults is None:
        return finish(scenario).to_dict()
    from repro.faults.campaign import fault_result

    return fault_result(scenario).to_dict()


def run_scenario(
    seed: int = 0,
    policy: str = "pr-drb",
    mesh_side: int = 4,
    repetitions: int = 3,
    with_invariants: bool = False,
    tracer=None,
    metrics=None,
    metrics_cadence_s: float | None = None,
) -> RunDigest:
    """One complete :func:`replay_spec` run, fully seeded, digested.

    Observation never perturbs behavior, so the digests are identical
    with or without ``tracer``/``metrics`` — ``repro.obs selftest``
    checks exactly that through this entry point.
    """
    scenario = build(
        replay_spec(policy, seed, mesh_side, repetitions), digest=True,
        tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s,
        with_invariants=with_invariants,
    )
    scenario.sim.run(until=scenario.until)
    return finish(scenario)


def check_determinism(
    seed: int = 0,
    runs: int = 2,
    policy: str = "pr-drb",
    mesh_side: int = 4,
    repetitions: int = 3,
) -> ReplayReport:
    """Replay the scenario ``runs`` times with one seed; diff the digests."""
    if runs < 2:
        raise ValueError("need at least 2 runs to compare")
    digests = tuple(
        run_scenario(
            seed=seed, policy=policy, mesh_side=mesh_side, repetitions=repetitions
        )
        for _ in range(runs)
    )
    return ReplayReport(runs=digests)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.analysis replay [--seed N] [--runs K]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis replay",
        description="Seeded-replay determinism harness: run a small mesh "
        "PR-DRB scenario repeatedly and diff event/metric digests.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--policy", default="pr-drb")
    parser.add_argument("--mesh-side", type=int, default=4)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compare digests")

    report = check_determinism(
        seed=args.seed, runs=args.runs, policy=args.policy, mesh_side=args.mesh_side
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for i, run in enumerate(report.runs):
            print(
                f"run {i}: events={run.events[:16]}… metrics={run.metrics[:16]}… "
                f"({run.events_executed} events, {run.packets_delivered} delivered)"
            )
        verdict = "DETERMINISTIC" if report.deterministic else "NON-DETERMINISTIC"
        print(f"{verdict}: seed={args.seed} policy={args.policy} runs={args.runs}")
    return 0 if report.deterministic else 1
