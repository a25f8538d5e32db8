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
import struct
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

from repro.checkpoint.state import Snapshottable

__all__ = [
    "RunDigest",
    "ReplayReport",
    "EventTraceDigest",
    "ScenarioContext",
    "build_scenario",
    "digest_metrics",
    "finish_scenario",
    "run_scenario",
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


@dataclass
class ScenarioContext:
    """A fully built replay scenario: workload started, clock not yet run.

    ``run_scenario`` is ``build_scenario`` → ``sim.run(until)`` →
    ``finish_scenario``; the split exists so :mod:`repro.checkpoint` can
    stop anywhere in the middle, snapshot the live graph, and a restored
    process can finish the run and produce the same :class:`RunDigest`.
    """

    seed: int
    policy: str
    mesh_side: int
    repetitions: int
    until: float
    sim: object
    streams: object
    trace: EventTraceDigest
    recorder: object
    policy_obj: object
    fabric: object
    workload: object
    invariants: object = None

    def checkpoint_roots(self) -> dict:
        """The named object-graph roots a checkpoint payload carries."""
        return {
            "kind": "replay",
            "params": {
                "seed": self.seed,
                "policy": self.policy,
                "mesh_side": self.mesh_side,
                "repetitions": self.repetitions,
            },
            "until": self.until,
            "sim": self.sim,
            "streams": self.streams,
            "trace": self.trace,
            "recorder": self.recorder,
            "policy_obj": self.policy_obj,
            "fabric": self.fabric,
            "workload": self.workload,
        }

    @classmethod
    def from_checkpoint_roots(cls, roots: dict) -> "ScenarioContext":
        params = roots["params"]
        return cls(
            seed=int(params["seed"]),
            policy=str(params["policy"]),
            mesh_side=int(params["mesh_side"]),
            repetitions=int(params["repetitions"]),
            until=float(roots["until"]),
            sim=roots["sim"],
            streams=roots["streams"],
            trace=roots["trace"],
            recorder=roots["recorder"],
            policy_obj=roots["policy_obj"],
            fabric=roots["fabric"],
            workload=roots["workload"],
        )


def build_scenario(
    seed: int = 0,
    policy: str = "pr-drb",
    mesh_side: int = 4,
    repetitions: int = 3,
    with_invariants: bool = False,
    tracer=None,
    metrics=None,
    metrics_cadence_s: float | None = None,
) -> ScenarioContext:
    """Construct (but do not run) the seeded small-mesh hot-spot scenario.

    Construction order is load-bearing: the initial event schedule and
    RNG stream creation must match the historical ``run_scenario`` body
    exactly, or the event digests shift.
    """
    from repro.metrics.recorder import StatsRecorder
    from repro.network.config import NetworkConfig
    from repro.network.fabric import Fabric
    from repro.routing import make_policy
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.topology.mesh import Mesh2D
    from repro.traffic.bursty import BurstSchedule
    from repro.traffic.generators import HotSpotFlow, HotSpotWorkload

    streams = RandomStreams(seed)
    sim = Simulator()
    trace = EventTraceDigest().install(sim)
    recorder = StatsRecorder(window_s=2.5e-5)
    policy_obj = make_policy(policy, rng=streams.stream("routing"))
    fabric = Fabric(
        Mesh2D(mesh_side),
        NetworkConfig(),
        policy_obj,
        sim,
        recorder=recorder,
        notification="router",
    )
    if tracer is not None or metrics is not None:
        from repro.obs import instrument

        instrument(fabric, tracer, metrics, cadence_s=metrics_cadence_s)
    invariants = None
    if with_invariants:
        from repro.analysis.invariants import DebugInvariants

        invariants = DebugInvariants(fabric).install()

    n = fabric.topology.num_hosts
    # Colliding flows: two columns funnel into the same destination column.
    flows = [
        HotSpotFlow(0, n - mesh_side + 1),
        HotSpotFlow(mesh_side, n - mesh_side + 1),
        HotSpotFlow(1, n - 1),
    ]
    schedule = BurstSchedule(on_s=1.5e-4, off_s=1.5e-4, repetitions=repetitions)
    stop = schedule.end_time()
    workload = HotSpotWorkload(
        fabric,
        flows,
        rate_bps=1.2e9,
        schedule=schedule,
        stop_s=stop,
        noise_hosts=range(n),
        noise_rate_bps=3e7,
        rng=streams.stream("noise"),
        idle_rate_bps=2e8,
    )
    workload.start()
    return ScenarioContext(
        seed=seed,
        policy=policy,
        mesh_side=mesh_side,
        repetitions=repetitions,
        until=stop + 4e-4,
        sim=sim,
        streams=streams,
        trace=trace,
        recorder=recorder,
        policy_obj=policy_obj,
        fabric=fabric,
        workload=workload,
        invariants=invariants,
    )


def finish_scenario(context: ScenarioContext) -> RunDigest:
    """Digest a scenario whose clock has reached ``context.until``."""
    if context.invariants is not None:
        context.invariants.check()
    return RunDigest(
        seed=context.seed,
        policy=context.policy,
        events=context.trace.hexdigest(),
        metrics=digest_metrics(context.fabric, context.recorder, context.policy_obj),
        events_executed=context.sim.events_executed,
        packets_delivered=context.fabric.data_packets_delivered,
    )


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
    """One complete small-mesh hot-spot run, fully seeded, digested.

    A ``mesh_side`` x ``mesh_side`` mesh carries three colliding flows plus
    uniform background noise through repeated bursts — small enough for a
    sub-second run, busy enough to exercise ACK notification, metapath
    expansion and (for ``pr-drb``) solution save/replay.

    ``tracer``/``metrics`` install :mod:`repro.obs` observation on the
    run.  Observation never perturbs behavior, so the returned digests
    are identical with or without it — ``repro.obs selftest`` checks
    exactly that through this entry point.
    """
    context = build_scenario(
        seed=seed,
        policy=policy,
        mesh_side=mesh_side,
        repetitions=repetitions,
        with_invariants=with_invariants,
        tracer=tracer,
        metrics=metrics,
        metrics_cadence_s=metrics_cadence_s,
    )
    context.sim.run(until=context.until)
    return finish_scenario(context)


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
