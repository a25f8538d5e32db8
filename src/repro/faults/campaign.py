"""Fault-injection campaign runner.

A *campaign* replays the reference small-mesh hot-spot workload (the
same one the seeded-replay harness digests) under a fault schedule —
transient link flaps on the primary route of the hottest flow plus
Bernoulli ACK loss — with the reliable transport installed, once per
routing policy.  Everything is driven from one root seed through named
:class:`~repro.sim.rng.RandomStreams`, and every run is digested with
the replay harness's event/metric SHA-256s, so campaigns are
bit-replayable and comparable across policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.config import NetworkConfig, ReliabilityConfig

__all__ = [
    "FaultCampaignSpec",
    "FaultRunResult",
    "FaultScenarioContext",
    "build_fault_scenario",
    "finish_fault_scenario",
    "run_fault_scenario",
    "run_fault_campaign",
    "sweep_ack_loss",
]

#: the policies the acceptance campaign compares.
DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")


@dataclass(frozen=True)
class FaultCampaignSpec:
    """Everything that defines one campaign (fully seeded)."""

    seed: int = 0
    mesh_side: int = 4
    repetitions: int = 3
    #: Bernoulli ACK/notification loss probability (0 disables).
    ack_loss: float = 0.1
    #: transient link-flap outage length, seconds (0 disables flaps).
    flap_duration_s: float = 2.0e-4
    #: offset of each flap into its burst, seconds.
    flap_offset_s: float = 2.0e-5
    #: use a stochastic MTBF/MTTR flap process instead of scheduled flaps.
    stochastic: bool = False
    mtbf_s: float = 3.0e-4
    mttr_s: float = 1.5e-4
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    notification: str = "router"

    def to_dict(self) -> dict:
        """JSON form matching the ``fault`` task kind of repro.parallel
        (``FaultCampaignSpec(**{... 'reliability': ReliabilityConfig(**r)})``
        reconstructs it exactly)."""
        from dataclasses import asdict

        data = asdict(self)
        data["reliability"] = asdict(self.reliability)
        return data


@dataclass(frozen=True)
class FaultRunResult:
    """One policy's run: digests + resilience report."""

    policy: str
    seed: int
    events_digest: str
    metrics_digest: str
    events_executed: int
    report: object  # ResilienceReport

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "seed": self.seed,
            "events_digest": self.events_digest,
            "metrics_digest": self.metrics_digest,
            "events_executed": self.events_executed,
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRunResult":
        from repro.faults.metrics import ResilienceReport

        return cls(
            policy=str(data["policy"]),
            seed=int(data["seed"]),
            events_digest=str(data["events_digest"]),
            metrics_digest=str(data["metrics_digest"]),
            events_executed=int(data["events_executed"]),
            report=ResilienceReport.from_dict(data["report"]),
        )


def _fault_models(spec: FaultCampaignSpec, fabric, schedule):
    """Build the campaign's fault models against a concrete fabric."""
    from repro.faults.models import AckLoss, LinkFlap, StochasticLinkFlaps
    from repro.routing.deterministic import host_path
    from repro.traffic.generators import HotSpotFlow

    n = fabric.topology.num_hosts
    side = spec.mesh_side
    flows = [
        HotSpotFlow(0, n - side + 1),
        HotSpotFlow(side, n - side + 1),
        HotSpotFlow(1, n - 1),
    ]
    models = []
    if spec.stochastic:
        models.append(
            StochasticLinkFlaps(
                mtbf_s=spec.mtbf_s,
                mttr_s=spec.mttr_s,
                end_s=schedule.end_time(),
            )
        )
    elif spec.flap_duration_s > 0:
        # Flap the first router hop of the hottest flow's minimal route:
        # it is both the deterministic path and every metapath's MSP 0,
        # so all policies face the same fault and must recover from it.
        primary = host_path(fabric.topology, flows[0].src, flows[0].dst)
        period = schedule.on_s + schedule.off_s
        for burst in range(1, min(3, spec.repetitions)):
            models.append(
                LinkFlap(
                    primary[0],
                    primary[1],
                    at_s=burst * period + spec.flap_offset_s,
                    duration_s=spec.flap_duration_s,
                )
            )
    if spec.ack_loss > 0:
        models.append(AckLoss(drop_probability=spec.ack_loss))
    return flows, models


@dataclass
class FaultScenarioContext:
    """A fully built (possibly mid-run) fault scenario.

    Mirrors :class:`repro.analysis.replay.ScenarioContext`: holds every
    stateful root of a campaign run so the checkpoint layer can snapshot
    the whole object graph in one pickle image and resume it elsewhere.
    """

    policy: str
    spec: FaultCampaignSpec
    until: float
    sim: object
    streams: object
    trace: object
    recorder: object
    policy_obj: object
    fabric: object
    workload: object
    transport: object
    injector: object
    invariants: object = None

    def checkpoint_roots(self) -> dict:
        """Named roots for one-graph snapshotting (shared identities in
        the returned dict survive a single ``pickle.dumps``)."""
        return {
            "kind": "fault",
            "params": {"policy": self.policy, "spec": self.spec.to_dict()},
            "until": self.until,
            "sim": self.sim,
            "streams": self.streams,
            "trace": self.trace,
            "recorder": self.recorder,
            "policy_obj": self.policy_obj,
            "fabric": self.fabric,
            "workload": self.workload,
            "transport": self.transport,
            "injector": self.injector,
        }

    @classmethod
    def from_checkpoint_roots(cls, roots: dict) -> "FaultScenarioContext":
        params = roots["params"]
        spec_data = dict(params["spec"])
        spec_data["reliability"] = ReliabilityConfig(**spec_data["reliability"])
        return cls(
            policy=params["policy"],
            spec=FaultCampaignSpec(**spec_data),
            until=roots["until"],
            sim=roots["sim"],
            streams=roots["streams"],
            trace=roots["trace"],
            recorder=roots["recorder"],
            policy_obj=roots["policy_obj"],
            fabric=roots["fabric"],
            workload=roots["workload"],
            transport=roots["transport"],
            injector=roots["injector"],
        )


def build_fault_scenario(
    policy: str = "pr-drb",
    spec: FaultCampaignSpec | None = None,
    with_invariants: bool = False,
) -> FaultScenarioContext:
    """Construct one policy's campaign run without executing it.

    The construction order is load-bearing: every RNG draw and schedule
    call must happen exactly as the historical ``run_fault_scenario``
    body did, or the event digests shift.
    """
    from repro.analysis.replay import EventTraceDigest
    from repro.faults.injector import FaultInjector
    from repro.faults.recovery import ReliableTransport
    from repro.metrics.recorder import StatsRecorder
    from repro.network.fabric import Fabric
    from repro.routing import make_policy
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.topology.mesh import Mesh2D
    from repro.traffic.bursty import BurstSchedule
    from repro.traffic.generators import HotSpotWorkload

    spec = spec or FaultCampaignSpec()
    streams = RandomStreams(spec.seed)
    sim = Simulator()
    trace = EventTraceDigest().install(sim)
    recorder = StatsRecorder(window_s=2.5e-5)
    policy_obj = make_policy(policy, rng=streams.stream("routing"))
    fabric = Fabric(
        Mesh2D(spec.mesh_side),
        NetworkConfig(),
        policy_obj,
        sim,
        recorder=recorder,
        notification=spec.notification,
    )
    transport = ReliableTransport(fabric, spec.reliability)
    injector = FaultInjector(fabric, rng=streams.stream("faults"))
    invariants = None
    if with_invariants:
        from repro.analysis.invariants import DebugInvariants

        invariants = DebugInvariants(fabric).install()

    schedule = BurstSchedule(
        on_s=1.5e-4, off_s=1.5e-4, repetitions=spec.repetitions
    )
    flows, models = _fault_models(spec, fabric, schedule)
    injector.apply(*models)
    stop = schedule.end_time()
    workload = HotSpotWorkload(
        fabric,
        flows,
        rate_bps=1.2e9,
        schedule=schedule,
        stop_s=stop,
        noise_hosts=range(fabric.topology.num_hosts),
        noise_rate_bps=3e7,
        rng=streams.stream("noise"),
        idle_rate_bps=2e8,
    )
    workload.start()
    # The drain window must outlast the last flap's repair plus the full
    # (capped) backoff ladder, so every pending packet either delivers or
    # is abandoned before the books are read.
    return FaultScenarioContext(
        policy=policy,
        spec=spec,
        until=stop + 2e-3,
        sim=sim,
        streams=streams,
        trace=trace,
        recorder=recorder,
        policy_obj=policy_obj,
        fabric=fabric,
        workload=workload,
        transport=transport,
        injector=injector,
        invariants=invariants,
    )


def finish_fault_scenario(context: FaultScenarioContext) -> FaultRunResult:
    """Digest and report a completed fault scenario."""
    from repro.analysis.replay import digest_metrics
    from repro.faults.metrics import resilience_report

    if context.invariants is not None:
        context.invariants.check()
    return FaultRunResult(
        policy=context.policy,
        seed=context.spec.seed,
        events_digest=context.trace.hexdigest(),
        metrics_digest=digest_metrics(
            context.fabric, context.recorder, context.policy_obj
        ),
        events_executed=context.sim.events_executed,
        report=resilience_report(
            context.fabric, context.transport, context.injector
        ),
    )


def run_fault_scenario(
    policy: str = "pr-drb",
    spec: FaultCampaignSpec | None = None,
    with_invariants: bool = False,
) -> FaultRunResult:
    """One policy's seeded run under the campaign's fault schedule."""
    context = build_fault_scenario(policy, spec, with_invariants)
    context.sim.run(until=context.until)
    return finish_fault_scenario(context)


def _fault_task(policy: str, spec: FaultCampaignSpec):
    from repro.parallel.tasks import SimTask

    return SimTask(
        kind="fault",
        params={"policy": policy, "spec": spec.to_dict()},
        label=f"fault:{policy}/seed{spec.seed}/loss{spec.ack_loss:g}",
    )


def run_fault_campaign(
    policies=DEFAULT_POLICIES,
    spec: FaultCampaignSpec | None = None,
    executor=None,
) -> dict[str, FaultRunResult]:
    """Run the campaign once per policy; same seed and fault schedule.

    ``executor`` (a :class:`repro.parallel.SweepExecutor`) runs the
    policies in worker processes; each cell rebuilds the campaign from
    its seeded spec, so results (including the event/metric digests) are
    bit-identical to the serial loop.
    """
    spec = spec or FaultCampaignSpec()
    if executor is not None and len(policies) > 1:
        payloads = executor.run_strict([_fault_task(p, spec) for p in policies])
        return {
            policy: FaultRunResult.from_dict(payload)
            for policy, payload in zip(policies, payloads)
        }
    return {policy: run_fault_scenario(policy, spec) for policy in policies}


def sweep_ack_loss(
    rates,
    policies=DEFAULT_POLICIES,
    spec: FaultCampaignSpec | None = None,
    executor=None,
) -> dict[float, dict[str, FaultRunResult]]:
    """Fault-rate sweep: one campaign per ACK-loss probability.

    With an ``executor`` the full rate x policy grid is submitted as one
    sweep, so all cells share the worker pool (and the result cache)
    instead of parallelizing only within each rate.
    """
    from dataclasses import replace

    spec = spec or FaultCampaignSpec()
    specs = {rate: replace(spec, ack_loss=rate) for rate in rates}
    if executor is not None and len(rates) * len(policies) > 1:
        grid = [(rate, policy) for rate in rates for policy in policies]
        payloads = executor.run_strict(
            [_fault_task(policy, specs[rate]) for rate, policy in grid]
        )
        results: dict[float, dict[str, FaultRunResult]] = {rate: {} for rate in rates}
        for (rate, policy), payload in zip(grid, payloads):
            results[rate][policy] = FaultRunResult.from_dict(payload)
        return results
    return {
        rate: run_fault_campaign(policies, specs[rate])
        for rate in rates
    }
