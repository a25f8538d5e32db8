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

from dataclasses import asdict, dataclass, field, fields, replace

from repro.network.config import ReliabilityConfig

__all__ = [
    "FaultCampaignSpec",
    "FaultPlan",
    "FaultRunResult",
    "fault_result",
    "run_fault_scenario",
    "run_fault_campaign",
    "sweep_ack_loss",
]

#: the policies the acceptance campaign compares.
DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")


@dataclass(frozen=True)
class FaultPlan:
    """The fault half of a scenario: what breaks, and how the transport
    recovers.

    A :class:`~repro.analysis.replay.ScenarioSpec` carries one as its
    ``faults``; the seed, topology, flows and burst schedule the faults
    act on live in that spec only.
    """

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

    def models(self, topology, flows, schedule) -> list:
        """The fault models against a built topology and its workload."""
        from repro.faults.models import AckLoss, LinkFlap, StochasticLinkFlaps
        from repro.routing.deterministic import host_path

        models = []
        if self.stochastic:
            models.append(StochasticLinkFlaps(
                mtbf_s=self.mtbf_s, mttr_s=self.mttr_s, end_s=schedule.end_time()
            ))
        elif self.flap_duration_s > 0:
            # Flap the first router hop of the hottest flow's minimal route:
            # it is both the deterministic path and every metapath's MSP 0,
            # so all policies face the same fault and must recover from it.
            primary = host_path(topology, flows[0].src, flows[0].dst)
            period = schedule.on_s + schedule.off_s
            for burst in range(1, min(3, schedule.repetitions)):
                models.append(LinkFlap(
                    primary[0], primary[1],
                    at_s=burst * period + self.flap_offset_s,
                    duration_s=self.flap_duration_s,
                ))
        if self.ack_loss > 0:
            models.append(AckLoss(drop_probability=self.ack_loss))
        return models


@dataclass(frozen=True)
class FaultCampaignSpec(FaultPlan):
    """Everything that defines one campaign (fully seeded): a
    :class:`FaultPlan` plus the replay scenario it runs on."""

    seed: int = 0
    mesh_side: int = 4
    repetitions: int = 3
    notification: str = "router"

    def to_dict(self) -> dict:
        """JSON form: the ``spec`` of a ``fault`` task's params, which
        :func:`repro.analysis.replay.scenario_spec` parses back."""
        return asdict(self)

    def scenario(self, policy: str):
        """One policy's run: the replay scenario under this plan's faults.

        The drain window must outlast the last flap's repair plus the
        full (capped) backoff ladder, so every pending packet either
        delivers or is abandoned before the books are read.
        """
        from repro.analysis.replay import replay_spec

        return replace(
            replay_spec(policy, self.seed, self.mesh_side, self.repetitions),
            notification=self.notification,
            drain_s=2e-3,
            faults=FaultPlan(**{f.name: getattr(self, f.name) for f in fields(FaultPlan)}),
        )


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


def fault_result(scenario) -> FaultRunResult:
    """Digest and report a finished fault scenario."""
    from repro.analysis.replay import finish
    from repro.faults.metrics import resilience_report

    digest = finish(scenario)
    return FaultRunResult(
        digest.policy, digest.seed, digest.events, digest.metrics, digest.events_executed,
        report=resilience_report(scenario.fabric, scenario.transport, scenario.injector),
    )


def run_fault_scenario(
    policy: str = "pr-drb",
    spec: FaultCampaignSpec | None = None,
    with_invariants: bool = False,
) -> FaultRunResult:
    """One policy's seeded run under the campaign's fault schedule."""
    from repro.analysis.replay import build

    spec = (spec or FaultCampaignSpec()).scenario(policy)
    scenario = build(spec, digest=True, with_invariants=with_invariants)
    scenario.sim.run(until=scenario.until)
    return fault_result(scenario)


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
