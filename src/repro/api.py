"""High-level convenience API.

Wraps the lower-level pieces (topology, fabric, policy, recorder, traffic)
into two calls: :func:`build_network` and :func:`run_synthetic`.
:func:`build_network` is the one place a simulator and a fabric are
assembled: the scenario spine (:func:`repro.analysis.replay.build`),
``repro replay`` and the examples all build through it, and
:func:`start_pattern` is the one wiring of permutation traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.metrics.recorder import StatsRecorder
from repro.network.config import NetworkConfig
from repro.network.fabric import DESTINATION_BASED, Fabric
from repro.routing import make_policy
from repro.routing.base import RoutingPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology import Topology, make_topology
from repro.traffic.bursty import BurstSchedule
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern


@dataclass
class NetworkHandle:
    """A ready-to-run simulated network."""

    topology: Topology
    config: NetworkConfig
    policy: RoutingPolicy
    sim: Simulator
    recorder: StatsRecorder
    fabric: Fabric


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    handle: NetworkHandle
    duration_s: float
    messages_sent: int = 0

    @property
    def recorder(self) -> StatsRecorder:
        return self.handle.recorder

    @property
    def mean_latency_s(self) -> float:
        return self.recorder.mean_latency_s

    @property
    def global_average_latency_s(self) -> float:
        return self.recorder.global_average_latency_s

    def summary(self) -> dict:
        out = self.recorder.summary()
        out.update(self.handle.policy.stats())
        out["accepted_ratio"] = self.handle.fabric.accepted_ratio()
        out["duration_s"] = self.duration_s
        return out


def build_network(
    topology: str | Topology = "mesh:8",
    policy: str | RoutingPolicy = "pr-drb",
    config: Optional[NetworkConfig] = None,
    notification: str = DESTINATION_BASED,
    recorder: Optional[StatsRecorder] = None,
    rng: Optional[np.random.Generator] = None,
) -> NetworkHandle:
    """Assemble simulator + topology + routers + policy + recorder.

    ``topology`` is a :func:`repro.topology.make_topology` spec
    string (``"fattree:4,3"``, ``"mesh:8"``, ...) or a built
    :class:`~repro.topology.base.Topology`.  A policy given by name
    draws from ``rng`` (a seeded stream such as
    ``RandomStreams(seed).stream("routing")``); without one it keeps its
    config's fixed seed.  Building schedules no event.
    """
    if isinstance(topology, str):
        topology = make_topology(topology)
    if isinstance(policy, str):
        policy = make_policy(policy, rng=rng)
    config = config or NetworkConfig()
    sim = Simulator()
    recorder = recorder or StatsRecorder()
    fabric = Fabric(
        topology, config, policy, sim, recorder=recorder, notification=notification
    )
    return NetworkHandle(topology, config, policy, sim, recorder, fabric)


def start_pattern(
    fabric: Fabric,
    pattern: str,
    hosts: Sequence[int],
    rate_bps: float,
    schedule: BurstSchedule,
    stop_s: float,
    streams: RandomStreams,
    idle_rate_bps: float = 0.0,
) -> SyntheticTrafficSource:
    """Start ``pattern`` traffic among ``hosts`` (a power-of-two count).

    The pattern draws from ``streams``' ``pattern`` stream and the
    injection times from its ``traffic`` stream; sources stop at
    ``stop_s``.
    """
    source = SyntheticTrafficSource(
        fabric,
        make_pattern(pattern, len(hosts), rng=streams.stream("pattern")),
        hosts=hosts,
        rate_bps=rate_bps,
        schedule=schedule,
        stop_s=stop_s,
        rng=streams.stream("traffic"),
        idle_rate_bps=idle_rate_bps,
    )
    source.start()
    return source


def run_synthetic(
    handle: NetworkHandle,
    pattern: str = "perfect-shuffle",
    rate_mbps: float = 400.0,
    duration_s: float = 1e-3,
    hosts: Optional[Sequence[int]] = None,
    schedule: Optional[BurstSchedule] = None,
    drain_s: float = 5e-4,
    seed: int = 0,
) -> RunResult:
    """Drive ``handle`` with a synthetic pattern and collect metrics.

    ``hosts`` defaults to all hosts when the topology size is a power of
    two, else the largest power-of-two prefix (permutations are defined on
    power-of-two node counts).
    """
    if hosts is None:
        hosts = range(1 << (handle.topology.num_hosts.bit_length() - 1))
    hosts = list(hosts)
    source = start_pattern(
        handle.fabric,
        pattern,
        hosts[: 1 << (len(hosts).bit_length() - 1)],
        rate_mbps * 1e6,
        schedule or BurstSchedule(on_s=duration_s, off_s=0.0),
        duration_s,
        RandomStreams(seed),
    )
    handle.sim.run(until=duration_s + drain_s)
    return RunResult(handle=handle, duration_s=duration_s, messages_sent=source.messages_sent)
