"""High-level convenience API.

Wraps the lower-level pieces (topology, fabric, policy, recorder, traffic)
into two calls: :func:`build_network` and :func:`run_synthetic`.  The
experiment harness and the examples are built on these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.metrics.recorder import StatsRecorder
from repro.network.config import NetworkConfig
from repro.network.fabric import DESTINATION_BASED, Fabric
from repro.routing import make_policy
from repro.routing.base import RoutingPolicy
from repro.sim.engine import Simulator
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
) -> NetworkHandle:
    """Assemble simulator + topology + routers + policy + recorder.

    ``topology`` is a :func:`repro.topology.make_topology` spec
    string (``"fattree:4,3"``, ``"mesh:8"``, ...) or a built
    :class:`~repro.topology.base.Topology`.
    """
    if isinstance(topology, str):
        topology = make_topology(topology)
    if isinstance(policy, str):
        policy = make_policy(policy)
    config = config or NetworkConfig()
    sim = Simulator()
    recorder = recorder or StatsRecorder()
    fabric = Fabric(
        topology, config, policy, sim, recorder=recorder, notification=notification
    )
    return NetworkHandle(topology, config, policy, sim, recorder, fabric)


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
    from repro.sim.rng import RandomStreams

    streams = RandomStreams(seed)
    n = handle.topology.num_hosts
    if hosts is None:
        count = 1 << (n.bit_length() - 1)
        hosts = range(count)
    hosts = list(hosts)
    pat_nodes = 1 << (len(hosts).bit_length() - 1)
    pat = make_pattern(pattern, pat_nodes, rng=streams.stream("pattern"))
    schedule = schedule or BurstSchedule(on_s=duration_s, off_s=0.0)
    source = SyntheticTrafficSource(
        handle.fabric,
        pat,
        hosts=hosts[:pat_nodes],
        rate_bps=rate_mbps * 1e6,
        schedule=schedule,
        stop_s=duration_s,
        rng=streams.stream("traffic"),
    )
    source.start()
    handle.sim.run(until=duration_s + drain_s)
    return RunResult(handle=handle, duration_s=duration_s, messages_sent=source.messages_sent)
