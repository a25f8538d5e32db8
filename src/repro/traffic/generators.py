"""Rate-controlled traffic injection processes (§4.1.1, §4.5-4.6).

:class:`SyntheticTrafficSource` drives a set of hosts at a configured
per-node rate (e.g. the paper's 400/600 Mbps) following a traffic pattern
and a bursty envelope.  :class:`HotSpotWorkload` reproduces the specific
hot-spot scheme of §4.5: a handful of flows whose minimal paths share
trajectory segments, plus uniform background noise from the remaining
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.network.fabric import Fabric
from repro.sim.rng import seeded_generator
from repro.traffic.bursty import BurstSchedule
from repro.traffic.patterns import TrafficPattern


class SyntheticTrafficSource:
    """Injects pattern traffic from ``hosts`` at ``rate_bps`` per node."""

    def __init__(
        self,
        fabric: Fabric,
        pattern: TrafficPattern,
        hosts: Sequence[int],
        rate_bps: float,
        schedule: BurstSchedule,
        stop_s: float,
        rng: Optional[np.random.Generator] = None,
        message_bytes: Optional[int] = None,
        idle_rate_bps: float = 0.0,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.fabric = fabric
        self.pattern = pattern
        self.hosts = list(hosts)
        self.rate_bps = rate_bps
        self.schedule = schedule
        self.stop_s = stop_s
        self.rng = rng
        self.message_bytes = message_bytes or fabric.config.packet_size_bytes
        #: mean inter-injection gap achieving the per-node offered load.
        self.interval_s = self.message_bytes * 8 / rate_bps
        #: Fig. 2.6a: outside bursts the nodes keep a low uniform load;
        #: 0 disables the idle phase entirely.
        self.idle_rate_bps = idle_rate_bps
        self.idle_interval_s = (
            self.message_bytes * 8 / idle_rate_bps if idle_rate_bps > 0 else None
        )
        self.messages_sent = 0

    def start(self) -> None:
        """Arm the injection process for every participating host.

        Hosts start with small deterministic phase offsets so the very
        first packets do not all collide on one simulator timestamp.
        """
        for i, host in enumerate(self.hosts):
            offset = (i / max(1, len(self.hosts))) * self.interval_s
            self.fabric.sim.schedule(offset, self._inject, host)

    def _inject(self, host: int) -> None:
        now = self.fabric.sim.now
        if now >= self.stop_s:
            return
        if not self.schedule.is_on(now):
            resume = self.schedule.next_on(now)
            if self.idle_interval_s is not None:
                # Low-load phase between bursts: keep trickling to the
                # pattern destination so source nodes still receive ACK
                # feedback and close their alternative paths.
                dst = self.pattern.destination(host)
                if dst != host:
                    self.fabric.send(host, dst, self.message_bytes)
                    self.messages_sent += 1
                next_t = now + self.idle_interval_s
                if resume is not None:
                    next_t = min(next_t, max(resume, now))
                if next_t < self.stop_s:
                    self.fabric.sim.schedule_at(next_t, self._inject, host)
                return
            if resume is None or resume >= self.stop_s:
                return
            self.fabric.sim.schedule_at(resume, self._inject, host)
            return
        dst = self.pattern.destination(host)
        if dst != host:
            self.fabric.send(host, dst, self.message_bytes)
            self.messages_sent += 1
        self.fabric.sim.schedule(self.interval_s, self._inject, host)


@dataclass
class HotSpotFlow:
    """One aggressor flow of the hot-spot specific pattern."""

    src: int
    dst: int


class HotSpotWorkload:
    """§4.5 specific pattern: colliding flows + uniform background noise.

    ``flows`` are chosen so their deterministic minimal paths share
    trajectory segments (the congestion area); all other ``noise_hosts``
    inject uniform traffic at a lower rate.
    """

    def __init__(
        self,
        fabric: Fabric,
        flows: Sequence[HotSpotFlow],
        rate_bps: float,
        schedule: BurstSchedule,
        stop_s: float,
        noise_hosts: Sequence[int] = (),
        noise_rate_bps: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        message_bytes: Optional[int] = None,
        idle_rate_bps: float = 0.0,
    ) -> None:
        self.fabric = fabric
        self.flows = list(flows)
        self.idle_rate_bps = idle_rate_bps
        self.idle_interval_s = (
            (message_bytes or fabric.config.packet_size_bytes) * 8 / idle_rate_bps
            if idle_rate_bps > 0
            else None
        )
        self.rate_bps = rate_bps
        self.schedule = schedule
        self.stop_s = stop_s
        self.noise_hosts = [
            h for h in noise_hosts if all(h != f.src for f in self.flows)
        ]
        self.noise_rate_bps = noise_rate_bps
        self.rng = rng if rng is not None else seeded_generator(0)
        self.message_bytes = message_bytes or fabric.config.packet_size_bytes
        self.interval_s = self.message_bytes * 8 / rate_bps
        self.messages_sent = 0

    def start(self) -> None:
        for i, flow in enumerate(self.flows):
            offset = (i / max(1, len(self.flows))) * self.interval_s
            self.fabric.sim.schedule(offset, self._inject_flow, flow)
        if self.noise_rate_bps > 0:
            noise_interval = self.message_bytes * 8 / self.noise_rate_bps
            for i, host in enumerate(self.noise_hosts):
                offset = (i / max(1, len(self.noise_hosts))) * noise_interval
                self.fabric.sim.schedule(offset, self._inject_noise, host, noise_interval)

    def _inject_flow(self, flow: HotSpotFlow) -> None:
        now = self.fabric.sim.now
        if now >= self.stop_s:
            return
        if not self.schedule.is_on(now):
            resume = self.schedule.next_on(now)
            if self.idle_interval_s is not None:
                # Fig. 2.6a low-load phase: trickle so ACK feedback keeps
                # flowing and sources close their paths between bursts.
                self.fabric.send(flow.src, flow.dst, self.message_bytes)
                self.messages_sent += 1
                next_t = now + self.idle_interval_s
                if resume is not None:
                    next_t = min(next_t, max(resume, now))
                if next_t < self.stop_s:
                    self.fabric.sim.schedule_at(next_t, self._inject_flow, flow)
                return
            if resume is None or resume >= self.stop_s:
                return
            self.fabric.sim.schedule_at(resume, self._inject_flow, flow)
            return
        self.fabric.send(flow.src, flow.dst, self.message_bytes)
        self.messages_sent += 1
        self.fabric.sim.schedule(self.interval_s, self._inject_flow, flow)

    def _inject_noise(self, host: int, interval: float) -> None:
        now = self.fabric.sim.now
        if now >= self.stop_s:
            return
        n = self.fabric.topology.num_hosts
        dst = int(self.rng.integers(n - 1))
        dst = dst if dst < host else dst + 1
        self.fabric.send(host, dst, self.message_bytes)
        self.fabric.sim.schedule(interval, self._inject_noise, host, interval)
