"""Virtual-channel link arbitration (§2.1.2, §3.2.8).

The paper's deadlock-freedom argument assigns each MSP segment its own
*virtual network* sharing the physical links.  At packet level, the
observable effect of virtual channels is the link **service discipline**:
instead of one FIFO per output port, packets wait in per-VC queues and a
round-robin arbiter interleaves them onto the link — so a long burst on
one flow cannot head-of-line-block other flows sharing the port.

:class:`VCDispatcher` implements that discipline for a fabric when
``NetworkConfig.virtual_channels > 1``.  Packets hash to a VC by flow
(src + dst), approximating the per-virtual-network separation; the
arbiter serves non-empty VCs cyclically, one full packet at a time (VCT
granularity).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.network.packet import Packet
from repro.network.router import OutputPort, Router


@dataclass(slots=True)
class _PortVCState:
    """Arbitration state for one output port."""

    queues: list[deque] = field(default_factory=list)
    rr_next: int = 0
    link_free_at: float = 0.0
    dispatch_scheduled: bool = False

    def pending(self) -> int:
        return sum(len(q) for q in self.queues)


class VCDispatcher:
    """Round-robin virtual-channel arbiter for every port of a fabric."""

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        self.num_vcs = fabric.config.virtual_channels
        if self.num_vcs < 2:
            raise ValueError("VCDispatcher needs virtual_channels >= 2")
        self._states: dict[tuple[int, str, int], _PortVCState] = {}

    # ------------------------------------------------------------------
    def _state(self, router: Router, port: OutputPort) -> _PortVCState:
        key = (router.router_id, port.target_kind, port.target)
        state = self._states.get(key)
        if state is None:
            state = _PortVCState(queues=[deque() for _ in range(self.num_vcs)])
            self._states[key] = state
        return state

    def vc_of(self, packet: Packet) -> int:
        """Flow-stable virtual-channel assignment."""
        return (packet.src * 31 + packet.dst) % self.num_vcs

    # ------------------------------------------------------------------
    def submit(
        self,
        router: Router,
        port: OutputPort,
        packet: Packet,
        now: float,
        on_serve: Callable[[Packet, float], None],
    ) -> None:
        """Queue ``packet`` on its VC; ``on_serve(packet, depart)`` fires
        when the arbiter has finished serializing it onto the link."""
        state = self._state(router, port)
        ready = now + self.fabric.config.routing_delay_s
        state.queues[self.vc_of(packet)].append((packet, ready, on_serve))
        self._kick(router, port, state, ready)

    def _kick(self, router: Router, port: OutputPort, state: _PortVCState, t: float) -> None:
        if state.dispatch_scheduled:
            return
        state.dispatch_scheduled = True
        when = max(t, state.link_free_at, self.fabric.sim.now)
        self.fabric.sim.schedule_at(when, self._dispatch, router, port, state)

    # ------------------------------------------------------------------
    def _dispatch(self, router: Router, port: OutputPort, state: _PortVCState) -> None:
        state.dispatch_scheduled = False
        now = self.fabric.sim.now
        if now < state.link_free_at:
            self._kick(router, port, state, state.link_free_at)
            return
        entry = self._next_ready(state, now)
        if entry is None:
            earliest = self._earliest_ready(state)
            if earliest is not None:
                self._kick(router, port, state, earliest)
            return
        packet, ready, on_serve = entry
        wait = now - ready
        tx = self.fabric.config.tx_time_s(packet.size_bytes)
        depart = now + tx
        state.link_free_at = depart
        router.occupy(packet, port, depart, now)
        router.account(packet, port, wait, now)
        on_serve(packet, depart)
        if state.pending():
            self._kick(router, port, state, depart)

    def _next_ready(self, state: _PortVCState, now: float):
        """Pop the next ready packet, scanning VCs round-robin."""
        n = self.num_vcs
        for offset in range(n):
            idx = (state.rr_next + offset) % n
            queue = state.queues[idx]
            if queue and queue[0][1] <= now:
                state.rr_next = (idx + 1) % n
                return queue.popleft()
        return None

    def _earliest_ready(self, state: _PortVCState):
        times = [q[0][1] for q in state.queues if q]
        return min(times) if times else None
