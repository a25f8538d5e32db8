"""PR-DRB router model (§3.3.2, Fig. 3.19; node model §4.1.2).

Each router owns one :class:`OutputPort` per outgoing link.  A port is a
FIFO server: a packet arriving at time ``t`` waits ``max(0, busy_until -
t)`` (the paper's *contention latency*, accumulated into the packet by the
Latency Update module), then holds the link for its serialization time.

The router integrates the paper's four modules:

* **LU** (Latency Update) — per-packet queue-wait accumulation;
* **HDP** (Header Detection & Processing) — advancing ``Packet.hop``
  through the source route (the multi-header ``Header_id`` mechanism);
* **CFD** (Contending Flows Detection) — when a packet's wait exceeds the
  router threshold, snapshot the flows sharing the congested queue and
  attach the dominant ones to the packet's predictive header;
* **GPA** (Generation of Predictive ACK) — under router-based notification
  (§3.4.1) the CFD result is instead handed to a fabric callback that
  injects predictive ACKs straight to the contending sources.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional

from repro.network.config import NetworkConfig
from repro.network.packet import DATA, ContendingFlow, Packet

#: seconds a port's CFD stays quiet after recording a congestion episode
#: ("notification is performed only once per buffer's access", §3.2.7).
CFD_COOLDOWN_S = 20e-6


@dataclass(slots=True)
class OutputPort:
    """FIFO link server plus the statistics the evaluation plots.

    ``queue`` holds ``(depart_time, flow, size_bytes)`` tuples for packets
    that have been accepted but not yet fully transmitted; the CFD module
    sums it per flow when it fires to identify contending flows.
    """

    router: int
    target_kind: str  # "router" or "host"
    target: int
    #: absolute time at which the link becomes free.
    busy_until: float = 0.0
    #: in-flight/queued packets, for CFD inspection.
    queue: deque = field(default_factory=deque)
    #: bytes currently queued (buffer-occupancy bookkeeping).
    occupancy_bytes: int = 0
    #: ``queue`` as of the CFD module's last read, and its queued bytes
    #: per flow; only a read updates them (:meth:`Router._contending_flows`).
    cfd_seen: list = field(default_factory=list)
    cfd_shares: dict = field(default_factory=dict)
    #: cumulative traffic statistics.
    packets: int = 0
    bytes: int = 0
    #: count of packets that found the buffer logically full.
    overflows: int = 0
    #: count of On/Off flow-control stalls (packets made to wait upstream).
    stalls: int = 0
    #: CFD quiet-period end.
    cfd_quiet_until: float = 0.0


class Router:
    """A network node executing the PR-DRB forwarding pipeline."""

    def __init__(
        self,
        router_id: int,
        config: NetworkConfig,
        congestion_handler: Optional[Callable] = None,
    ) -> None:
        self.router_id = router_id
        self.config = config
        #: fabric-installed hook: fn(router, port, packet, wait_s, flows, now)
        #: -> bool, returning True when it handled notification itself
        #: (router-based GPA); False leaves the destination-based path.
        self.congestion_handler = congestion_handler
        self.ports: dict[tuple[str, int], OutputPort] = {}
        # Int-keyed views of ``ports`` (maintained by ``port_to``): the
        # per-hop path avoids building and hashing a ("router", id) tuple.
        self.router_ports: dict[int, OutputPort] = {}
        self.host_ports: dict[int, OutputPort] = {}
        # Hot-path constants hoisted from the config (all are fixed after
        # NetworkConfig.__post_init__; only max_contending_flows and
        # cfd_min_share are read live because tests tune them per-port).
        self._routing_delay_s = config.routing_delay_s
        self._threshold_s = config.router_threshold_s
        self._buffer_size = config.buffer_size_bytes
        self._cut_through = config.cut_through
        self._ct_header_bytes = config.cut_through_header_bytes
        self._tx_time_s = config.tx_time_s
        # Shared with the config's serialization memo: misses fall back to
        # config.tx_time_s, which fills this same dict.
        self._tx_cache = config._tx_cache
        # Aggregate, per-router contention statistics (latency maps); the
        # forwarded counts are sums over the ports.
        self.total_wait_s = 0.0
        #: optional metrics hook: fn(router_id, now, wait_s)
        self.wait_observer: Optional[Callable[[int, float, float], None]] = None
        #: optional :class:`repro.obs.tracer.Tracer`; only the (rare) CFD
        #: path emits, so the per-hop inner loop stays untouched.
        self.tracer = None

    # ------------------------------------------------------------------
    def port_to(self, kind: str, target: int) -> OutputPort:
        """Get or create the output port toward ``(kind, target)``."""
        key = (kind, target)
        port = self.ports.get(key)
        if port is None:
            port = OutputPort(self.router_id, kind, target)
            self.ports[key] = port
            if kind == "router":
                self.router_ports[target] = port
            else:
                self.host_ports[target] = port
        return port

    # ------------------------------------------------------------------
    def forward(self, packet: Packet, port: OutputPort, now: float) -> float:
        """Serve ``packet`` through ``port``; return its hand-off time.

        Applies LU (latency accumulation), CFD (contending-flow capture)
        and the buffer occupancy check.  The caller (fabric) schedules the
        next-hop arrival at the returned time plus the link delay.  Under
        store-and-forward timing the hand-off is the packet tail's
        departure; under virtual cut-through it is the header's, so
        uncongested hops pipeline while the link still serializes the
        whole body (``busy_until`` always advances by the full
        transmission time).

        The bodies of :meth:`occupy` and :meth:`account` are inlined here
        (this is the per-packet-hop inner loop); the standalone methods
        remain the entry points for the VC dispatcher and must stay
        behaviorally identical to this sequence.
        """
        ready = now + self._routing_delay_s
        busy = port.busy_until
        depart_start = busy if busy > ready else ready
        wait = depart_start - ready
        size = packet.size_bytes
        tx = self._tx_cache.get(size)
        if tx is None:
            tx = self.config.tx_time_s(size)
        depart = depart_start + tx

        # --- occupy (inlined) ---
        queue = port.queue
        if queue and queue[0][0] <= now:
            popleft = queue.popleft
            while queue and queue[0][0] <= now:
                port.occupancy_bytes -= popleft()[2]
        if port.occupancy_bytes + size > self._buffer_size:
            port.overflows += 1
        flow = packet._flow
        if flow is None:
            flow = packet._flow = ContendingFlow(packet.src, packet.dst)
        queue.append((depart, flow, size))
        port.occupancy_bytes += size
        # depart_start >= busy and tx >= 0, so this never moves it back.
        port.busy_until = depart

        # --- account (inlined) ---
        packet.path_latency += wait
        port.packets += 1
        port.bytes += size
        self.total_wait_s += wait
        if self.wait_observer is not None:
            self.wait_observer(self.router_id, now, wait)
        if (
            wait > self._threshold_s
            and packet.kind == DATA
            and now >= port.cfd_quiet_until
        ):
            self._cfd(packet, port, wait, now)

        if self._cut_through and port.target_kind == "router":
            # Hand the header to the next router early; final delivery to
            # a host is still timed at the packet tail, so end-to-end
            # latency counts one full serialization.
            header_tx = self._tx_time_s(
                min(self._ct_header_bytes, packet.size_bytes)
            )
            return depart_start + header_tx
        return depart

    # ------------------------------------------------------------------
    def occupy(self, packet: Packet, port: OutputPort, depart: float, now: float) -> None:
        """Buffer/link occupancy bookkeeping for a packet departing at
        ``depart`` (virtual cut-through buffers whenever the link is
        busy, §2.1.2)."""
        queue = port.queue
        if queue and queue[0][0] <= now:
            self._purge(port, now)
        size = packet.size_bytes
        if port.occupancy_bytes + size > self._buffer_size:
            port.overflows += 1
        flow = packet.flow()
        queue.append((depart, flow, size))
        port.occupancy_bytes += size
        if depart > port.busy_until:
            port.busy_until = depart

    def account(self, packet: Packet, port: OutputPort, wait: float, now: float) -> None:
        """LU + CFD: record contention latency and detect congestion.

        Shared by the immediate (FIFO) forwarding path and the
        virtual-channel dispatcher.
        """
        size = packet.size_bytes
        packet.path_latency += wait
        port.packets += 1
        port.bytes += size
        self.total_wait_s += wait
        if self.wait_observer is not None:
            self.wait_observer(self.router_id, now, wait)

        # CFD: only data packets participate in congestion detection.
        if (
            wait > self._threshold_s
            and packet.kind == DATA
            and now >= port.cfd_quiet_until
        ):
            self._cfd(packet, port, wait, now)

    def _cfd(self, packet: Packet, port: OutputPort, wait: float, now: float) -> None:
        """Record a congestion episode: snapshot contending flows and
        notify (router-based GPA or the packet's predictive header)."""
        flows = self._contending_flows(port, packet)
        port.cfd_quiet_until = now + CFD_COOLDOWN_S
        handled = False
        if self.congestion_handler is not None:
            handled = bool(
                self.congestion_handler(self, port, packet, wait, flows, now)
            )
        if handled:
            # Router-based GPA already notified sources; flag the packet
            # so the destination sends a latency-only ACK (§3.4.2).
            packet.predictive_bit = True
        else:
            # Destination-based: ride the predictive header to the sink.
            packet.contending = flows
            packet.reporting_router = self.router_id
        tracer = self.tracer
        if tracer is not None:
            track = ("router", self.router_id)
            tracer.emit(
                now,
                "router.contention",
                track,
                args={
                    "wait_s": wait,
                    "flows": len(flows),
                    "occupancy_bytes": port.occupancy_bytes,
                    "port": f"{port.target_kind}:{port.target}",
                    "handled": handled,
                },
            )
            tracer.emit(
                now,
                "router.queue_bytes",
                track,
                ph="C",
                args={"value": port.occupancy_bytes},
            )

    # ------------------------------------------------------------------
    # On/Off flow control (§2.1.3)
    # ------------------------------------------------------------------
    def buffer_available(self, port: OutputPort, size_bytes: int, now: float) -> bool:
        """True when the output buffer can admit ``size_bytes`` now."""
        self._purge(port, now)
        return port.occupancy_bytes + size_bytes <= self._buffer_size

    def next_drain_time(self, port: OutputPort, now: float) -> float:
        """Earliest time at which buffer space frees (strictly > now)."""
        if port.queue:
            head = port.queue[0][0]
            if head > now:
                return head
        return now + self.config.packet_tx_time_s

    # ------------------------------------------------------------------
    def _purge(self, port: OutputPort, now: float) -> None:
        queue = port.queue
        while queue and queue[0][0] <= now:
            port.occupancy_bytes -= queue.popleft()[2]

    def _contending_flows(self, port: OutputPort, packet: Packet) -> list[ContendingFlow]:
        """Dominant flows currently sharing ``port``'s queue (§3.2.7).

        Sums queued bytes per flow over ``port.queue``, which both callers
        have just purged at ``now`` and appended the suffering packet to.
        Flows holding less than ``cfd_min_share`` of the queued bytes are
        dropped, the rest are ranked by bytes (their contribution to the
        congestion), ties broken by flow, and at most
        ``max_contending_flows`` are reported; when none is left, the
        suffering packet's own flow is.  The ranking key is a total order,
        so the result does not depend on queue order.

        The sums carry over from the port's previous read: the queue is
        FIFO, so the entries purged since then lead ``port.cfd_seen`` and
        the entries appended since trail ``port.queue``.  A read costs the
        queue's turnover since the last one plus a C-level copy, not a
        Python pass over a queue that a saturated port holds by the
        thousand.
        """
        queue, shares = port.queue, port.cfd_shares
        head = queue[0] if queue else None
        gone = 0
        for entry in port.cfd_seen:
            if entry is head:
                break
            _, flow, size = entry
            left = shares[flow] - size
            if left:
                shares[flow] = left
            else:
                del shares[flow]
            gone += 1
        appended = len(queue) - len(port.cfd_seen) + gone
        for _, flow, size in islice(reversed(queue), appended):
            shares[flow] = shares.get(flow, 0) + size
        port.cfd_seen = list(queue)
        if packet.flow() not in shares:
            # Rare: the sufferer already fully drained from the queue.
            # Work on a copy so the carried sums stay those of the queue.
            shares = dict(shares)
            shares[packet.flow()] = packet.size_bytes
        total = sum(shares.values())
        min_bytes = total * self.config.cfd_min_share
        ranked = sorted(
            ((f, b) for f, b in shares.items() if b >= min_bytes),
            key=lambda kv: (-kv[1], kv[0]),
        )
        limit = self.config.max_contending_flows
        flows = [flow for flow, _ in ranked[:limit]]
        if not flows:  # degenerate: everyone tiny — report the sufferer
            flows = [packet.flow()]
        return flows

    # ------------------------------------------------------------------
    @property
    def packets_forwarded(self) -> int:
        """Packets served through any port of this router."""
        return sum(port.packets for port in self.ports.values())

    @property
    def bytes_forwarded(self) -> int:
        """Bytes served through any port of this router."""
        return sum(port.bytes for port in self.ports.values())

    @property
    def mean_contention_latency_s(self) -> float:
        """Average buffer wait across all forwarded packets (latency map z)."""
        packets = self.packets_forwarded
        return self.total_wait_s / packets if packets else 0.0
