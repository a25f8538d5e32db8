"""The fabric: topology + routers + processing nodes + routing policy.

:class:`Fabric` is the top-level simulation object.  It owns one
:class:`~repro.network.router.Router` per topology router, one
:class:`~repro.network.nic.ProcessingNode` per host, and a routing policy.
Its event chain implements the paper's standard packet-delivery process
(Fig. 3.3): source injection -> per-router forwarding (Fig. 3.5 monitoring)
-> destination delivery -> ACK notification back to the source -> policy
learning (metapath configuration, Fig. 3.10).

Notification mode selects between the two design alternatives:
``"destination"`` (§3.2.2: contending flows ride the data packet and come
back in the destination ACK) and ``"router"`` (§3.4.1: the congested router
injects predictive ACKs straight to the dominant sources; the destination
then returns a latency-only ACK).
"""

from __future__ import annotations

import heapq
import math

from repro.network.config import NetworkConfig
from repro.network.nic import ProcessingNode
from repro.network.packet import (
    ACK,
    DATA,
    PREDICTIVE_ACK,
    ContendingFlow,
    Packet,
    make_ack,
    make_predictive_ack,
)
from repro.network.router import OutputPort, Router
from repro.routing.base import RoutingPolicy
from repro.sim.engine import ARGS, CANCELLED, FN, Simulator
from repro.topology.base import Topology

DESTINATION_BASED = "destination"
ROUTER_BASED = "router"

#: drop-accounting reasons (``Fabric.dropped_by_reason`` keys).
DROP_LINK_DOWN = "link_down"
DROP_NO_ROUTE = "no_route"
DROP_ACK_LOSS = "ack_loss"
DROP_DUPLICATE = "duplicate"


class QuiesceTimeout(RuntimeError):
    """`Fabric.quiesce` deadline passed with traffic still in flight."""


class _IdlePort:
    """Sentinel for ports that have never been used (always free)."""

    busy_until = 0.0


_IDLE = _IdlePort()


class Fabric:
    """A complete simulated interconnection network."""

    def __init__(
        self,
        topology: Topology,
        config: NetworkConfig,
        policy: RoutingPolicy,
        sim: Simulator,
        recorder=None,
        notification: str = DESTINATION_BASED,
    ) -> None:
        if notification not in (DESTINATION_BASED, ROUTER_BASED):
            raise ValueError(f"unknown notification mode {notification!r}")
        self.topology = topology
        topology.enable_route_cache()
        self.config = config
        self.policy = policy
        self.sim = sim
        self.recorder = recorder
        self.notification = notification
        #: optional :class:`repro.obs.tracer.Tracer` (installed by
        #: :func:`repro.obs.instrument`); every emit below guards on it.
        self.tracer = None
        # Hot-path constants (fixed after construction; see
        # docs/performance.md).  flow_control and the policy's per_hop
        # flag never change once the fabric exists.
        self._link_delay_s = config.link_delay_s
        self._packet_size = config.packet_size_bytes
        self._onoff = config.flow_control == "onoff"
        self._per_hop = bool(getattr(policy, "per_hop", False))
        # Bound once: ``_arrive`` pushes its successor events itself, and
        # the event digest reads these callbacks' ``__qualname__``.
        self._arrive_next = self._arrive
        self._deliver_next = self._deliver
        handler = self._router_congestion if notification == ROUTER_BASED else None
        self.routers = [
            Router(r, config, congestion_handler=handler)
            for r in range(topology.num_routers)
        ]
        # Optional virtual-channel arbitration (§3.2.8).
        self._vc = None
        if config.virtual_channels > 1:
            from repro.network.vc import VCDispatcher

            self._vc = VCDispatcher(self)
        self.nodes = [ProcessingNode(h, config) for h in range(topology.num_hosts)]
        # Aggregate accounting (offered vs accepted load, §4.2 throughput).
        self.data_packets_injected = 0
        self.data_packets_delivered = 0
        self.data_bytes_delivered = 0
        self.acks_delivered = 0
        self.predictive_acks_delivered = 0
        # Fault injection (the FT-DRB capability the router design shares,
        # §3.3.2): failed router-to-router links, degraded links with
        # elevated propagation delay, and reasoned drop accounting.
        self.failed_links: set[frozenset] = set()
        self.degraded_links: dict[frozenset, float] = {}
        self.dropped_by_reason: dict[str, int] = {}
        #: optional hook consulted before any packet enters the network:
        #: ``fn(packet, now) -> None | ("drop", reason) | ("delay", s)``.
        #: Installed by :class:`repro.faults.injector.FaultInjector` to
        #: model ACK/notification loss and delay.
        self.fault_filter = None
        #: optional end-to-end recovery protocol
        #: (:class:`repro.faults.recovery.ReliableTransport`).
        self.transport = None
        self._update_special()
        policy.attach(self)
        if recorder is not None:
            recorder.attach(self)

    # ------------------------------------------------------------------
    # Message / packet injection
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        mpi_type: int = -1,
        mpi_seq: int = -1,
    ) -> int:
        """Inject a message; returns the number of packets created.

        Messages larger than a packet are fragmented; one metapath
        selection is made per message so fragments share a route and
        arrive in order (the paper's ``MPI_sequence`` ordering).  A
        message under one byte is refused: no packet could carry it.
        """
        if size_bytes < 1:
            raise ValueError(f"'size_bytes' must be >= 1, got {size_bytes}")
        if src == dst:
            # Loopback: deliver immediately without touching the network.
            node = self.nodes[dst]
            packet = Packet(
                src=src, dst=dst, size_bytes=size_bytes,
                created_at=self.sim.now, mpi_type=mpi_type, mpi_seq=mpi_seq,
            )
            node.receive(packet, self.sim.now)
            return 0
        now = self.sim.now
        path, msp_index = self.policy.select_path(src, dst, size_bytes, now)
        packet_size = self._packet_size
        fragments = max(1, math.ceil(size_bytes / packet_size))
        remaining = size_bytes
        for i in range(fragments):
            chunk = min(packet_size, remaining)
            remaining -= chunk
            packet = Packet(
                src=src,
                dst=dst,
                size_bytes=chunk,
                kind=DATA,
                path=path,
                created_at=now,
                msp_index=msp_index,
                mpi_type=mpi_type,
                mpi_seq=mpi_seq,
                final=(i == fragments - 1),
                fragments=fragments,
            )
            self.inject(packet)
        return fragments

    def inject(self, packet: Packet) -> None:
        """Serialize ``packet`` out of its source host onto the first router.

        The fault filter (when installed) may drop or delay the packet at
        the injection point — this is how ACK/notification loss and delay
        faults are modelled without touching the event chain itself.
        """
        if self.fault_filter is not None:
            action = self.fault_filter(packet, self.sim.now)
            if action is not None:
                kind, value = action
                if kind == "drop":
                    self._drop(packet, value)
                    return
                self.sim.schedule(value, self._inject, packet)
                return
        self._inject(packet)

    def _inject(self, packet: Packet) -> None:
        node = self.nodes[packet.src]
        exit_time = node.serialize(packet, self.sim.now)
        if packet.kind == DATA:
            self.data_packets_injected += 1
            if self.recorder is not None:
                self.recorder.on_data_injected(packet, self.sim.now)
            if self.transport is not None:
                self.transport.on_inject(packet, self.sim.now)
            if self.tracer is not None:
                self.tracer.emit(
                    self.sim.now,
                    "packet.inject",
                    ("flow", f"{packet.src}-{packet.dst}"),
                    args={"size_bytes": packet.size_bytes, "msp": packet.msp_index},
                )
        self.sim.schedule_at(exit_time + self._link_delay_s, self._arrive, packet)

    # ------------------------------------------------------------------
    # Drop accounting
    # ------------------------------------------------------------------
    @property
    def packets_dropped(self) -> int:
        """Total drops of any packet kind (sum over ``dropped_by_reason``)."""
        return sum(self.dropped_by_reason.values())

    def _drop(self, packet: Packet, reason: str, notify: bool = True) -> None:
        """Account a dropped packet and fan the NACK out to the learning
        layers: the routing policy prunes dead paths first, then the
        reliable transport (when installed) schedules a retransmission
        over the pruned metapath."""
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1
        if self.tracer is not None:
            self.tracer.emit(
                self.sim.now,
                "packet.drop",
                ("flow", f"{packet.src}-{packet.dst}"),
                args={"reason": reason, "kind": packet.kind},
            )
        if self.recorder is not None and packet.kind == DATA:
            on_dropped = getattr(self.recorder, "on_data_dropped", None)
            if on_dropped is not None:
                on_dropped(packet, reason, self.sim.now)
        if not notify:
            return
        self.policy.on_drop(packet, reason, self.sim.now)
        if self.transport is not None and packet.kind == DATA:
            self.transport.on_nack(packet, self.sim.now)

    # ------------------------------------------------------------------
    # Per-router forwarding
    # ------------------------------------------------------------------
    def _update_special(self) -> None:
        """The one flag ``_arrive`` tests for every unusual hop mode; the
        four link-fault methods, which alone write the link sets, call it."""
        self._special = bool(
            self._per_hop or self._vc is not None or self._onoff
            or self.failed_links or self.degraded_links
        )

    def _arrive(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now
        special = self._special
        if special:
            if self.failed_links and not self._crossed_link_alive(packet):
                # The link died while the packet was on the wire: a fault is
                # not a routing decision, so packets already committed to the
                # link are lost too (§3.3.2's dynamic fault model).
                self._drop(packet, DROP_LINK_DOWN)
                return
            if self._per_hop and packet.kind == DATA:
                self._arrive_adaptive(packet, now)
                return
            if self._vc is not None:
                self._arrive_vc(packet, now)
                return
        path = packet.path
        hop = packet.hop
        router = self.routers[path[hop]]
        if hop == len(path) - 1:
            port = router.host_ports.get(packet.dst)
            if port is None:
                port = router.port_to("host", packet.dst)
            time = router.forward(packet, port, now) + self._link_delay_s
            fn = self._deliver_next
        else:
            next_router = path[hop + 1]
            if special and self.failed_links and not self.link_alive(path[hop], next_router):
                # A failed link drops the packet: recovery is the routing
                # policy's job (alternative paths avoid the fault; FR-DRB's
                # watchdog notices the missing ACK) plus, when installed,
                # the reliable transport's (retransmission).
                self._drop(packet, DROP_LINK_DOWN)
                return
            port = router.router_ports.get(next_router)
            if port is None:
                port = router.port_to("router", next_router)
            if special and self._onoff and self._stalled(router, port, packet, now):
                return
            depart = router.forward(packet, port, now)
            packet.hop = hop + 1
            time = depart + (
                self.link_delay(path[hop], next_router) if special else self._link_delay_s
            )
            fn = self._arrive_next
        # Simulator.schedule_at(time, fn, packet), inlined: this is the
        # per-hop hot path.  ``time >= now`` holds because NetworkConfig
        # refuses negative delays.
        seq = sim._sequence
        sim._sequence = seq + 1
        heapq.heappush(sim._queue, [time, 0, seq, fn, (packet,), False])

    def _crossed_link_alive(self, packet: Packet) -> bool:
        """Is the link this packet just traversed still up on arrival?"""
        if packet.hop == 0 or packet.hop >= len(packet.path):
            return True  # host injection link; faults model router links
        return self.link_alive(packet.path[packet.hop - 1], packet.path[packet.hop])

    def _stalled(self, router: Router, port: OutputPort, packet: Packet, now: float) -> bool:
        """On/Off flow control: hold the packet upstream until the full
        output buffer drains (§2.1.3).  Returns True when a retry was
        scheduled.  The caller checks ``self._onoff``."""
        if router.buffer_available(port, packet.size_bytes, now):
            return False
        port.stalls += 1
        retry = router.next_drain_time(port, now)
        self.sim.schedule_at(retry, self._arrive, packet)
        return True

    def _vc_served_host(self, pkt: Packet, depart: float) -> None:
        """VC service completion for a final-hop packet: deliver it."""
        self.sim.schedule_at(
            depart + self.config.link_delay_s, self._deliver, pkt
        )

    def _vc_served_router(self, pkt: Packet, depart: float) -> None:
        """VC service completion for a transit packet: next router hop."""
        pkt.hop += 1
        self.sim.schedule_at(
            depart + self.link_delay(pkt.path[pkt.hop - 1], pkt.path[pkt.hop]),
            self._arrive,
            pkt,
        )

    def _arrive_vc(self, packet: Packet, now: float) -> None:
        """Forward through the round-robin VC arbiter instead of the
        immediate FIFO model (NetworkConfig.virtual_channels >= 2)."""
        router = self.routers[packet.current_router]
        if packet.at_last_router:
            port = router.port_to("host", packet.dst)
            self._vc.submit(router, port, packet, now, self._vc_served_host)
            return
        next_router = packet.path[packet.hop + 1]
        if self.failed_links and not self.link_alive(
            packet.current_router, next_router
        ):
            self._drop(packet, DROP_LINK_DOWN)
            return
        port = router.port_to("router", next_router)
        self._vc.submit(router, port, packet, now, self._vc_served_router)

    def _arrive_adaptive(self, packet: Packet, now: float) -> None:
        """Per-hop adaptive forwarding (Fig. 2.5's in-network adaptivity).

        The packet's route grows as routers choose among the minimal next
        hops; the accumulated ``path`` stays valid for diagnostics and
        ACK reverse-routing.
        """
        current = packet.current_router
        router = self.routers[current]
        dst_router = self.topology.host_router(packet.dst)
        if current == dst_router:
            port = router.port_to("host", packet.dst)
            depart = router.forward(packet, port, now)
            self.sim.schedule_at(
                depart + self.config.link_delay_s, self._deliver, packet
            )
            return
        choices = self.topology.minimal_next_hops(current, dst_router)
        if self.failed_links:
            choices = [nb for nb in choices if self.link_alive(current, nb)]
        if not choices:  # disconnected: no live minimal next hop remains
            self._drop(packet, DROP_NO_ROUTE)
            return
        next_router = min(
            choices,
            key=lambda nb: (router.ports.get(("router", nb)) or _IDLE).busy_until,
        )
        port = router.port_to("router", next_router)
        depart = router.forward(packet, port, now)
        packet.path = packet.path + (next_router,)
        packet.hop += 1
        self.sim.schedule_at(
            depart + self.link_delay(current, next_router), self._arrive, packet
        )

    # ------------------------------------------------------------------
    # Delivery and notification
    # ------------------------------------------------------------------
    def _deliver(self, packet: Packet) -> None:
        now = self.sim.now
        if packet.kind == DATA:
            if not self.nodes[packet.dst].first_delivery(packet.src, packet.retx_seq):
                # A duplicate copy (original + retransmit both survived).
                # Suppress it, but re-ACK so the source stops retrying —
                # the first copy's ACK may have been the casualty.
                self._drop(packet, DROP_DUPLICATE, notify=False)
                if self._acks_enabled():
                    self._send_ack(packet, now)
                return
            self.data_packets_delivered += 1
            self.data_bytes_delivered += packet.size_bytes
            latency = now - packet.created_at
            if self.recorder is not None:
                self.recorder.on_data_delivered(packet, latency, now)
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "packet.deliver",
                    ("flow", f"{packet.src}-{packet.dst}"),
                    args={"latency_s": latency, "size_bytes": packet.size_bytes},
                )
            self.nodes[packet.dst].receive(packet, now)
            if self._acks_enabled():
                self._send_ack(packet, now)
        elif packet.kind == ACK:
            self.acks_delivered += 1
            if self.tracer is not None and packet.contending:
                self.tracer.emit(
                    now,
                    "notify.recv",
                    ("flow", f"{packet.dst}-{packet.src}"),
                    args={"mode": "ack", "flows": len(packet.contending)},
                )
            self.policy.on_ack(packet, now)
            if self.transport is not None:
                self.transport.on_ack(packet, now)
        elif packet.kind == PREDICTIVE_ACK:
            self.predictive_acks_delivered += 1
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "notify.recv",
                    ("nic", packet.dst),
                    args={
                        "mode": "predictive",
                        "flows": len(packet.contending),
                        "router": packet.reporting_router,
                    },
                )
            self.policy.on_predictive_ack(packet, now)

    def _acks_enabled(self) -> bool:
        # The reliable transport needs ACKs even under policies that do
        # not learn from them (e.g. deterministic routing).
        return self.config.send_acks and (
            self.policy.wants_acks or self.transport is not None
        )

    def _send_ack(self, data: Packet, now: float) -> None:
        reverse = tuple(reversed(data.path))
        ack = make_ack(
            data,
            reverse_path=reverse,
            size_bytes=self.config.ack_size_bytes,
            now=now,
            carry_contending=True,
        )
        if self.tracer is not None and ack.contending:
            # Destination-based notification: contending flows ride home.
            self.tracer.emit(
                now,
                "notify.send",
                ("flow", f"{data.src}-{data.dst}"),
                args={
                    "mode": "ack",
                    "flows": len(ack.contending),
                    "router": ack.reporting_router,
                },
            )
        self.inject(ack)

    # ------------------------------------------------------------------
    # Router-based notification (GPA module, §3.4.1)
    # ------------------------------------------------------------------
    def _router_congestion(
        self,
        router: Router,
        port: OutputPort,
        packet: Packet,
        wait_s: float,
        flows: list[ContendingFlow],
        now: float,
    ) -> bool:
        if not self.policy.wants_acks:
            return False
        # Notify each distinct source among the dominant contending flows.
        notified: set[int] = set()
        for flow in flows:
            # A router-injected predictive ACK (src -1) queued at the port
            # is a contending flow too, but it has no source to notify.
            if flow.src < 0 or flow.src in notified:
                continue
            notified.add(flow.src)
            src_router = self.topology.host_router(flow.src)
            path = self.topology.minimal_route(router.router_id, src_router)
            pack = make_predictive_ack(
                router=router.router_id,
                target_src=flow.src,
                path=path,
                contending=flows,
                queue_latency=wait_s,
                size_bytes=self.config.ack_size_bytes,
                now=now,
            )
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "notify.send",
                    ("router", router.router_id),
                    args={
                        "mode": "predictive",
                        "target": flow.src,
                        "flows": len(flows),
                        "queue_latency_s": wait_s,
                    },
                )
            # Routers inject in place: the packet starts at this router.
            # Notification faults apply here too (a predictive ACK is a
            # notification packet, even though it skips host injection).
            if self.fault_filter is not None:
                action = self.fault_filter(pack, now)
                if action is not None:
                    kind, value = action
                    if kind == "drop":
                        self._drop(pack, value)
                    else:
                        self.sim.schedule(value, self._arrive, pack)
                    continue
            self.sim.schedule_at(now, self._arrive, pack)
        return True

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_link(self, a: int, b: int) -> None:
        """Take the (bidirectional) router link a<->b out of service."""
        if b not in self.topology.router_neighbors(a):
            raise ValueError(f"routers {a} and {b} are not adjacent")
        self.failed_links.add(frozenset((a, b)))
        self._update_special()

    def restore_link(self, a: int, b: int) -> None:
        """Bring a failed link back."""
        self.failed_links.discard(frozenset((a, b)))
        self._update_special()

    def link_alive(self, a: int, b: int) -> bool:
        return frozenset((a, b)) not in self.failed_links

    def degrade_link(self, a: int, b: int, extra_delay_s: float) -> None:
        """Add ``extra_delay_s`` of propagation delay to router link a<->b
        (a degraded-but-alive link: flaky optics, retraining lanes)."""
        if b not in self.topology.router_neighbors(a):
            raise ValueError(f"routers {a} and {b} are not adjacent")
        if extra_delay_s < 0:
            raise ValueError("extra_delay_s must be >= 0")
        self.degraded_links[frozenset((a, b))] = extra_delay_s
        self._update_special()

    def restore_link_quality(self, a: int, b: int) -> None:
        """Clear a degradation set by :meth:`degrade_link`."""
        self.degraded_links.pop(frozenset((a, b)), None)
        self._update_special()

    def link_delay(self, a: int, b: int) -> float:
        """Propagation delay of router link a<->b, degradation included."""
        if not self.degraded_links:
            return self.config.link_delay_s
        return self.config.link_delay_s + self.degraded_links.get(
            frozenset((a, b)), 0.0
        )

    def path_alive(self, path) -> bool:
        """True when no hop of ``path`` crosses a failed link."""
        if not self.failed_links:
            return True
        return all(self.link_alive(x, y) for x, y in zip(path, path[1:]))

    # ------------------------------------------------------------------
    # Inspection helpers
    # ------------------------------------------------------------------
    def contention_map(self) -> dict[int, float]:
        """Per-router mean contention latency (the latency surface map z)."""
        return {
            r.router_id: r.mean_contention_latency_s
            for r in self.routers
            if r.packets_forwarded
        }

    def accepted_ratio(self) -> float:
        """Delivered / injected data packets (§4.2 offered-vs-accepted)."""
        if not self.data_packets_injected:
            return 1.0
        return self.data_packets_delivered / self.data_packets_injected

    def quiesce(self, timeout: float = 1.0) -> None:
        """Run the simulator until all in-flight packets drain.

        Raises :class:`QuiesceTimeout` when the deadline passes with
        packets still in flight (or retransmissions still pending), with a
        diagnostic listing the stuck packets and per-flow outstanding
        counts — a silent return here hides livelocks and leaks.
        """
        deadline = self.sim.now + timeout
        self.sim.run(until=deadline)
        in_flight = self._in_flight_packets()
        pending_retx = (
            self.transport.pending_by_flow() if self.transport is not None else {}
        )
        if not in_flight and not pending_retx:
            return
        lines = [
            f"network failed to quiesce within {timeout:.3e}s "
            f"(now={self.sim.now:.6e}s): {len(in_flight)} packets in "
            f"flight, {sum(pending_retx.values())} retransmissions pending"
        ]
        for packet in in_flight[:10]:
            lines.append(f"  in flight: {packet!r}")
        if len(in_flight) > 10:
            lines.append(f"  ... and {len(in_flight) - 10} more")
        outstanding = {
            key: fs.outstanding
            for key, fs in getattr(self.policy, "flows", {}).items()
            if fs.outstanding > 0
        }
        for (src, dst), count in sorted(outstanding.items()):
            lines.append(f"  flow {src}->{dst}: {count} outstanding (policy)")
        for (src, dst), count in sorted(pending_retx.items()):
            lines.append(f"  flow {src}->{dst}: {count} pending retransmission")
        raise QuiesceTimeout("\n".join(lines))

    def _in_flight_packets(self) -> list[Packet]:
        """Packets with a live arrival/delivery/injection event queued."""
        hops = (self._arrive, self._deliver, self._inject)
        found = []
        for event in self.sim._queue:
            if event[CANCELLED] or event[FN] not in hops:
                continue
            found.extend(arg for arg in event[ARGS] if isinstance(arg, Packet))
        if self._vc is not None:
            for state in self._vc._states.values():
                for queue in state.queues:
                    found.extend(packet for packet, _, _ in queue)
        return found
