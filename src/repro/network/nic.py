"""Processing-node (terminal) model (§4.1.1, Figs 4.1-4.4).

A :class:`ProcessingNode` is the source/sink endpoint attached to a router:

* the *source* side serializes packets onto its injection link (the
  source-node FSM: generate -> enqueue -> transmit when the link frees);
* the *sink* side receives packets, reassembles fragmented messages by
  ``(src, mpi_seq)`` and hands completed messages to a consumer callback
  (the destination FSM's analyze/consume states).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.network.config import NetworkConfig
from repro.network.packet import DATA, Packet


@dataclass(slots=True)
class _Reassembly:
    received: int = 0
    expected: int = -1  # unknown until the final packet arrives
    bytes: int = 0
    first_created_at: float = float("inf")


class ProcessingNode:
    """Host endpoint: injection link + message reassembly."""

    def __init__(self, host_id: int, config: NetworkConfig) -> None:
        self.host_id = host_id
        self.config = config
        #: absolute time at which the injection link becomes free.
        self.injection_busy_until: float = 0.0
        #: packets/bytes offered to the network by this host.
        self.packets_injected = 0
        self.bytes_injected = 0
        #: packets/bytes received by this host (data only).
        self.packets_received = 0
        self.bytes_received = 0
        #: message consumer: fn(src, mpi_type, mpi_seq, size_bytes, now).
        self.message_handler: Optional[Callable[[int, int, int, int, float], None]] = None
        self._assembly: dict[tuple[int, int], _Reassembly] = {}
        #: per-source reliable-transport sequence numbers already accepted
        #: (duplicate suppression for retransmitted packets).
        self._accepted_seqs: dict[int, set[int]] = {}
        #: injection serialization-time memo keyed by packet size; each
        #: entry is computed by the exact expression in :meth:`serialize`,
        #: so the cache cannot shift float rounding.
        self._inj_tx_cache: dict[int, float] = {}
        #: optional :class:`repro.obs.tracer.Tracer` (message completions).
        self.tracer = None

    # ------------------------------------------------------------------
    # Reliable-transport duplicate suppression
    # ------------------------------------------------------------------
    def first_delivery(self, src: int, retx_seq: int) -> bool:
        """Record a transport-tracked arrival; False for duplicate copies.

        Only meaningful for packets carrying a sequence number
        (``retx_seq >= 0``); untracked best-effort traffic always counts
        as a first delivery.
        """
        if retx_seq < 0:
            return True
        seen = self._accepted_seqs.setdefault(src, set())
        if retx_seq in seen:
            return False
        seen.add(retx_seq)
        return True

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def serialize(self, packet: Packet, now: float) -> float:
        """Occupy the injection link; return the packet's wire-exit time."""
        size = packet.size_bytes
        tx = self._inj_tx_cache.get(size)
        if tx is None:
            tx = self._inj_tx_cache[size] = (
                size * 8 / self.config.injection_bandwidth_bps
            )
        busy = self.injection_busy_until
        start = busy if busy > now else now
        exit_time = start + tx
        self.injection_busy_until = exit_time
        self.packets_injected += 1
        self.bytes_injected += size
        return exit_time

    # ------------------------------------------------------------------
    # Sink side
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, now: float) -> None:
        """Account a delivered packet; fire the handler on full messages."""
        if packet.kind != DATA:
            return
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        if packet.mpi_seq < 0:
            # Raw (synthetic) traffic: every packet is its own message.
            if self.message_handler is not None:
                self.message_handler(
                    packet.src, packet.mpi_type, packet.mpi_seq, packet.size_bytes, now
                )
            return
        key = (packet.src, packet.mpi_seq)
        state = self._assembly.setdefault(key, _Reassembly())
        state.received += 1
        state.bytes += packet.size_bytes
        state.first_created_at = min(state.first_created_at, packet.created_at)
        state.expected = packet.fragments
        if state.received >= state.expected:
            del self._assembly[key]
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "msg.complete",
                    ("nic", self.host_id),
                    args={
                        "src": packet.src,
                        "mpi_seq": packet.mpi_seq,
                        "bytes": state.bytes,
                        "fragments": state.expected,
                        "latency_s": now - state.first_created_at,
                    },
                )
            if self.message_handler is not None:
                self.message_handler(
                    packet.src, packet.mpi_type, packet.mpi_seq, state.bytes, now
                )

    @property
    def pending_messages(self) -> int:
        """Messages currently mid-reassembly."""
        return len(self._assembly)
