"""End-to-end recovery: NIC-level reliable transport.

The fabric is lossless under congestion but loses packets to link faults
(§3.3.2); :class:`ReliableTransport` restores delivery semantics on top:

* every data packet gets a per-flow **sequence number** at injection;
* a **retransmission timer** with capped exponential backoff re-sends the
  packet (over a freshly selected path — after the policy pruned dead
  MSPs, so the retry avoids the fault) when no ACK arrives in time;
* a fabric **drop notification** (this model's NACK) triggers the same
  recovery immediately, without waiting for the timeout;
* the destination NIC suppresses **duplicates** (original + retransmit
  both arriving), re-ACKing them so the source stops retrying even when
  the first ACK was the casualty;
* after ``max_retries`` attempts the packet is **abandoned** and the
  routing policy's outstanding books rebalanced via ``on_timeout``.

Accounting note: every *copy* the transport injects is a real packet to
the fabric (counted in ``data_packets_injected``, conserved individually
as delivered/dropped/in-flight); the transport tracks *logical* packets,
which is what the delivered-under-fault ratio is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.network.config import ReliabilityConfig
from repro.network.packet import DATA, Packet
from repro.sim.engine import Event

__all__ = ["ReliableTransport"]


@dataclass
class _Pending:
    """Book-keeping for one unacknowledged logical packet."""

    packet: Packet
    retries: int = 0
    timer: Optional[Event] = None
    nacks: int = 0
    sent_at: float = field(default=0.0)


class ReliableTransport:
    """Per-flow sequencing, retransmission and duplicate bookkeeping."""

    def __init__(self, fabric, config: ReliabilityConfig | None = None) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.config = config or ReliabilityConfig()
        self._next_seq: dict[tuple[int, int], int] = {}
        self._pending: dict[tuple[int, int, int], _Pending] = {}
        #: logical (first-copy) data packets this transport tracked.
        self.logical_packets = 0
        #: retransmitted copies injected.
        self.retransmissions = 0
        #: logical packets acknowledged only after >= 1 retransmission.
        self.recovered = 0
        #: logical packets given up on after ``max_retries`` attempts.
        self.abandoned = 0
        #: end-to-end latency (first send -> ACK) of recovered packets.
        self.recovery_latencies_s: list[float] = []
        fabric.transport = self

    # ------------------------------------------------------------------
    # Fabric hooks
    # ------------------------------------------------------------------
    def on_inject(self, packet: Packet, now: float) -> None:
        """Track a data packet entering the network (first copy or retry)."""
        if packet.kind != DATA:
            return
        key = (packet.src, packet.dst)
        if packet.retx_seq < 0:
            seq = self._next_seq.get(key, 0)
            self._next_seq[key] = seq + 1
            packet.retx_seq = seq
            self.logical_packets += 1
        pkey = (packet.src, packet.dst, packet.retx_seq)
        entry = self._pending.get(pkey)
        if entry is None:
            entry = _Pending(packet=packet, retries=packet.retries)
            self._pending[pkey] = entry
        else:
            entry.packet = packet
            entry.retries = packet.retries
        entry.sent_at = now
        self._arm_timer(pkey, entry)

    def on_ack(self, ack: Packet, now: float) -> None:
        """An ACK closed the loop: stop the timer, record recovery."""
        if ack.acked_retx_seq < 0:
            return
        pkey = (ack.dst, ack.src, ack.acked_retx_seq)
        entry = self._pending.pop(pkey, None)
        if entry is None:
            return  # duplicate ACK for an already-settled packet
        if entry.timer is not None:
            self.sim.cancel(entry.timer)
        if entry.retries > 0:
            self.recovered += 1
            self.recovery_latencies_s.append(now - entry.packet.created_at)

    def on_nack(self, packet: Packet, now: float) -> None:
        """The fabric dropped a tracked copy: recover immediately."""
        if packet.retx_seq < 0:
            return
        pkey = (packet.src, packet.dst, packet.retx_seq)
        entry = self._pending.get(pkey)
        if entry is None or entry.packet.pid != packet.pid:
            return  # a stale copy died; a newer one is already out
        entry.nacks += 1
        self._retransmit_or_abandon(pkey, entry, now)

    # ------------------------------------------------------------------
    # Timer path
    # ------------------------------------------------------------------
    def _arm_timer(self, pkey, entry: _Pending) -> None:
        if entry.timer is not None:
            self.sim.cancel(entry.timer)
        entry.timer = self.sim.schedule(
            self.config.timeout_for(entry.retries), self._expire, pkey
        )

    def _expire(self, pkey) -> None:
        entry = self._pending.get(pkey)
        if entry is None:
            return
        self._retransmit_or_abandon(pkey, entry, self.sim.now)

    # ------------------------------------------------------------------
    def _retransmit_or_abandon(self, pkey, entry: _Pending, now: float) -> None:
        if entry.timer is not None:
            self.sim.cancel(entry.timer)
            entry.timer = None
        src, dst, _seq = pkey
        # The outstanding copy is written off either way; a fresh send (if
        # any) re-registers itself through select_path.
        self.fabric.policy.on_timeout(src, dst, now)
        tracer = self.fabric.tracer
        if entry.retries >= self.config.max_retries:
            del self._pending[pkey]
            self.abandoned += 1
            if tracer is not None:
                tracer.emit(
                    now,
                    "retx.abandon",
                    ("flow", f"{src}-{dst}"),
                    args={"seq": _seq, "retries": entry.retries},
                )
            return
        entry.retries += 1
        self.retransmissions += 1
        if tracer is not None:
            tracer.emit(
                now,
                "retx.send",
                ("flow", f"{src}-{dst}"),
                args={"seq": _seq, "retries": entry.retries, "nacks": entry.nacks},
            )
        old = entry.packet
        path, msp_index = self.fabric.policy.select_path(
            src, dst, old.size_bytes, now
        )
        copy = Packet(
            src=src,
            dst=dst,
            size_bytes=old.size_bytes,
            kind=DATA,
            path=path,
            created_at=old.created_at,
            msp_index=msp_index,
            mpi_type=old.mpi_type,
            mpi_seq=old.mpi_seq,
            final=old.final,
            fragments=old.fragments,
            retx_seq=old.retx_seq,
            retries=entry.retries,
        )
        self.fabric.inject(copy)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._pending)

    def pending_by_flow(self) -> dict[tuple[int, int], int]:
        """Unacknowledged logical packets per (src, dst) flow."""
        counts: dict[tuple[int, int], int] = {}
        for src, dst, _ in self._pending:
            counts[(src, dst)] = counts.get((src, dst), 0) + 1
        return counts

    def stats(self) -> dict:
        return {
            "logical_packets": self.logical_packets,
            "retransmissions": self.retransmissions,
            "recovered": self.recovered,
            "abandoned": self.abandoned,
            "pending": self.pending,
        }
