"""Trace-driven rank engine (§4.7, Fig. 4.19).

:class:`TraceRuntime` replays a logical trace over a fabric: each rank is
a little interpreter advancing through its event stream; blocking receives
suspend the rank until the fabric delivers the matching message, compute
events advance the rank's local clock, and sends are injected through the
routing policy under test.  The application *execution time* (Fig. 4.21b,
4.25b, 4.27b) is the simulated time at which the last rank finishes.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.mpi.collectives import lower_collectives
from repro.mpi.events import (
    MPI_CALL_IDS,
    Compute,
    Irecv,
    Isend,
    Recv,
    Send,
    Wait,
    Waitall,
)
from repro.mpi.trace import Trace
from repro.network.fabric import Fabric

#: tag occupies the low 32 bits of Packet.mpi_seq; a per-runtime counter
#: in the high bits keeps message reassembly keys unique.
_TAG_BITS = 32
_TAG_MASK = (1 << _TAG_BITS) - 1


class TraceRuntime:
    """Replays one lowered trace over a fabric."""

    def __init__(
        self,
        fabric: Fabric,
        trace: Trace,
        rank_to_host: Optional[list[int]] = None,
    ) -> None:
        self.fabric = fabric
        if any(
            not isinstance(e, (Compute, Send, Recv, Isend, Irecv, Wait, Waitall))
            for events in trace.events.values()
            for e in events
        ):
            trace = lower_collectives(trace)
        self.trace = trace
        n = trace.num_ranks
        if rank_to_host is None:
            rank_to_host = list(range(n))
        if len(rank_to_host) != n:
            raise ValueError("rank_to_host must cover every rank")
        if n > fabric.topology.num_hosts:
            raise ValueError("more ranks than hosts")
        self.rank_to_host = list(rank_to_host)
        self.host_to_rank = {h: r for r, h in enumerate(self.rank_to_host)}
        self._pc = [0] * n
        #: arrived-but-unconsumed messages per rank: (src_rank, tag) -> count.
        self._mailbox: list[Counter] = [Counter() for _ in range(n)]
        #: blocking state per rank: None, ("recv", src, tag) or ("waitall",).
        self._blocked: list[Optional[tuple]] = [None] * n
        #: outstanding irecv requests per rank: request id -> (src, tag).
        self._irecvs: list[dict[int, tuple[int, int]]] = [dict() for _ in range(n)]
        self._seq_counter = 0
        self.finished_ranks = 0
        self.finish_time: Optional[float] = None
        self.messages_sent = 0
        self._started = False
        # Hook message delivery on every participating host.
        for rank, host in enumerate(self.rank_to_host):
            fabric.nodes[host].message_handler = self._make_handler(rank)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every rank at the current simulation time."""
        self._started = True
        for rank in self.trace.ranks():
            self.fabric.sim.schedule(0.0, self._advance, rank)

    def run(self, timeout_s: float = 10.0) -> float:
        """Start (if needed) and run until all ranks finish; returns the
        execution time.  Raises RuntimeError on deadlock/timeout."""
        if not self._started:
            self.start()
        self.fabric.sim.run(until=self.fabric.sim.now + timeout_s)
        if self.finish_time is None:
            # A finished rank is marked "done", a running one None.
            stuck = [r for r in self.trace.ranks() if isinstance(self._blocked[r], tuple)]
            raise RuntimeError(
                f"trace did not complete within {timeout_s}s; "
                f"blocked ranks: {stuck[:8]}{'...' if len(stuck) > 8 else ''}"
            )
        return self.finish_time

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    # ------------------------------------------------------------------
    # Rank interpreter
    # ------------------------------------------------------------------
    def _advance(self, rank: int) -> None:
        events = self.trace.events[rank]
        pc = self._pc[rank]
        sim = self.fabric.sim
        while pc < len(events):
            e = events[pc]
            if isinstance(e, Compute):
                pc += 1
                if e.duration_s > 0:
                    self._pc[rank] = pc
                    sim.schedule(e.duration_s, self._advance, rank)
                    return
            elif isinstance(e, (Send, Isend)):
                self._send(rank, e)
                pc += 1
            elif isinstance(e, Recv):
                if self._try_consume(rank, e.src, e.tag):
                    pc += 1
                else:
                    self._pc[rank] = pc
                    self._blocked[rank] = ("recv", e.src, e.tag)
                    return
            elif isinstance(e, Irecv):
                self._irecvs[rank][e.request] = (e.src, e.tag)
                pc += 1
            elif isinstance(e, Wait):
                pending = self._irecvs[rank].get(e.request)
                if pending is None:
                    pc += 1  # isend or unknown request: instantly complete
                elif self._try_consume(rank, *pending):
                    del self._irecvs[rank][e.request]
                    pc += 1
                else:
                    self._pc[rank] = pc
                    self._blocked[rank] = ("recv", *pending)
                    return
            elif isinstance(e, Waitall):
                self._drain_irecvs(rank)
                if self._irecvs[rank]:
                    self._pc[rank] = pc
                    self._blocked[rank] = ("waitall",)
                    return
                pc += 1
            else:  # pragma: no cover - lowering guarantees coverage
                raise TypeError(f"unexpected event {e!r}")
        self._pc[rank] = pc
        self._finish_rank(rank)

    def _send(self, rank: int, e) -> None:
        self._seq_counter += 1
        seq = (self._seq_counter << _TAG_BITS) | (e.tag & _TAG_MASK)
        self.fabric.send(
            self.rank_to_host[rank],
            self.rank_to_host[e.dst],
            e.size_bytes,
            mpi_type=MPI_CALL_IDS[e.call],
            mpi_seq=seq,
        )
        self.messages_sent += 1

    def _finish_rank(self, rank: int) -> None:
        if self._blocked[rank] == "done":
            return
        self._blocked[rank] = "done"
        self.finished_ranks += 1
        if self.finished_ranks == self.trace.num_ranks:
            self.finish_time = self.fabric.sim.now

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _try_consume(self, rank: int, src: int, tag: int) -> bool:
        box = self._mailbox[rank]
        key = (src, tag)
        if box[key] > 0:
            box[key] -= 1
            return True
        return False

    def _drain_irecvs(self, rank: int) -> None:
        satisfied = [
            req
            for req, (src, tag) in self._irecvs[rank].items()
            if self._try_consume(rank, src, tag)
        ]
        for req in satisfied:
            del self._irecvs[rank][req]

    def _make_handler(self, rank: int):
        def handler(src_host: int, mpi_type: int, mpi_seq: int, size: int, now: float):
            src_rank = self.host_to_rank.get(src_host)
            if src_rank is None or mpi_seq < 0:
                return
            tag = mpi_seq & _TAG_MASK
            self._mailbox[rank][(src_rank, tag)] += 1
            self._maybe_wake(rank)

        return handler

    def _maybe_wake(self, rank: int) -> None:
        blocked = self._blocked[rank]
        if blocked is None or blocked == "done":
            return
        if blocked[0] == "recv":
            _, src, tag = blocked
            if self._mailbox[rank][(src, tag)] > 0:
                self._blocked[rank] = None
                self.fabric.sim.schedule(0.0, self._resume, rank, ("recv", src, tag))
        elif blocked[0] == "waitall":
            self._drain_irecvs(rank)
            if not self._irecvs[rank]:
                self._blocked[rank] = None
                self.fabric.sim.schedule(0.0, self._advance_past_block, rank)

    def _resume(self, rank: int, expected: tuple) -> None:
        """Consume the message the rank was blocked on, then continue."""
        _, src, tag = expected
        if not self._try_consume(rank, src, tag):  # raced with another event
            self._blocked[rank] = expected
            return
        self._pc[rank] += 1
        self._advance(rank)

    def _advance_past_block(self, rank: int) -> None:
        self._pc[rank] += 1
        self._advance(rank)
