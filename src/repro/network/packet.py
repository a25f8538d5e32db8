"""Packet formats (§3.3.1, Figs 3.16-3.18).

Three packet kinds model the paper's wire formats:

* ``DATA`` — Fig. 3.16: multi-header source route (the MSP's intermediate
  nodes become an explicit router path here), accumulated path latency,
  MPI type/sequence fields, and the optional predictive header (the
  recorded contending flows) when the destination-based scheme is active.
* ``ACK`` — Fig. 3.17: the notification returned to the source with the
  measured path latency (plus the predictive header contents under
  destination-based notification).
* ``PREDICTIVE_ACK`` — Fig. 3.18: the router-injected early notification of
  the router-based design alternative (§3.4.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

DATA = 0
ACK = 1
PREDICTIVE_ACK = 2

_KIND_NAMES = {DATA: "DATA", ACK: "ACK", PREDICTIVE_ACK: "PACK"}

_pid_counter = itertools.count()


class ContendingFlow(NamedTuple):
    """A source/destination pair observed in a congested output queue."""

    src: int
    dst: int


@dataclass(slots=True)
class Packet:
    """A unit of transfer through the fabric.

    ``path`` is the full source route (router ids, inclusive); ``hop``
    indexes the router currently handling the packet — together they
    implement the multi-header + ``Header_id`` scheme of Fig. 3.16.

    Slotted (``slots=True``) because the simulator keeps thousands in
    flight and the per-event hot path reads their fields constantly; see
    docs/performance.md.
    """

    src: int
    dst: int
    size_bytes: int
    kind: int = DATA
    path: tuple[int, ...] = ()
    created_at: float = 0.0
    #: index of the MSP inside the source's metapath that this packet rode.
    msp_index: int = 0
    #: accumulated queueing (contention) latency along the path, seconds.
    path_latency: float = 0.0
    #: current position within ``path``.
    hop: int = 0
    #: MPI call type id (Fig. 3.16 ``MPI_type``); -1 for raw traffic.
    mpi_type: int = -1
    #: MPI sequence / message id (Fig. 3.16 ``MPI_sequence``).
    mpi_seq: int = -1
    #: marks the last packet of a fragmented message (Fig. 3.16 ``F`` bit).
    final: bool = True
    #: total fragment count of the message this packet belongs to.
    fragments: int = 1
    #: predictive bit (Fig. 3.16 ``P``): a router already injected a
    #: predictive ACK, so the destination sends a latency-only ACK (§3.4.2).
    predictive_bit: bool = False
    #: recorded contending flows (the predictive optional header).
    contending: list[ContendingFlow] = field(default_factory=list)
    #: router that recorded the contending flows (Fig. 3.18 ``Router id``;
    #: -1 under destination-based notification).
    reporting_router: int = -1
    #: reliable-transport sequence number within the (src, dst) flow;
    #: -1 when the packet is not tracked by a transport (best-effort).
    retx_seq: int = -1
    #: how many times this copy's logical packet has been retransmitted.
    retries: int = 0
    #: for ACK packets: the data packet fields they acknowledge.
    acked_msp_index: int = 0
    acked_created_at: float = 0.0
    acked_retx_seq: int = -1
    pid: int = field(default_factory=lambda: next(_pid_counter))
    #: lazily cached ``flow()`` result (src/dst never change post-init).
    _flow: ContendingFlow | None = field(default=None, repr=False, compare=False)

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    @property
    def current_router(self) -> int:
        return self.path[self.hop]

    @property
    def at_last_router(self) -> bool:
        return self.hop == len(self.path) - 1

    def kind_name(self) -> str:
        return _KIND_NAMES.get(self.kind, "?")

    def flow(self) -> ContendingFlow:
        """This packet's own (src, dst) pair, for CFD bookkeeping."""
        flow = self._flow
        if flow is None:
            flow = self._flow = ContendingFlow(self.src, self.dst)
        return flow

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{self.kind_name()} pid={self.pid} {self.src}->{self.dst} "
            f"hop={self.hop}/{len(self.path) - 1} lat={self.path_latency:.3e}>"
        )


def make_ack(
    data: Packet,
    reverse_path: tuple[int, ...],
    size_bytes: int,
    now: float,
    carry_contending: bool = True,
) -> Packet:
    """Build the destination's ACK for ``data`` (Fig. 3.17).

    The ACK travels the reverse route and reports the measured path
    latency; under destination-based notification it also carries the
    predictive header copied from the data packet (§3.2.2), unless the
    predictive bit says a router already notified the source (§3.4.2).
    """
    ack = Packet(
        src=data.dst,
        dst=data.src,
        size_bytes=size_bytes,
        kind=ACK,
        path=reverse_path,
        created_at=now,
        mpi_type=data.mpi_type,
        mpi_seq=data.mpi_seq,
        acked_msp_index=data.msp_index,
        acked_created_at=data.created_at,
        acked_retx_seq=data.retx_seq,
    )
    ack.path_latency = data.path_latency
    if carry_contending and not data.predictive_bit:
        ack.contending = list(data.contending)
        ack.reporting_router = data.reporting_router
    return ack


def make_predictive_ack(
    router: int,
    target_src: int,
    path: tuple[int, ...],
    contending: list[ContendingFlow],
    queue_latency: float,
    size_bytes: int,
    now: float,
) -> Packet:
    """Build a router-injected predictive ACK (Fig. 3.18, §3.4.1)."""
    pack = Packet(
        src=-1,
        dst=target_src,
        size_bytes=size_bytes,
        kind=PREDICTIVE_ACK,
        path=path,
        created_at=now,
    )
    pack.contending = list(contending)
    pack.reporting_router = router
    pack.path_latency = queue_latency
    return pack
