"""Simulation parameter sets (Tables 4.2 and 4.3).

:class:`NetworkConfig` carries every tunable the paper reports: link
bandwidth 2 Gbps, 2 MB router buffers, 1024-byte packets, virtual
cut-through flow control, plus engine-level delays that OPNET models
implicitly (routing decision time, link propagation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class NetworkConfig:
    """All physical/protocol parameters of a simulated network."""

    #: link bandwidth in bits per second (paper: 2 Gbps).
    link_bandwidth_bps: float = 2e9
    #: data packet payload+header size in bytes (paper: 1024 B).
    packet_size_bytes: int = 1024
    #: router buffer capacity per output port in bytes (paper: 2 MB).
    buffer_size_bytes: int = 2 * 1024 * 1024
    #: ACK / notification packet size in bytes (small control packet).
    ack_size_bytes: int = 64
    #: fixed routing-decision delay per router, seconds.
    routing_delay_s: float = 50e-9
    #: link propagation delay, seconds.
    link_delay_s: float = 20e-9
    #: NIC injection bandwidth (defaults to link bandwidth).
    injection_bandwidth_bps: float | None = None
    #: queue-latency threshold above which a router's CFD module records
    #: contending flows (§3.3.2); seconds.
    router_threshold_s: float = 4e-6
    #: maximum number of contending flows carried by a predictive header.
    max_contending_flows: int = 8
    #: minimum fraction of queued bytes a flow must hold to be reported as
    #: contending (§3.2.7: only the flows "which contribute most to
    #: congestion" are notified; background noise stays out of signatures).
    cfd_min_share: float = 0.12
    #: generate an ACK per received data packet (needed by DRB family).
    send_acks: bool = True
    #: buffer flow control (§2.1.3): "none" accepts everything and only
    #: counts logical overflows; "onoff" stalls a packet upstream until
    #: the full output buffer drains (On/Off backpressure).
    flow_control: str = "none"
    #: switching pipeline (§2.1.2): False = store-and-forward timing (a
    #: packet fully serializes at every hop — the conservative model all
    #: paper experiments use); True = virtual cut-through (the header is
    #: handed to the next hop after ``cut_through_header_bytes`` while the
    #: body still occupies the link, so uncongested hops pipeline).
    cut_through: bool = False
    #: header size driving the cut-through handoff delay.
    cut_through_header_bytes: int = 16
    #: virtual channels per output port (§2.1.2, §3.2.8).  1 = plain FIFO
    #: link service (default, used by all paper experiments); >= 2 turns
    #: on round-robin VC arbitration so flows sharing a port cannot
    #: head-of-line-block each other.
    virtual_channels: int = 1

    _FLOW_CONTROLS = ("none", "onoff")

    _BANDWIDTHS = ("link_bandwidth_bps", "injection_bandwidth_bps")
    _DURATIONS = ("routing_delay_s", "link_delay_s", "router_threshold_s")
    _COUNTS = ("packet_size_bytes", "buffer_size_bytes", "ack_size_bytes",
               "cut_through_header_bytes", "max_contending_flows", "virtual_channels")

    def __post_init__(self) -> None:
        """Refuse, naming the field, a value no run can use.  A negative
        delay would schedule into the past (the fabric's inlined hop
        schedule relies on this check), and a size under one byte queues
        an entry that holds nothing."""
        if self.injection_bandwidth_bps is None:
            self.injection_bandwidth_bps = self.link_bandwidth_bps
        for name in self._BANDWIDTHS:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name!r} must be finite and > 0, got {getattr(self, name)!r}")
        for name in self._DURATIONS:
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name!r} must be finite and >= 0, got {getattr(self, name)!r}")
        for name in self._COUNTS:
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name!r} must be >= 1, got {getattr(self, name)!r}")
        if not 0 <= self.cfd_min_share <= 1:
            raise ValueError(f"'cfd_min_share' must be in [0, 1], got {self.cfd_min_share!r}")
        if self.flow_control not in self._FLOW_CONTROLS:
            raise ValueError(
                f"'flow_control' must be one of {self._FLOW_CONTROLS}, "
                f"got {self.flow_control!r}"
            )
        # Serialization-time memo: the hot path asks for the same handful
        # of sizes (packet, ACK, final fragment) millions of times.  Each
        # cached value is computed by the exact ``size * 8 / bandwidth``
        # expression below, so memoization cannot shift float rounding.
        # Non-field attributes: invisible to dataclass eq/repr.
        self._tx_cache: dict[int, float] = {}
        self._packet_tx_s: float = (
            self.packet_size_bytes * 8 / self.link_bandwidth_bps
        )

    # ------------------------------------------------------------------
    @property
    def packet_tx_time_s(self) -> float:
        """Serialization time of a data packet on one link."""
        return self._packet_tx_s

    def tx_time_s(self, size_bytes: int) -> float:
        """Serialization time of ``size_bytes`` on one link (memoized)."""
        cached = self._tx_cache.get(size_bytes)
        if cached is None:
            cached = self._tx_cache[size_bytes] = (
                size_bytes * 8 / self.link_bandwidth_bps
            )
        return cached


@dataclass
class ReliabilityConfig:
    """End-to-end recovery parameters (NIC retransmission protocol).

    The paper's fabric is lossless under congestion but loses packets to
    link faults (§3.3.2); this protocol restores delivery: per-flow
    sequence numbers, a retransmission timer with capped exponential
    backoff, and destination-side duplicate suppression.
    """

    #: base retransmission timeout, seconds.  Should exceed one data
    #: round-trip (path serialization + ACK return) on the target network.
    retx_timeout_s: float = 60e-6
    #: multiplicative backoff applied per retry.
    backoff_factor: float = 2.0
    #: ceiling on the (backed-off) retransmission timeout, seconds.
    max_backoff_s: float = 1e-3
    #: retransmission attempts before the transport gives up on a packet.
    max_retries: int = 4

    def __post_init__(self) -> None:
        if self.retx_timeout_s <= 0:
            raise ValueError("retx_timeout_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff_s < self.retx_timeout_s:
            raise ValueError("max_backoff_s must be >= retx_timeout_s")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def timeout_for(self, retries: int) -> float:
        """Backed-off timeout for a packet already retried ``retries`` times."""
        return min(
            self.retx_timeout_s * self.backoff_factor**retries,
            self.max_backoff_s,
        )
