"""Throughput accounting (§4.2).

The paper reports throughput as accepted load per unit time and checks
that offered and accepted load stay in ratio (no loss).  The fabric keeps
the packet counters; this helper turns them into rates and ratios.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Throughput:
    """Offered vs accepted load summary over a measurement interval."""

    injected_packets: int
    delivered_packets: int
    delivered_bytes: int
    interval_s: float

    @property
    def accepted_ratio(self) -> float:
        """Delivered / injected packets (1.0 means nothing in flight/lost)."""
        if self.injected_packets == 0:
            return 1.0
        return self.delivered_packets / self.injected_packets

    @property
    def bits_per_second(self) -> float:
        if self.interval_s <= 0:
            return 0.0
        return self.delivered_bytes * 8 / self.interval_s
