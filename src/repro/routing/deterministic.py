"""Deterministic minimal routing (§2.1.4 taxonomy; evaluation baseline).

Always the same minimal path per source-destination pair: dimension-order
on meshes/tori, destination-digit up/down on k-ary n-trees.
"""

from __future__ import annotations

from repro.routing.base import RoutingPolicy
from repro.topology.base import Path


def host_path(topology, src: int, dst: int) -> Path:
    """Deterministic host-to-host router path on any topology."""
    route = getattr(topology, "host_minimal_route", None)
    if route is not None:
        return route(src, dst)
    return topology.minimal_route(
        topology.host_router(src), topology.host_router(dst)
    )


class DeterministicPolicy(RoutingPolicy):
    """Single fixed minimal path per pair; no ACK feedback."""

    name = "deterministic"
    wants_acks = False

    def __init__(self) -> None:
        super().__init__()
        self._cache: dict[tuple[int, int], Path] = {}

    def select_path(self, src: int, dst: int, size_bytes: int, now: float) -> tuple[Path, int]:
        key = (src, dst)
        path = self._cache.get(key)
        if path is None:
            path = host_path(self.topology, src, dst)
            self._cache[key] = path
        return path, 0
