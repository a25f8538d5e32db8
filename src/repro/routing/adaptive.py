"""Source-adaptive minimal routing (§2.1.4 adaptive class, Fig. 2.5).

A lightweight adaptive baseline: per injection, pick the candidate minimal
path whose routers currently show the lowest summed output-port backlog.
It reads live network state (like in-network adaptive routing) but decides
at the source (like the paper's source-routed MSP mechanism), making it a
fair state-aware non-learning comparator for DRB.
"""

from __future__ import annotations

from repro.routing.base import RoutingPolicy
from repro.topology.base import Path


class InNetworkAdaptivePolicy(RoutingPolicy):
    """True per-hop minimal adaptive routing (§2.1.5's ascending phase).

    Each router picks, among the neighbours that lie on *some* minimal
    path to the destination, the one whose output port frees earliest.
    The fabric grows the packet's route hop by hop; this policy only
    provides the first router.
    """

    name = "adaptive-hop"
    wants_acks = False
    #: tells the fabric to route data packets hop by hop.
    per_hop = True

    def select_path(self, src: int, dst: int, size_bytes: int, now: float) -> tuple[Path, int]:
        return (self.topology.host_router(src),), 0


class SourceAdaptivePolicy(RoutingPolicy):
    """Least-backlog choice among alternative minimal paths."""

    name = "adaptive"
    wants_acks = False

    def __init__(self, max_paths: int = 4) -> None:
        super().__init__()
        self.max_paths = max_paths
        self._candidates: dict[tuple[int, int], list[Path]] = {}

    def _paths(self, src: int, dst: int) -> list[Path]:
        key = (src, dst)
        paths = self._candidates.get(key)
        if paths is None:
            paths = self.topology.alternative_paths(src, dst, self.max_paths)
            self._candidates[key] = paths
        return paths

    def _path_backlog(self, path: Path, now: float) -> float:
        """Total pending service time along ``path``'s routers."""
        backlog = 0.0
        routers = self.fabric.routers
        for a, b in zip(path, path[1:]):
            port = routers[a].ports.get(("router", b))
            if port is not None:
                backlog += max(0.0, port.busy_until - now)
        return backlog

    def select_path(self, src: int, dst: int, size_bytes: int, now: float) -> tuple[Path, int]:
        paths = self._paths(src, dst)
        if len(paths) == 1:
            return paths[0], 0
        best_idx = 0
        best_cost = None
        for idx, path in enumerate(paths):
            # Backlog plus a hop-count tie-breaker favouring short paths.
            cost = (self._path_backlog(path, now), len(path))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_idx = idx
        return paths[best_idx], best_idx
