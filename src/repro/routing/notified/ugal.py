"""UGAL-like queue-occupancy routing (Singh'05; arXiv:1909.07865 §II-B).

The Universal Globally-Adaptive Load-balanced baseline the dragonfly
literature measures against: at every injection, compare the minimal
path against one randomly sampled Valiant candidate and take whichever
has the smaller hop-weighted queue backlog.  No notifications, no
learning — the decision reads the *local* port queues only, which makes
it the natural control for the notified-adaptive policy (same candidate
paths, different congestion signal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.base import RoutingPolicy
from repro.sim.rng import seeded_generator
from repro.topology.base import Path


@dataclass
class UGALConfig:
    """Tunables of the UGAL baseline."""

    #: candidate paths per pair, minimal included.
    max_paths: int = 4
    #: RNG seed for the Valiant candidate draw.
    seed: int = 0


class UGALPolicy(RoutingPolicy):
    """Minimal vs sampled-Valiant choice by hop-weighted queue backlog."""

    name = "ugal"
    wants_acks = False

    def __init__(
        self,
        config: UGALConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.config = config or UGALConfig()
        self._rng = rng if rng is not None else seeded_generator(self.config.seed)
        self._candidates: dict[tuple[int, int], list[Path]] = {}
        self.minimal_routed = 0
        self.valiant_routed = 0

    def _paths(self, src: int, dst: int) -> list[Path]:
        key = (src, dst)
        paths = self._candidates.get(key)
        if paths is None:
            paths = self.topology.alternative_paths(src, dst, self.config.max_paths)
            self._candidates[key] = paths
        return paths

    def _path_backlog(self, path: Path, now: float) -> float:
        """Total pending service time along ``path``'s output ports."""
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
            self.minimal_routed += 1
            return paths[0], 0
        # UGAL rule: route minimally unless q_min * H_min > q_val * H_val
        # for a uniformly sampled Valiant candidate.
        idx = 1 + int(self._rng.integers(len(paths) - 1))
        minimal, valiant = paths[0], paths[idx]
        cost_min = self._path_backlog(minimal, now) * (len(minimal) - 1)
        cost_val = self._path_backlog(valiant, now) * (len(valiant) - 1)
        if cost_val < cost_min:
            self.valiant_routed += 1
            return valiant, idx
        self.minimal_routed += 1
        return minimal, 0

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "policy": self.name,
            "pairs": len(self._candidates),
            "minimal_routed": self.minimal_routed,
            "valiant_routed": self.valiant_routed,
        }
