"""Oblivious routing baselines (§2.1.4; POP evaluation §4.8.4).

*Random* draws uniformly among the pair's alternative minimal paths on
every injection; *cyclic* (the paper's cyclic-priority algorithm) rotates
through them round-robin.  Neither consults network state.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import RoutingPolicy
from repro.sim.rng import seeded_generator
from repro.topology.base import Path


class _MultipathOblivious(RoutingPolicy):
    """Shared machinery: a fixed candidate path set per pair."""

    wants_acks = False

    def __init__(
        self,
        max_paths: int = 4,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.max_paths = max_paths
        self._rng = rng if rng is not None else seeded_generator(seed)
        self._candidates: dict[tuple[int, int], list[Path]] = {}

    def _paths(self, src: int, dst: int) -> list[Path]:
        key = (src, dst)
        paths = self._candidates.get(key)
        if paths is None:
            paths = self.topology.alternative_paths(src, dst, self.max_paths)
            self._candidates[key] = paths
        return paths


class RandomPolicy(_MultipathOblivious):
    """Uniform random choice among alternative paths per injection."""

    name = "random"

    def select_path(self, src: int, dst: int, size_bytes: int, now: float) -> tuple[Path, int]:
        paths = self._paths(src, dst)
        idx = int(self._rng.integers(len(paths)))
        return paths[idx], idx


class CyclicPolicy(_MultipathOblivious):
    """Round-robin rotation among alternative paths per injection."""

    name = "cyclic"

    def __init__(
        self,
        max_paths: int = 4,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(max_paths=max_paths, seed=seed, rng=rng)
        self._next: dict[tuple[int, int], int] = {}

    def select_path(self, src: int, dst: int, size_bytes: int, now: float) -> tuple[Path, int]:
        paths = self._paths(src, dst)
        key = (src, dst)
        idx = self._next.get(key, 0) % len(paths)
        self._next[key] = idx + 1
        return paths[idx], idx
