"""Metapath: the set of alternative MSPs for a source-destination pair
(§3.2.3, Figs 3.7-3.8; Eq. 3.4).

A metapath owns the full ordered candidate list produced by the topology
(`Topology.alternative_paths`) but only the first ``active_count`` MSPs are
*open* and eligible for selection.  DRB grows/shrinks ``active_count`` one
path at a time; PR-DRB may jump straight to a saved configuration
(:meth:`Metapath.apply_solution`).
"""

from __future__ import annotations

from repro.core.msp import MultiStepPath
from repro.topology.base import Path


class Metapath:
    """Alternative-path set and Eq. 3.4 latency aggregate for one flow."""

    def __init__(
        self,
        candidates: list[Path],
        per_hop_cost_s: float,
        alpha: float = 0.5,
    ) -> None:
        if not candidates:
            raise ValueError("metapath needs at least the original path")
        self.msps = [
            MultiStepPath(path=p, per_hop_cost_s=per_hop_cost_s, alpha=alpha)
            for p in candidates
        ]
        self.active_count = 1
        #: indices into ``msps`` forming the current active set; kept as a
        #: prefix for DRB but arbitrary subsets are allowed for saved
        #: solutions.
        self._active: list[int] = [0]
        # Memoized views/aggregates, recomputed lazily after invalidation.
        # Every mutation flows through the methods below, so explicit
        # invalidation is complete: active-set changes (expand / shrink /
        # prune / apply_solution) clear everything; per-ACK latency updates
        # (record_ack) clear only the latency-derived caches.  The version
        # counter lets callers (Eq. 3.6 selection) key their own caches.
        self.version: int = 0
        self._active_tuple: tuple[int, ...] | None = None
        self._active_list: list[MultiStepPath] | None = None
        self._latency_cache: float | None = None
        self._pdf_cache = None  # set by repro.core.selection
        self._cdf_cache = None  # set by repro.core.selection

    # ------------------------------------------------------------------
    def _invalidate_active(self) -> None:
        """Active set changed: drop every cached view and aggregate."""
        self.version += 1
        self._active_tuple = None
        self._active_list = None
        self._latency_cache = None
        self._pdf_cache = None
        self._cdf_cache = None

    def _invalidate_latency(self) -> None:
        """An MSP latency estimate moved: drop the derived aggregates."""
        self.version += 1
        self._latency_cache = None
        self._pdf_cache = None
        self._cdf_cache = None

    # ------------------------------------------------------------------
    @property
    def max_paths(self) -> int:
        return len(self.msps)

    @property
    def active_indices(self) -> tuple[int, ...]:
        cached = self._active_tuple
        if cached is None:
            cached = self._active_tuple = tuple(self._active)
        return cached

    @property
    def active_msps(self) -> list[MultiStepPath]:
        cached = self._active_list
        if cached is None:
            msps = self.msps
            cached = self._active_list = [msps[i] for i in self._active]
        return cached

    @property
    def original(self) -> MultiStepPath:
        return self.msps[0]

    # ------------------------------------------------------------------
    def evaluated(self) -> bool:
        """True when every open path has ACK-confirmed latency.

        The paper's gradual opening evaluates each new path's effect
        before widening further; expansion is gated on this.
        """
        return not any(m.awaiting_ack for m in self.active_msps)

    def latency_s(self) -> float:
        """Eq. 3.4: inverse of the sum of inverse MSP latencies.

        The inverse of a path's latency is its capacity; the metapath's
        capacity is the sum of its open paths' capacities, so the
        aggregate drops as paths open.  Memoized until the next
        :meth:`record_ack` or active-set change.
        """
        cached = self._latency_cache
        if cached is not None:
            return cached
        inv = 0.0
        for msp in self.active_msps:
            lat = msp.latency_s
            if lat <= 0:
                raise ValueError("MSP latency must be positive")
            inv += 1.0 / lat
        result = 1.0 / inv
        self._latency_cache = result
        return result

    # ------------------------------------------------------------------
    # DRB incremental reconfiguration (§3.2.4)
    # ------------------------------------------------------------------
    def _congestion_seed(self) -> float:
        """Queueing level to pre-load into freshly opened paths."""
        sampled = [m.queueing_s for m in self.active_msps if m.samples > 0]
        return max(sampled) if sampled else 0.0

    def expand(self) -> bool:
        """Open one more alternative path; False when already maximal."""
        if len(self._active) >= self.max_paths:
            return False
        seed = self._congestion_seed()
        for idx in range(self.max_paths):
            if idx not in self._active:
                self.msps[idx].reset(seed_queueing_s=seed)
                self._active.append(idx)
                self._active.sort()
                self.active_count = len(self._active)
                self._invalidate_active()
                return True
        return False

    def shrink(self) -> bool:
        """Close the worst-latency alternative path; keep the original."""
        if len(self._active) <= 1:
            return False
        closable = [i for i in self._active if i != 0]
        worst = max(closable, key=lambda i: self.msps[i].latency_s)
        self._active.remove(worst)
        self.active_count = len(self._active)
        self._invalidate_active()
        return True

    def prune(self, dead_indices) -> int:
        """Deactivate the given MSPs (fault reaction: their paths cross a
        dead link).  Unlike :meth:`shrink` this may close the original
        path too; when *every* active path is dead the metapath falls back
        to the original minimal path — the fabric then accounts the drops
        until the link recovers.  Returns the number of paths closed."""
        doomed = {i for i in dead_indices if 0 <= i < self.max_paths}
        if not doomed:
            return 0
        survivors = [i for i in self._active if i not in doomed]
        closed = len(self._active) - len(survivors)
        if not survivors:
            survivors = [0]
        self._active = survivors
        self.active_count = len(survivors)
        self._invalidate_active()
        return closed

    # ------------------------------------------------------------------
    # PR-DRB solution reuse (§3.2.8)
    # ------------------------------------------------------------------
    def apply_solution(self, indices: tuple[int, ...]) -> None:
        """Open the saved path set (additive: solutions are applied while
        congestion is building, so already-open paths stay open — closing
        is the low-zone shrink's job, Fig. 3.9)."""
        valid = sorted(
            {0, *self._active, *(i for i in indices if 0 <= i < self.max_paths)}
        )
        seed = self._congestion_seed()
        for idx in valid:
            if idx not in self._active:
                self.msps[idx].reset(seed_queueing_s=seed)
        self._active = valid
        self.active_count = len(self._active)
        self._invalidate_active()

    def record_ack(self, msp_index: int, queueing_s: float) -> None:
        """Fold an ACK's measured queueing delay into its MSP (Eq. 3.3)."""
        if 0 <= msp_index < self.max_paths:
            self.msps[msp_index].record(queueing_s)
            self._invalidate_latency()

    def path_for(self, msp_index: int) -> Path:
        return self.msps[msp_index].path
