"""Saved-solution database (§3.2.8, Fig. 3.14).

Each source keeps, per destination, the best set of alternative paths it
found for every congestion *pattern* (contending-flow signature).  When a
similar pattern recurs (similarity >= ``match_threshold``, paper: 80 %),
the saved path set is re-applied at once, skipping DRB's gradual opening
transient.  Solutions are updated whenever a better (lower-latency)
configuration is found for the same pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.contending import (
    FlowSignature,
    overlap_similarity,
    signature_similarity,
)

_SIMILARITIES = {
    "overlap": overlap_similarity,
    "jaccard": signature_similarity,
}


@dataclass
class SavedSolution:
    """A remembered answer to one congestion pattern."""

    signature: FlowSignature
    #: metapath MSP indices that controlled the congestion.
    path_indices: tuple[int, ...]
    #: control metric: how long the congestion episode lasted under this
    #: configuration, seconds (lower = the solution tamed it faster).
    #: "Best solution is identified because the latency curve has reached
    #: its highest value and from now on it starts decreasing" (§3.1.1) —
    #: the merit of a solution is how quickly it turns the curve around.
    achieved_latency_s: float
    #: how many times this solution has been re-applied (Fig. 4.26 stats).
    reuse_count: int = 0


@dataclass
class SolutionDatabase:
    """Per-flow store of congestion patterns and their best solutions.

    ``similarity`` selects the approximate-matching flavour: ``"overlap"``
    (default — containment-style, lets a partially-reported recurring
    pattern match its remembered full signature) or ``"jaccard"``.
    """

    match_threshold: float = 0.8
    similarity: str = "overlap"
    solutions: list[SavedSolution] = field(default_factory=list)
    #: counters surfaced by the evaluation (patterns found / re-applied).
    lookups: int = 0
    hits: int = 0
    #: solutions forgotten because a saved path crossed a dead link.
    invalidated: int = 0

    def save(
        self,
        signature: FlowSignature,
        path_indices: tuple[int, ...],
        achieved_latency_s: float,
    ) -> SavedSolution:
        """Insert or improve the solution for ``signature``.

        A signature matching an existing entry (>= threshold) updates that
        entry when the new configuration achieved lower latency; otherwise
        a new pattern is learned.
        """
        if not signature:
            raise ValueError("cannot save a solution for an empty signature")
        best, best_sim = self._best_match(signature)
        if best is not None and best_sim >= self.match_threshold:
            # Keep the configuration that achieved the lowest latency for
            # this pattern ("the best solution saved may be further
            # updated, if the method finds a better combination", §3.2).
            better = achieved_latency_s < best.achieved_latency_s
            if better:
                best.path_indices = tuple(path_indices)
                best.achieved_latency_s = achieved_latency_s
                # Keep the most complete description of the pattern: a
                # partially-reported recurrence must not erode the stored
                # signature.
                if len(signature) > len(best.signature):
                    best.signature = signature
            return best
        solution = SavedSolution(
            signature=signature,
            path_indices=tuple(path_indices),
            achieved_latency_s=achieved_latency_s,
        )
        self.solutions.append(solution)
        return solution

    def lookup(self, signature: FlowSignature) -> SavedSolution | None:
        """Best-matching saved solution for ``signature``, or None."""
        self.lookups += 1
        if not signature:
            return None
        best, best_sim = self._best_match(signature)
        if best is not None and best_sim >= self.match_threshold:
            self.hits += 1
            best.reuse_count += 1
            return best
        return None

    def invalidate(self, path_is_alive) -> int:
        """Forget solutions whose saved path set crosses a dead link.

        ``path_is_alive(msp_index) -> bool`` judges each saved MSP index;
        a solution survives only if every path it would open is alive.
        Re-applying a dead configuration would steer a recurring pattern
        straight back into the fault, so the flow must relearn instead.
        Returns the number of solutions removed.
        """
        keep = []
        removed = 0
        for sol in self.solutions:
            if all(path_is_alive(i) for i in sol.path_indices):
                keep.append(sol)
            else:
                removed += 1
        if removed:
            self.solutions = keep
            self.invalidated += removed
        return removed

    def _best_match(self, signature: FlowSignature) -> tuple[SavedSolution | None, float]:
        measure = _SIMILARITIES[self.similarity]
        best: SavedSolution | None = None
        best_key = (-1.0, 0.0)
        for sol in self.solutions:
            sim = measure(signature, sol.signature)
            key = (sim, -sol.achieved_latency_s)
            if key > best_key:
                best_key = key
                best = sol
        return best, best_key[0]

    # ------------------------------------------------------------------
    # Serialization (enables the paper's "static variation", §5.2: pre-
    # loading routers with offline meta-information about the patterns).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready encoding of every saved solution."""
        return {
            "match_threshold": self.match_threshold,
            "similarity": self.similarity,
            "solutions": [
                {
                    "signature": sorted([s, d] for s, d in sol.signature),
                    "path_indices": list(sol.path_indices),
                    "achieved_latency_s": sol.achieved_latency_s,
                    "reuse_count": sol.reuse_count,
                }
                for sol in self.solutions
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolutionDatabase":
        """Rebuild a database from :meth:`to_dict` output."""
        from repro.network.packet import ContendingFlow

        db = cls(
            match_threshold=float(data.get("match_threshold", 0.8)),
            similarity=data.get("similarity", "overlap"),
        )
        for item in data.get("solutions", []):
            db.solutions.append(
                SavedSolution(
                    signature=frozenset(
                        ContendingFlow(int(s), int(d)) for s, d in item["signature"]
                    ),
                    path_indices=tuple(item["path_indices"]),
                    achieved_latency_s=float(item["achieved_latency_s"]),
                    reuse_count=int(item.get("reuse_count", 0)),
                )
            )
        return db

    # ------------------------------------------------------------------
    @property
    def patterns_learned(self) -> int:
        return len(self.solutions)

    @property
    def patterns_reapplied(self) -> int:
        return sum(1 for s in self.solutions if s.reuse_count > 0)

    @property
    def total_reuses(self) -> int:
        return sum(s.reuse_count for s in self.solutions)
