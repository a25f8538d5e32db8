"""Topology abstraction.

A topology owns two id spaces: *hosts* (``0..num_hosts-1``, the paper's
terminal/processing nodes) and *routers* (``0..num_routers-1``, the paper's
network nodes).  It answers three questions the rest of the system needs:

* adjacency — :meth:`Topology.router_neighbors`;
* deterministic minimal routing — :meth:`Topology.minimal_route`, used both
  for the baseline deterministic algorithm and for each segment of a
  DRB multistep path (Eq. 3.1 builds MSPs from minimal segments);
* path redundancy — :meth:`Topology.alternative_paths`, the ordered list of
  concrete router paths DRB/PR-DRB may open between a host pair (§3.2.3).

Paths are tuples of router ids from the source's router to the
destination's router, inclusive.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

Path = tuple[int, ...]


class Topology(ABC):
    """Base class for all interconnection topologies."""

    #: short machine name, e.g. ``"mesh2d"``; subclasses override.
    kind: str = "abstract"

    # ------------------------------------------------------------------
    # Sizes and id spaces
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def num_hosts(self) -> int:
        """Number of terminal (processing) nodes."""

    @property
    @abstractmethod
    def num_routers(self) -> int:
        """Number of network nodes (switches/routers)."""

    @abstractmethod
    def host_router(self, host: int) -> int:
        """Router to which ``host`` attaches."""

    def router_hosts(self, router: int) -> tuple[int, ...]:
        """Hosts attached to ``router`` (default: scan; subclasses may override)."""
        return tuple(
            h for h in range(self.num_hosts) if self.host_router(h) == router
        )

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    @abstractmethod
    def router_neighbors(self, router: int) -> tuple[int, ...]:
        """Routers directly linked to ``router`` (no duplicates, no self)."""

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @abstractmethod
    def minimal_route(self, src_router: int, dst_router: int) -> Path:
        """Deterministic minimal router path, inclusive of both endpoints."""

    def distance(self, src_router: int, dst_router: int) -> int:
        """Hop count of the deterministic minimal route."""
        return len(self.minimal_route(src_router, dst_router)) - 1

    def minimal_next_hops(self, router: int, dst_router: int) -> tuple[int, ...]:
        """All neighbours of ``router`` on *some* minimal path to the
        destination — the per-hop choice set of in-network adaptive
        routing (Fig. 2.5).  The base implementation scans neighbours by
        distance; subclasses may specialize.
        """
        if router == dst_router:
            return ()
        here = self.distance(router, dst_router)
        return tuple(
            nb
            for nb in self.router_neighbors(router)
            if self.distance(nb, dst_router) == here - 1
        )

    # ------------------------------------------------------------------
    # DRB path redundancy
    # ------------------------------------------------------------------
    def alternative_paths(self, src_host: int, dst_host: int, max_paths: int) -> list[Path]:
        """Ordered candidate paths between a host pair.

        Element 0 is always the deterministic minimal path.  Subsequent
        elements are multistep paths ``S -> IN1 -> IN2 -> D`` built from
        intermediate nodes at increasing ring distance from the original
        path (§3.2.3, Fig. 3.6/3.7).  Subclasses with richer structural
        redundancy (fat-trees) override this with topology-aware
        enumeration.
        """
        src_r = self.host_router(src_host)
        dst_r = self.host_router(dst_host)
        original = self.minimal_route(src_r, dst_r)
        paths: list[Path] = [original]
        seen: set[Path] = {original}
        if src_r == dst_r:
            return paths
        # Intermediate nodes: neighbours of the source router (IN1) and of
        # the destination router (IN2), nearest rings first.
        in1_candidates = self._ring_candidates(src_r, exclude=original)
        in2_candidates = self._ring_candidates(dst_r, exclude=original)
        for in1 in in1_candidates:
            for in2 in in2_candidates:
                if len(paths) >= max_paths:
                    return paths
                msp = self._concat_segments(src_r, in1, in2, dst_r)
                if msp is not None and msp not in seen:
                    seen.add(msp)
                    paths.append(msp)
        # Fallback: single-intermediate MSPs if the pairwise scheme ran dry.
        for in1 in in1_candidates:
            if len(paths) >= max_paths:
                break
            msp = self._concat_segments(src_r, in1, dst_r)
            if msp is not None and msp not in seen:
                seen.add(msp)
                paths.append(msp)
        return paths

    def _ring_candidates(self, router: int, exclude: Sequence[int]) -> list[int]:
        """Neighbours of ``router`` preferring those off the original path."""
        excluded = set(exclude)
        neighbors = self.router_neighbors(router)
        off_path = [n for n in neighbors if n not in excluded]
        on_path = [n for n in neighbors if n in excluded and n != router]
        return off_path + on_path

    def _concat_segments(self, *waypoints: int) -> Path | None:
        """Concatenate minimal segments through ``waypoints`` (Eq. 3.1).

        Returns None when the concatenation revisits a router (the paper's
        MSPs never loop; looping candidates are discarded).
        """
        full: list[int] = [waypoints[0]]
        for a, b in zip(waypoints, waypoints[1:]):
            seg = self.minimal_route(a, b)
            full.extend(seg[1:])
        if len(set(full)) != len(full):
            return None
        return tuple(full)

    # ------------------------------------------------------------------
    # Hot-path memoization
    # ------------------------------------------------------------------
    def enable_route_cache(self) -> None:
        """Memoize the pure routing queries on *this instance*.

        Topologies are immutable once constructed, and the fabric asks the
        same ``minimal_route`` / ``minimal_next_hops`` / ``host_router``
        questions for every packet — memoizing them turns per-packet graph
        walks into dict lookups (see docs/performance.md).  Installed
        automatically by :class:`repro.network.fabric.Fabric` and by
        :func:`repro.topology.make_topology`; idempotent.

        ``alternative_paths`` hits return a fresh list each call (the
        cached paths themselves are immutable tuples), so callers that
        mutate the returned list cannot corrupt the cache.
        """
        if self.__dict__.get("_route_cache_enabled"):
            return
        self.__dict__["_route_cache_enabled"] = True
        for name in (
            "host_router",
            "router_neighbors",
            "minimal_route",
            "distance",
            "minimal_next_hops",
        ):
            fn = getattr(self, name)
            cache: dict = {}

            def memo(*args, _fn=fn, _cache=cache):
                hit = _cache.get(args)
                if hit is None:
                    hit = _cache[args] = _fn(*args)
                return hit

            memo.__name__ = f"{name}_memo"
            self.__dict__[name] = memo
        alt = self.alternative_paths
        alt_cache: dict = {}

        def alternative_paths_memo(
            src_host: int, dst_host: int, max_paths: int,
            _fn=alt, _cache=alt_cache,
        ) -> list[Path]:
            key = (src_host, dst_host, max_paths)
            hit = _cache.get(key)
            if hit is None:
                hit = _cache[key] = tuple(_fn(src_host, dst_host, max_paths))
            return list(hit)

        self.__dict__["alternative_paths"] = alternative_paths_memo

    #: instance-dict entries installed by :meth:`enable_route_cache`.
    _ROUTE_MEMO_NAMES = (
        "host_router",
        "router_neighbors",
        "minimal_route",
        "distance",
        "minimal_next_hops",
        "alternative_paths",
    )

    def __getstate__(self):
        """Pickle without the memo closures (they are unpicklable).

        The memoized queries are pure functions of the immutable topology,
        so dropping the warm cache and rebuilding it on restore cannot
        change any routing answer — checkpoints stay behaviour-identical.
        """
        state = dict(self.__dict__)
        if state.pop("_route_cache_enabled", None):
            for name in self._ROUTE_MEMO_NAMES:
                state.pop(name, None)
            state["_route_cache_was_enabled"] = True
        return state

    def __setstate__(self, state) -> None:
        rebuild = state.pop("_route_cache_was_enabled", False)
        self.__dict__.update(state)
        if rebuild:
            self.enable_route_cache()

    # ------------------------------------------------------------------
    # Validation helpers (used by tests and the fabric)
    # ------------------------------------------------------------------
    def validate_path(self, path: Iterable[int]) -> bool:
        """True when consecutive routers on ``path`` are adjacent."""
        path = list(path)
        if not path:
            return False
        for a, b in zip(path, path[1:]):
            if b not in self.router_neighbors(a):
                return False
        return True

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.kind}: {self.num_hosts} hosts, {self.num_routers} routers"
        )
