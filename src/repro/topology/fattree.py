"""k-ary n-tree (fat-tree) topology (§2.1.1, §2.1.5, Fig. 2.3d).

Following Petrini & Vanneschi's construction used by the thesis:

* ``k**n`` hosts, each identified by ``n`` base-k digits ``(p0..p_{n-1})``;
* ``n`` levels of ``k**(n-1)`` switches; a switch is ``(level, w)`` with
  ``w`` a tuple of ``n-1`` base-k digits.  Level ``n-1`` is nearest the
  hosts, level 0 holds the roots.
* Switch ``(l, w)`` connects *down* to the k switches ``(l+1, w')`` where
  ``w'`` differs from ``w`` only in digit ``l`` (or, at level ``n-1``, to
  hosts ``(w, c)``), and *up* to the k switches ``(l-1, w')`` where ``w'``
  differs only in digit ``l-1``.

Minimal routing ascends adaptively to a nearest common ancestor (NCA) at
the level equal to the common digit-prefix length of the two hosts, then
descends deterministically (§2.1.5).  The set of NCAs — one per choice of
the freed digits — gives the structural path redundancy DRB exploits:
:meth:`KaryNTree.alternative_paths` enumerates one concrete up/down path
per ancestor.
"""

from __future__ import annotations

from itertools import product

from repro.topology.base import Path, Topology


class KaryNTree(Topology):
    """k-ary n-tree with deterministic destination-digit up-routing."""

    kind = "karyntree"

    def __init__(self, k: int, n: int) -> None:
        if k < 2 or n < 1:
            raise ValueError("need k >= 2 and n >= 1")
        self.k = k
        self.n = n
        self._switches_per_level = k ** (n - 1)

    # -- digit helpers ---------------------------------------------------
    def host_digits(self, host: int) -> tuple[int, ...]:
        """Host id -> n base-k digits, most significant first."""
        digits = []
        for _ in range(self.n):
            digits.append(host % self.k)
            host //= self.k
        return tuple(reversed(digits))

    def host_from_digits(self, digits: tuple[int, ...]) -> int:
        value = 0
        for d in digits:
            value = value * self.k + d
        return value

    def switch_id(self, level: int, w: tuple[int, ...]) -> int:
        """(level, w digits) -> router id."""
        if not 0 <= level < self.n:
            raise ValueError(f"level {level} out of range")
        if len(w) != self.n - 1:
            raise ValueError("switch word must have n-1 digits")
        value = 0
        for d in w:
            if not 0 <= d < self.k:
                raise ValueError(f"digit {d} out of range")
            value = value * self.k + d
        return level * self._switches_per_level + value

    def switch_coords(self, router: int) -> tuple[int, tuple[int, ...]]:
        """Router id -> (level, w digits)."""
        level, value = divmod(router, self._switches_per_level)
        w = []
        for _ in range(self.n - 1):
            w.append(value % self.k)
            value //= self.k
        return level, tuple(reversed(w))

    # -- Topology API ----------------------------------------------------
    @property
    def num_hosts(self) -> int:
        return self.k**self.n

    @property
    def num_routers(self) -> int:
        return self.n * self._switches_per_level

    def host_router(self, host: int) -> int:
        digits = self.host_digits(host)
        return self.switch_id(self.n - 1, digits[: self.n - 1])

    def router_hosts(self, router: int) -> tuple[int, ...]:
        level, w = self.switch_coords(router)
        if level != self.n - 1:
            return ()
        return tuple(self.host_from_digits(w + (c,)) for c in range(self.k))

    def router_neighbors(self, router: int) -> tuple[int, ...]:
        level, w = self.switch_coords(router)
        out = []
        if level > 0:  # up-neighbours: digit level-1 freed
            for c in range(self.k):
                w2 = w[: level - 1] + (c,) + w[level:]
                out.append(self.switch_id(level - 1, w2))
        if level < self.n - 1:  # down-neighbours: digit level freed
            for c in range(self.k):
                w2 = w[:level] + (c,) + w[level + 1 :]
                out.append(self.switch_id(level + 1, w2))
        return tuple(dict.fromkeys(out))

    # -- routing -----------------------------------------------------------
    def nca_level(self, src_host: int, dst_host: int) -> int:
        """Level of the nearest common ancestors (= common prefix length)."""
        a = self.host_digits(src_host)
        b = self.host_digits(dst_host)
        prefix = 0
        for da, db in zip(a[: self.n - 1], b[: self.n - 1]):
            if da != db:
                break
            prefix += 1
        return prefix if a[: self.n - 1] != b[: self.n - 1] else self.n - 1

    def _descend(self, level: int, w: tuple[int, ...], dst_digits: tuple[int, ...]) -> list[int]:
        """Deterministic down-route from switch (level, w) to dst's leaf."""
        hops = []
        while level < self.n - 1:
            w = w[:level] + (dst_digits[level],) + w[level + 1 :]
            level += 1
            hops.append(self.switch_id(level, w))
        return hops

    def _path_via_ancestor(
        self, src_host: int, dst_host: int, freed: tuple[int, ...]
    ) -> Path:
        """Concrete up/down path using ``freed`` digits for the NCA word."""
        a = self.host_digits(src_host)
        b = self.host_digits(dst_host)
        nca = self.nca_level(src_host, dst_host)
        w = a[: self.n - 1]
        level = self.n - 1
        path = [self.switch_id(level, w)]
        idx = 0
        while level > nca:
            # Ascending from level l to l-1 frees digit l-1.
            digit = freed[idx]
            idx += 1
            w = w[: level - 1] + (digit,) + w[level:]
            level -= 1
            path.append(self.switch_id(level, w))
        path.extend(self._descend(level, w, b[: self.n - 1]))
        return tuple(path)

    def minimal_route(self, src_router: int, dst_router: int) -> Path:
        """Deterministic minimal route between any two switches.

        The tree graph is layered, so every BFS shortest path is a valid
        up-then-down route; neighbour order makes tie-breaking
        deterministic.  Leaf-to-leaf data traffic uses the faster
        :meth:`host_minimal_route` instead; this generic form serves ACK
        reverse paths and tests.
        """
        if src_router == dst_router:
            return (src_router,)
        parent: dict[int, int] = {src_router: -1}
        frontier = [src_router]
        while frontier and dst_router not in parent:
            nxt: list[int] = []
            for node in frontier:
                for nb in self.router_neighbors(node):
                    if nb not in parent:
                        parent[nb] = node
                        nxt.append(nb)
            frontier = nxt
        if dst_router not in parent:
            raise ValueError(
                f"no route between switches {src_router} and {dst_router}"
            )
        path = [dst_router]
        while path[-1] != src_router:
            path.append(parent[path[-1]])
        return tuple(reversed(path))

    def host_minimal_route(self, src_host: int, dst_host: int) -> Path:
        """Deterministic leaf-to-leaf route (destination digits ascend)."""
        b = self.host_digits(dst_host)
        nca = self.nca_level(src_host, dst_host)
        freed_count = (self.n - 1) - nca
        freed = tuple(b[nca + i] if nca + i < self.n else 0 for i in range(freed_count))
        return self._path_via_ancestor(src_host, dst_host, freed)

    # -- DRB redundancy ----------------------------------------------------
    def alternative_paths(self, src_host: int, dst_host: int, max_paths: int) -> list[Path]:
        """One concrete path per nearest-common-ancestor choice.

        Path 0 is the deterministic route; subsequent paths iterate the
        freed up-route digits, which in a k-ary n-tree is exactly the set
        of minimal paths (§2.1.5).  All are minimal, so the paper's MSP
        non-minimality never arises here — path diversity comes from
        distinct ancestors instead of detour INs.
        """
        src_r = self.host_router(src_host)
        dst_r = self.host_router(dst_host)
        if src_r == dst_r:
            return [(src_r,)]
        original = self.host_minimal_route(src_host, dst_host)
        paths: list[Path] = [original]
        seen = {original}
        nca = self.nca_level(src_host, dst_host)
        freed_count = (self.n - 1) - nca
        combos = list(product(range(self.k), repeat=freed_count))
        # Start the enumeration at a per-flow offset: if every flow listed
        # ancestors in the same order, all first alternatives would funnel
        # into the same up-switch and the "alternative" paths of different
        # flows would collide with each other by construction.
        offset = (src_host * 31 + dst_host * 17) % max(1, len(combos))
        for j in range(len(combos)):
            if len(paths) >= max_paths:
                break
            freed = combos[(offset + j) % len(combos)]
            candidate = self._path_via_ancestor(src_host, dst_host, freed)
            if candidate not in seen:
                seen.add(candidate)
                paths.append(candidate)
        return paths
