"""Network topologies (§2.1.1).

The paper evaluates PR-DRB on an 8x8 mesh and on k-ary n-tree (fat-tree)
networks; torus and hypercube are provided as additional direct topologies
for the generic DRB path-expansion machinery, and the canonical dragonfly
hosts the notified-adaptive policy family (arXiv:2502.00616).
"""

from repro.topology.base import Topology
from repro.topology.mesh import Mesh2D, Torus2D
from repro.topology.fattree import KaryNTree
from repro.topology.hypercube import Hypercube
from repro.topology.karycube import KaryNCube
from repro.topology.slimtree import SlimmedKaryNTree
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "make_topology",
    "Topology",
    "Mesh2D",
    "Torus2D",
    "KaryNTree",
    "Hypercube",
    "KaryNCube",
    "SlimmedKaryNTree",
    "Dragonfly",
]

#: family -> (class, argument kinds: ``i`` an integer, ``f`` a number).
#: Each family takes exactly that many arguments.
_TOPOLOGY_BUILDERS: dict[str, tuple[type, str]] = {
    "mesh": (Mesh2D, "i"),
    "torus": (Torus2D, "i"),
    "fattree": (KaryNTree, "ii"),
    "slimtree": (SlimmedKaryNTree, "iif"),
    "hypercube": (Hypercube, "i"),
    "dragonfly": (Dragonfly, "iii"),
    "karyncube": (KaryNCube, "ii"),
}


def _coerce_arg(text: str):
    """``"4"`` -> int 4, ``"0.5"`` -> float 0.5 (kept apart, so a float
    where an integer belongs is refused rather than truncated)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def make_topology(spec: str) -> Topology:
    """Build a topology from a declarative spec string.

    Specs: ``mesh:8``, ``torus:8``, ``fattree:4,3``, ``slimtree:4,3,0.5``,
    ``hypercube:6``, ``dragonfly:4,2,2``, ``karyncube:4,3``.  The grammar
    is exact: a family takes exactly its argument count, and integer
    arguments must be written as integers; anything else raises
    ``ValueError``.  Each call returns a fresh instance (factory
    semantics), so a spec can replace the ``topology_factory`` callables
    used throughout :mod:`repro.experiments`.  The instance comes with
    its route cache pre-enabled (see ``Topology.enable_route_cache``):
    workers answer the same minimal-route queries for every packet of a
    cell.
    """
    name, _, arg_text = spec.partition(":")
    entry = _TOPOLOGY_BUILDERS.get(name.strip())
    if entry is None:
        raise ValueError(
            f"unknown topology spec {spec!r}; expected one of "
            f"{sorted(_TOPOLOGY_BUILDERS)} with ':'-separated arguments"
        )
    cls, kinds = entry
    try:
        args = [_coerce_arg(part.strip()) for part in arg_text.split(",") if part.strip()]
        if len(args) != len(kinds):
            raise ValueError(
                f"{name.strip()} takes exactly {len(kinds)} argument(s), got {len(args)}"
            )
        for value, kind in zip(args, kinds):
            if kind == "i" and not isinstance(value, int):
                raise ValueError(f"argument {value!r} must be an integer")
        topology = cls(*[float(v) if kind == "f" else v for v, kind in zip(args, kinds)])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad topology spec {spec!r}: {exc}") from exc
    topology.enable_route_cache()
    return topology
