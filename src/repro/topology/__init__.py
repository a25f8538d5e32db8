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
    "Topology",
    "Mesh2D",
    "Torus2D",
    "KaryNTree",
    "Hypercube",
    "KaryNCube",
    "SlimmedKaryNTree",
    "Dragonfly",
]
