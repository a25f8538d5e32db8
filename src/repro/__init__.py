"""repro — Predictive and Distributed Routing Balancing (PR-DRB).

A from-scratch reproduction of Núñez Castillo et al., *Predictive and
Distributed Routing Balancing for High Speed Interconnection Networks*
(IEEE CLUSTER 2011 / UAB PhD thesis 2013): a discrete-event
interconnection-network simulator, the DRB / PR-DRB / FR-DRB routing
family, synthetic and application-trace workloads, and the evaluation
harness regenerating the paper's tables and figures.

Quickstart::

    from repro import build_network, run_synthetic

    net = build_network(topology="fattree:4,3", policy="pr-drb")
    result = run_synthetic(net, pattern="perfect-shuffle",
                           rate_mbps=400, duration_s=0.002)
    print(result.summary())
"""

from repro.sim import Simulator, RandomStreams
from repro.topology import Mesh2D, Torus2D, KaryNTree, Hypercube
from repro.network import Fabric, NetworkConfig
from repro.routing import (
    DeterministicPolicy,
    RandomPolicy,
    CyclicPolicy,
    SourceAdaptivePolicy,
    DRBPolicy,
    PRDRBPolicy,
    FRDRBPolicy,
    make_policy,
)
from repro.metrics import StatsRecorder
from repro.traffic import BurstSchedule, make_pattern
from repro.api import NetworkHandle, RunResult, build_network, run_synthetic

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "RandomStreams",
    "Mesh2D",
    "Torus2D",
    "KaryNTree",
    "Hypercube",
    "Fabric",
    "NetworkConfig",
    "DeterministicPolicy",
    "RandomPolicy",
    "CyclicPolicy",
    "SourceAdaptivePolicy",
    "DRBPolicy",
    "PRDRBPolicy",
    "FRDRBPolicy",
    "make_policy",
    "StatsRecorder",
    "BurstSchedule",
    "make_pattern",
    "NetworkHandle",
    "RunResult",
    "build_network",
    "run_synthetic",
    "__version__",
]
