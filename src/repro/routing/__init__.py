"""Routing policies (§2.1.4 taxonomy; Chapter 3 for the DRB family).

Baselines: deterministic minimal, oblivious random/cyclic, source-adaptive.
Contribution: DRB, PR-DRB (predictive), FR-DRB (fast response) and the
predictive FR-DRB — all source-routed multipath policies balancing traffic
over a metapath of multistep paths.  The notified family
(:mod:`repro.routing.notified`) adds ARN-style escalation and a UGAL
baseline on top of the router-based notification path.

Policies resolve through a declarative registry
(:mod:`repro.routing.registry`): :func:`make_policy` accepts a
registered name or a ``"name:key=val,..."`` spec string, and
:func:`register` lets new policies hook in without touching this module.
"""

from repro.routing.base import RoutingPolicy
from repro.routing.deterministic import DeterministicPolicy
from repro.routing.oblivious import RandomPolicy, CyclicPolicy
from repro.routing.adaptive import InNetworkAdaptivePolicy, SourceAdaptivePolicy
from repro.routing.drb import DRBConfig, DRBPolicy
from repro.routing.prdrb import PRDRBConfig, PRDRBPolicy
from repro.routing.frdrb import FRDRBConfig, FRDRBPolicy
from repro.routing.registry import (
    config_factory,
    make_policy,
    parse_policy_spec,
    policy_aliases,
    register,
    registered_policies,
)
from repro.routing.notified import (
    NotifiedAdaptivePolicy,
    NotifiedConfig,
    UGALConfig,
    UGALPolicy,
)

__all__ = [
    "RoutingPolicy",
    "DeterministicPolicy",
    "RandomPolicy",
    "CyclicPolicy",
    "SourceAdaptivePolicy",
    "InNetworkAdaptivePolicy",
    "DRBPolicy",
    "PRDRBPolicy",
    "FRDRBPolicy",
    "NotifiedAdaptivePolicy",
    "UGALPolicy",
    "config_factory",
    "make_policy",
    "parse_policy_spec",
    "policy_aliases",
    "register",
    "registered_policies",
]

register("deterministic", DeterministicPolicy)
register("random", RandomPolicy)
register("cyclic", CyclicPolicy)
register("adaptive", SourceAdaptivePolicy)
register("adaptive-hop", InNetworkAdaptivePolicy, aliases=("inadaptive",))
register("drb", config_factory(DRBPolicy, DRBConfig))
register("pr-drb", config_factory(PRDRBPolicy, PRDRBConfig), aliases=("prdrb",))
register(
    "fr-drb",
    config_factory(FRDRBPolicy, FRDRBConfig, predictive=False),
    aliases=("frdrb",),
)
register(
    "pr-fr-drb",
    config_factory(FRDRBPolicy, FRDRBConfig, predictive=True),
    aliases=("predictive-fr-drb",),
)
