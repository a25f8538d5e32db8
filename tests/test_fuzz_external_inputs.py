"""Fuzzers for the strings and bodies that arrive from outside.

A job-spec body (``POST /jobs``, ``python -m repro.parallel``), a policy
spec string and a topology spec string are user input: a malformed one
must fail with a ``ValueError`` naming what is wrong (a 400 at the HTTP
layer), never with a ``TypeError``, ``IndexError`` or ``AttributeError``
from deep inside a parser or a constructor.
"""

from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.analysis.replay import CELL_FIELDS
from repro.faults.campaign import FaultCampaignSpec
from repro.network.config import ReliabilityConfig
from repro.parallel.tasks import SERVABLE_KINDS, expand_grid
from repro.routing import make_policy, registered_policies
from repro.topology import make_topology

FUZZ = settings(max_examples=300, deadline=None)

POLICY_KEYS = ("max_paths", "seed", "ema_alpha", "high_factor", "match_threshold",
               "trend_detection", "predictive", "hold_s", "config", "rng", "nope")
TOPOLOGY_FAMILIES = ("mesh", "torus", "fattree", "slimtree", "hypercube", "dragonfly",
                     "karyncube", "nope")

small_numbers = st.integers(-2, 9) | st.floats(-1.0, 9.0) | st.sampled_from(
    ["", "x", "1e400", "nan", "-0", "true", "2.5"]
)


@st.composite
def spec_strings(draw, names, keys, positional=False):
    """``name:args`` with plausible and hostile names and arguments."""
    name = draw(st.sampled_from(names) | st.text(max_size=6))
    values = draw(st.lists(small_numbers, max_size=4))
    if positional:
        args = [str(v) for v in values]
    else:
        args = [f"{draw(st.sampled_from(keys) | st.text(max_size=4))}={v}" for v in values]
    separator = draw(st.sampled_from([":", "", "::"]))
    return name + separator + ",".join(args)


json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(allow_nan=True)
    | st.text(max_size=6)
    | st.sampled_from(["mesh:4", "mesh:abc", "fattree:4,2", "drb", "pr-drb:max_paths=1",
                       "bit-reversal", "router", "destination"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)


def field_dicts(names, values):
    return st.dictionaries(st.sampled_from([*names, "bogus"]), values, max_size=len(names))


reliability = field_dicts([f.name for f in fields(ReliabilityConfig)], json_values)
fault_specs = field_dicts([f.name for f in fields(FaultCampaignSpec)], json_values | reliability)
cell_fields = sorted({name for names in CELL_FIELDS.values() for name in names})
cells = field_dicts(
    [*cell_fields, "mesh_side", "spec"],
    json_values | fault_specs | st.lists(st.lists(st.integers(-1, 20), max_size=3), max_size=3),
)
kinds = st.sampled_from([*SERVABLE_KINDS, "selftest"]) | json_values
grids = st.fixed_dictionaries(
    {},
    optional={
        "kind": kinds,
        "policies": st.lists(st.sampled_from(registered_policies()) | json_scalars,
                             max_size=3) | json_values,
        "seeds": st.lists(st.integers(-2, 5), max_size=3) | json_values,
        "mesh_side": json_values,
        "repetitions": json_values,
        "ack_loss": json_values,
        "params": cells | json_values,
    },
)
task_lists = st.fixed_dictionaries({
    "tasks": st.lists(
        st.fixed_dictionaries({"kind": kinds},
                              optional={"params": cells | json_values, "label": json_values}),
        max_size=3,
    ) | json_values,
})
bodies = grids | task_lists | json_values


@FUZZ
@given(bodies)
def test_expand_grid_refuses_only_with_value_error(body):
    try:
        expand_grid(body)
    except ValueError:
        pass


@FUZZ
@given(spec_strings(registered_policies(), POLICY_KEYS))
def test_make_policy_refuses_only_with_value_error(spec):
    try:
        make_policy(spec)
    except ValueError:
        pass


@FUZZ
@given(spec_strings(TOPOLOGY_FAMILIES, (), positional=True))
def test_make_topology_refuses_only_with_value_error(spec):
    try:
        make_topology(spec)
    except ValueError:
        pass
