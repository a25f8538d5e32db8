"""Fuzzers for the strings, bodies and files that arrive from outside.

A job-spec body (``POST /jobs``, ``python -m repro.parallel``), a policy
spec string, a topology spec string, a JSONL trace file, an MPI trace
file and the job journal are outside input: a malformed one must fail
with a ``ValueError`` naming what is wrong (a 400 at the HTTP layer),
never with a ``TypeError``, ``IndexError``, ``KeyError`` or
``AttributeError`` from deep inside a parser or a constructor.
"""

import io
import json
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.replay import CELL_FIELDS
from repro.apps import APP_TRACES
from repro.faults.campaign import FaultCampaignSpec
from repro.mpi.traceio import load_trace
from repro.network.config import ReliabilityConfig
from repro.obs.cli import main as obs_main, tail_trace
from repro.obs.tracer import read_trace
from repro.parallel.tasks import SERVABLE_KINDS, expand_grid
from repro.routing import make_policy, registered_policies
from repro.serve.jobs import JobStore
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
#: app names and the trace factories' own arguments, plus hostile ones.
app_args = field_dicts(["num_ranks", "iterations", "steps", "problem_class", "message_bytes",
                        "seed", "rng"], json_values | st.integers(-2, 80))
cell_fields = sorted({name for names in CELL_FIELDS.values() for name in names})
cells = field_dicts(
    [*cell_fields, "mesh_side", "spec"],
    json_values | fault_specs | st.lists(st.lists(st.integers(-1, 20), max_size=3), max_size=3)
    | st.sampled_from(sorted(APP_TRACES)) | app_args,
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


def _lines(records):
    """Journal or trace lines: JSON records, other JSON values and raw text
    (lone surrogates included, written out as invalid UTF-8)."""
    return st.lists(records.map(json.dumps) | json_values.map(json.dumps)
                    | st.text(max_size=12), max_size=4)


def _write(directory, name, lines, terminated=True) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + ("\n" if terminated else "")).encode(
            "utf-8", "surrogatepass"))
    return path


numbers = json_values | st.integers() | st.sampled_from([1e999, -1e999, 10**400])
trace_records = st.fixed_dictionaries({}, optional={
    "name": json_values, "ts": numbers, "track": st.lists(json_scalars, max_size=3) | numbers,
    "ph": json_values, "dur": numbers, "args": json_values,
    "type": st.just("header") | json_values,
})


@FUZZ
@given(_lines(trace_records))
def test_trace_readers_refuse_only_with_value_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "t.jsonl", lines)
        try:
            read_trace(path)
        except ValueError:
            pass
        try:
            tail_trace(path, out=io.StringIO())
        except ValueError:
            pass


@pytest.mark.parametrize("line", [
    "[1,2]", '{"name":"x"}', '{"name":"x","ts":0,"track":5}',
    pytest.param('{"name":"x","ts":' + "9" * 400 + ',"track":["fabric",0]}', id="huge-ts"),
])
def test_bad_trace_line_is_named_and_the_cli_exits_without_traceback(line, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "t.jsonl", ['{"type":"header"}', line])
        with pytest.raises(ValueError, match="t.jsonl:2: "):
            read_trace(path)
        for command in ("summarize", "tail"):
            assert obs_main([command, path]) == 2
            err = capsys.readouterr().err
            assert "t.jsonl:2: " in err and "Traceback" not in err


mpi_events = st.lists(
    st.sampled_from(["compute", "send", "recv", "isend", "irecv", "wait", "waitall",
                     "allreduce", "reduce", "bcast", "barrier"]).map(lambda kind: [kind])
    .flatmap(lambda head: st.lists(numbers, max_size=4).map(lambda args: head + args))
    | json_values,
    max_size=4,
)
mpi_traces = st.fixed_dictionaries({}, optional={
    "name": json_values, "num_ranks": numbers, "metadata": json_values,
    "events": st.dictionaries(st.sampled_from(["0", "1", "2", "-1", "x"]) | st.text(max_size=3),
                              mpi_events | json_values, max_size=3) | json_values,
}) | json_values


@FUZZ
@given(mpi_traces)
def test_mpi_trace_loader_refuses_only_with_value_error(data):
    try:
        load_trace(io.StringIO(json.dumps(data)))
    except ValueError:
        pass


job_records = st.fixed_dictionaries({}, optional={
    name: json_values | st.integers() for name in ("id", "spec", "grid_key", "state", "total",
                                                   "wall_s", "error", "cells", "bogus")
})
journal_records = st.fixed_dictionaries(
    {}, optional={"op": st.just("job") | json_values, "job": job_records | json_values})


@FUZZ
@given(_lines(journal_records), st.booleans())
def test_journal_replay_refuses_only_with_value_error(lines, terminated):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "jobs.jsonl", lines, terminated)
        try:
            store = JobStore(path)
        except ValueError:
            return
        store.create({}, "abcd", total=1)
        store.close()
        JobStore(path).close()  # what one start wrote, the next reads
