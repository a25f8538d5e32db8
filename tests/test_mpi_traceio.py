"""Tests for trace serialization."""

import io

import pytest

from repro.apps.pop import pop_trace
from repro.mpi.events import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Irecv,
    Isend,
    Recv,
    Reduce,
    Send,
    Wait,
    Waitall,
)
from repro.mpi.trace import Trace
from repro.mpi.traceio import (
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)


def full_vocabulary_trace():
    trace = Trace("vocab", 2, metadata={"origin": "test"})
    trace.extend(
        0,
        [
            Compute(1e-5),
            Send(1, 1024, tag=3),
            Isend(1, 2048, tag=4, request=1),
            Wait(request=1),
            Allreduce(64),
            Reduce(128, root=1),
            Bcast(256, root=0),
            Barrier(),
        ],
    )
    trace.extend(
        1,
        [
            Recv(0, tag=3),
            Irecv(0, tag=4, request=2),
            Waitall(),
            Allreduce(64),
            Reduce(128, root=1),
            Bcast(256, root=0),
            Barrier(),
        ],
    )
    return trace


def test_roundtrip_preserves_everything():
    trace = full_vocabulary_trace()
    again = trace_from_dict(trace_to_dict(trace))
    assert again.name == trace.name
    assert again.num_ranks == trace.num_ranks
    assert again.metadata == trace.metadata
    for rank in trace.ranks():
        assert again.events[rank] == trace.events[rank]


def test_roundtrip_synthesized_app_trace():
    trace = pop_trace(num_ranks=8, steps=1)
    again = trace_from_dict(trace_to_dict(trace))
    assert again.total_events == trace.total_events
    assert again.events[3] == trace.events[3]


def test_save_load_file(tmp_path):
    trace = full_vocabulary_trace()
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    again = load_trace(path)
    assert again.events[0] == trace.events[0]


def test_save_load_stream():
    trace = full_vocabulary_trace()
    buf = io.StringIO()
    save_trace(trace, buf)
    buf.seek(0)
    again = load_trace(buf)
    assert again.events[1] == trace.events[1]


def test_unknown_event_kind_rejected():
    with pytest.raises(ValueError):
        trace_from_dict({"name": "x", "num_ranks": 1, "events": {"0": [["warp", 9]]}})


def test_loaded_trace_replays():
    from repro.mpi.runtime import TraceRuntime
    from repro.network.config import NetworkConfig
    from repro.network.fabric import Fabric
    from repro.routing.deterministic import DeterministicPolicy
    from repro.sim.engine import Simulator
    from repro.topology.mesh import Mesh2D

    trace = trace_from_dict(trace_to_dict(pop_trace(num_ranks=8, steps=1)))
    fabric = Fabric(Mesh2D(3), NetworkConfig(), DeterministicPolicy(), Simulator())
    rt = TraceRuntime(fabric, trace)
    assert rt.run() > 0


def _two_ranks(*events):
    return {"name": "bad", "num_ranks": 2, "events": {"0": [["compute", 1e-6], *events]}}


@pytest.mark.parametrize("data, message", [
    (_two_ranks(["send", 7, 64, 0]), "rank 0 event 1: 'send' needs a rank of 0..1, got 7"),
    (_two_ranks(["send", 1, -64, 0]), "rank 0 event 1: 'send' needs a size >= 1"),
    (_two_ranks(["allreduce", 0]), "rank 0 event 1: 'allreduce' needs a size >= 1"),
    (_two_ranks(["compute", float("nan")]), "rank 0 event 1: 'compute' needs a finite"),
    (_two_ranks(["compute", -1]), "rank 0 event 1: 'compute' needs a finite"),
    (_two_ranks(["compute", float("inf")]), "rank 0 event 1: 'compute' needs a finite"),
    (_two_ranks(["send", 1]), "rank 0 event 1: 'send' takes 3 argument"),
    (_two_ranks(["recv", -1, 0]), "rank 0 event 1: 'recv' needs a rank"),
    (_two_ranks(["irecv", 2, 0, 1]), "rank 0 event 1: 'irecv' needs a rank"),
    (_two_ranks(["reduce", 8, 2]), "rank 0 event 1: 'reduce' needs a rank"),
    (_two_ranks(["bcast", 8, 5]), "rank 0 event 1: 'bcast' needs a rank"),
    (_two_ranks(["send", 1.0, 64, 0]), "rank 0 event 1: 'send' needs a rank"),
    (_two_ranks([["send"], 1]), "rank 0 event 1: not a known"),
    ([], "must be a JSON object"),
    ({"num_ranks": 2}, "'name'"),
    ({"name": "x", "num_ranks": 0}, "'num_ranks'"),
    ({"name": "x", "num_ranks": 10**12}, "'num_ranks'"),
    ({"name": "x", "num_ranks": 2, "events": {"2": []}}, "'events' key '2'"),
])
def test_malformed_trace_refused_naming_rank_and_event(data, message):
    """A trace file is outside input: what no replay could run fails at
    load time, never mid-run or as a silent zero-length compute."""
    with pytest.raises(ValueError) as refused:
        trace_from_dict(data)
    assert message in str(refused.value)
