"""Tests for the trace-driven runtime."""

import pytest

from repro.mpi.events import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Irecv,
    Recv,
    Send,
    Wait,
    Waitall,
)
from repro.mpi.runtime import TraceRuntime
from repro.mpi.trace import Trace
from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.routing.deterministic import DeterministicPolicy
from repro.routing.prdrb import PRDRBPolicy
from repro.sim.engine import Simulator
from repro.topology.mesh import Mesh2D


def make_runtime(trace, policy=None, width=4):
    sim = Simulator()
    fabric = Fabric(Mesh2D(width), NetworkConfig(), policy or DeterministicPolicy(), sim)
    return TraceRuntime(fabric, trace)


def test_ping_pong_completes_and_orders():
    trace = Trace("pingpong", 2)
    trace.extend(0, [Send(1, 1024, tag=1), Recv(1, tag=2)])
    trace.extend(1, [Recv(0, tag=1), Send(0, 1024, tag=2)])
    rt = make_runtime(trace)
    t = rt.run()
    assert rt.done
    # Round trip: strictly more than one one-way zero-load latency.
    assert t > 2 * 4.1e-6


def test_compute_advances_local_clock():
    trace = Trace("compute", 1)
    trace.extend(0, [Compute(1e-3)])
    rt = make_runtime(trace)
    t = rt.run()
    assert t == pytest.approx(1e-3)


def test_blocking_recv_waits_for_late_sender():
    trace = Trace("late", 2)
    trace.extend(0, [Compute(5e-4), Send(1, 1024, tag=0)])
    trace.extend(1, [Recv(0, tag=0)])
    rt = make_runtime(trace)
    t = rt.run()
    assert t > 5e-4


def test_message_ordering_by_tag():
    # Rank 1 receives tag 2 first even though tag 1 was sent first.
    trace = Trace("tags", 2)
    trace.extend(0, [Send(1, 1024, tag=1), Send(1, 1024, tag=2)])
    trace.extend(1, [Recv(0, tag=2), Recv(0, tag=1)])
    rt = make_runtime(trace)
    rt.run()
    assert rt.done


def test_irecv_wait_overlap():
    trace = Trace("overlap", 2)
    trace.extend(0, [Send(1, 2048, tag=7)])
    trace.extend(1, [Irecv(0, tag=7, request=1), Compute(1e-4), Wait(request=1)])
    rt = make_runtime(trace)
    t = rt.run()
    assert t >= 1e-4


def test_wait_on_unknown_request_is_noop():
    trace = Trace("noop", 1)
    trace.extend(0, [Wait(request=99)])
    rt = make_runtime(trace)
    assert rt.run() >= 0.0


def test_waitall_gathers_everything():
    trace = Trace("waitall", 3)
    trace.extend(0, [Send(2, 1024, tag=1)])
    trace.extend(1, [Send(2, 1024, tag=2)])
    trace.extend(
        2,
        [Irecv(0, tag=1, request=1), Irecv(1, tag=2, request=2), Waitall()],
    )
    rt = make_runtime(trace)
    rt.run()
    assert rt.done


def test_collectives_auto_lowered_and_complete():
    trace = Trace("coll", 8)
    for r in range(8):
        trace.extend(r, [Allreduce(512), Barrier(), Bcast(4096, root=0)])
    rt = make_runtime(trace)
    rt.run()
    assert rt.done
    assert rt.messages_sent > 8  # lowered point-to-point traffic


def test_deadlock_detection_raises():
    trace = Trace("deadlock", 2)
    trace.extend(0, [Recv(1, tag=0)])  # nobody ever sends
    trace.extend(1, [Compute(1e-6)])  # rank 1 finishes: it is not blocked
    rt = make_runtime(trace)
    with pytest.raises(RuntimeError, match=r"blocked ranks: \[0\]$"):
        rt.run(timeout_s=1e-3)


def test_a_zero_byte_send_is_refused_before_it_reaches_a_router():
    """A 0-byte send, then a 0-byte allreduce, once crashed
    ``Router.forward`` with ``KeyError: ContendingFlow(src=0, dst=1)``
    partway through this PR-DRB replay; the first send now refuses it."""
    from repro.api import build_network
    from repro.sim.rng import RandomStreams

    trace = Trace("zero-bytes", 2)
    trace.extend(0, [Send(1, 0, tag=0), Allreduce(0)])
    trace.extend(1, [Recv(0, tag=0), Allreduce(0)])
    fabric = build_network("fattree:4,3", "pr-drb", notification="router",
                           rng=RandomStreams(0).stream("routing")).fabric
    with pytest.raises(ValueError, match="'size_bytes' must be >= 1, got 0"):
        TraceRuntime(fabric, trace).run()


def test_rank_to_host_mapping():
    trace = Trace("map", 2)
    trace.extend(0, [Send(1, 1024, tag=0)])
    trace.extend(1, [Recv(0, tag=0)])
    sim = Simulator()
    fabric = Fabric(Mesh2D(4), NetworkConfig(), DeterministicPolicy(), sim)
    rt = TraceRuntime(fabric, trace, rank_to_host=[5, 10])
    rt.run()
    assert fabric.nodes[5].packets_injected == 1
    assert fabric.nodes[10].packets_received == 1


def test_too_many_ranks_rejected():
    trace = Trace("big", 17)
    sim = Simulator()
    fabric = Fabric(Mesh2D(4), NetworkConfig(), DeterministicPolicy(), sim)
    with pytest.raises(ValueError):
        TraceRuntime(fabric, trace)


def test_runs_under_prdrb_policy():
    trace = Trace("drb", 8)
    for r in range(8):
        trace.extend(r, [Allreduce(2048), Compute(1e-5), Allreduce(2048)])
    rt = make_runtime(trace, policy=PRDRBPolicy())
    rt.run()
    assert rt.done


def test_execution_time_is_last_rank():
    trace = Trace("skew", 2)
    trace.extend(0, [Compute(1e-4)])
    trace.extend(1, [Compute(3e-4)])
    rt = make_runtime(trace)
    assert rt.run() == pytest.approx(3e-4)
