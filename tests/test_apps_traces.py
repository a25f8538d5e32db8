"""Tests for the application trace synthesizers (Chapter 2 observables)."""

import pytest

from repro.apps import APP_TRACES
from repro.apps.commmatrix import CommMatrixStats
from repro.apps.lammps import lammps_chain_trace, lammps_comb_trace
from repro.apps.nas import nas_ft_trace, nas_lu_trace, nas_mg_trace
from repro.apps.phases import detect_phases
from repro.apps.pop import pop_trace
from repro.apps.sweep3d import sweep3d_trace
from repro.mpi.runtime import TraceRuntime
from repro.mpi.trace import call_breakdown
from repro.network.config import NetworkConfig
from repro.network.fabric import Fabric
from repro.routing.deterministic import DeterministicPolicy
from repro.sim.engine import Simulator
from repro.topology.fattree import KaryNTree


def replay(trace, timeout=5.0):
    sim = Simulator()
    fabric = Fabric(KaryNTree(4, 3), NetworkConfig(), DeterministicPolicy(), sim)
    rt = TraceRuntime(fabric, trace)
    t = rt.run(timeout_s=timeout)
    return rt, fabric, t


@pytest.mark.parametrize("name", sorted(APP_TRACES))
def test_all_traces_replay_to_completion(name):
    kwargs = {"iterations": 1} if name not in ("pop",) else {"steps": 1}
    trace = APP_TRACES[name](num_ranks=16, **kwargs)
    # a trace factory is a function of its arguments: no unseeded draw
    assert APP_TRACES[name](num_ranks=16, **kwargs) == trace
    rt, fabric, t = replay(trace)
    assert rt.done
    assert t > 0
    assert fabric.accepted_ratio() == 1.0


def test_lammps_chain_tdc_about_seven():
    trace = lammps_chain_trace(num_ranks=64, iterations=1)
    stats = CommMatrixStats.from_trace(trace)
    # 6 face neighbours + ~1 far partner (Fig. 2.10: TDC ~ 7).
    assert 6.0 <= stats.mean_tdc <= 10.0


def test_lammps_chain_tdc_scale_invariant():
    t64 = lammps_chain_trace(num_ranks=64, iterations=1)
    t27 = lammps_chain_trace(num_ranks=27, iterations=1)
    s64 = CommMatrixStats.from_trace(t64)
    s27 = CommMatrixStats.from_trace(t27)
    assert abs(s64.mean_tdc - s27.mean_tdc) < 3.0


def test_lammps_allreduce_share_about_ten_percent():
    trace = lammps_chain_trace(num_ranks=64, iterations=6)
    breakdown = call_breakdown(trace)
    assert 0.02 <= breakdown.get("allreduce", 0) <= 0.25


def test_lammps_comb_has_pure_allreduce_phase():
    trace = lammps_comb_trace(num_ranks=27, iterations=3)
    report = detect_phases(trace)
    pure = [
        sig for sig in report.weights
        if sig and all(item[0][0] == "allreduce" for item in sig)
    ]
    assert pure, "COMB must contain a phase made solely of allreduce"


def test_pop_allreduce_heaviest_among_apps():
    """Table 2.1 shape: POP leads in MPI_Allreduce, LAMMPS second."""
    pop_share = call_breakdown(pop_trace(num_ranks=64, steps=4)).get("allreduce", 0)
    chain_share = call_breakdown(
        lammps_chain_trace(num_ranks=64, iterations=6)
    ).get("allreduce", 0)
    sweep_share = call_breakdown(
        sweep3d_trace(num_ranks=64, iterations=3)
    ).get("allreduce", 0)
    assert pop_share >= 0.10
    assert pop_share > chain_share > 0
    assert chain_share > sweep_share
    # Non-blocking halo machinery dominates the rest (Table 2.1 shape).
    breakdown = call_breakdown(pop_trace(num_ranks=64, steps=4))
    nb = sum(breakdown.get(c, 0) for c in ("isend", "irecv", "waitall", "send"))
    assert nb > breakdown.get("allreduce", 0)


def test_pop_max_tdc_beyond_halo():
    trace = pop_trace(num_ranks=64, steps=1)
    stats = CommMatrixStats.from_trace(trace)
    assert stats.max_tdc >= 9  # 8-point halo + scattered remote partners


def test_sweep3d_is_nearest_neighbour():
    trace = sweep3d_trace(num_ranks=64, iterations=1)
    stats = CommMatrixStats.from_trace(trace, bandwidth=8)
    assert stats.mean_tdc <= 5.0
    assert stats.diagonal_band_fraction > 0.9


def test_sweep3d_high_repetitiveness():
    trace = sweep3d_trace(num_ranks=16, iterations=5)
    report = detect_phases(trace)
    assert report.relevant_phases >= 1
    assert report.total_weight >= 5


def test_nas_mg_classes_scale():
    small = nas_mg_trace(num_ranks=8, problem_class="S")
    big = nas_mg_trace(num_ranks=8, problem_class="B")
    assert big.total_events > small.total_events


def test_nas_mg_mixes_near_and_far_partners():
    trace = nas_mg_trace(num_ranks=64, problem_class="A", iterations=1)
    stats = CommMatrixStats.from_trace(trace, bandwidth=1)
    # Strided V-cycle levels communicate beyond immediate neighbours.
    assert stats.diagonal_band_fraction < 0.9
    assert stats.max_tdc >= 6


def test_nas_lu_wavefront_dependencies_complete():
    trace = nas_lu_trace(num_ranks=16, problem_class="S", iterations=1)
    rt, _, t = replay(trace)
    # The pipeline serializes across the grid diagonal: the run must take
    # at least one compute per pipeline stage.
    assert t >= 7 * 20e-6 * 0.5


def test_nas_ft_is_all_to_all():
    trace = nas_ft_trace(num_ranks=16, problem_class="S", iterations=1)
    stats = CommMatrixStats.from_trace(trace)
    assert stats.mean_tdc >= 15  # everyone talks to everyone


def test_phase_reports_shapes_table_2_2():
    """Repetitive apps show few relevant phases with large weights."""
    trace = pop_trace(num_ranks=16, steps=4)
    report = detect_phases(trace)
    assert report.total_phases >= report.relevant_phases >= 1
    assert report.total_weight > report.relevant_phases  # real repetition
    row = report.row()
    assert set(row) == {"application", "total_phases", "relevant_phases", "weight"}
