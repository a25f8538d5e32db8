"""Per-figure / per-table experiment definitions (Chapter 4 + Chapter 2).

Every public function regenerates one artifact of the thesis' evaluation
and returns an :class:`~repro.experiments.report.ExperimentResult` with
measured rows, the paper's claim, and shape checks.  Benchmarks call these
with ``scale=FULL``; tests with ``scale=QUICK``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.replay import RECORDER_WINDOW_S, ScenarioSpec, app_spec, build
from repro.apps.commmatrix import CommMatrixStats
from repro.apps.lammps import lammps_chain_trace, lammps_comb_trace
from repro.apps.nas import nas_lu_trace, nas_mg_trace
from repro.apps.phases import detect_phases
from repro.apps.pop import pop_trace
from repro.apps.smg2000 import smg2000_trace
from repro.apps.sweep3d import sweep3d_trace
from repro.experiments.config import (
    BURST_OFF_S,
    BURST_ON_S,
    HOTSPOT_FLOWS,
    HOTSPOT_IDLE_MBPS,
    HOTSPOT_NOISE_MBPS,
    HOTSPOT_RATE_MBPS,
    PAPER_RATE_MAP,
    QUICK,
    Scale,
)
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import PolicyRun, improvement, run_policies
from repro.mpi.trace import call_breakdown
from repro.parallel import default_executor
from repro.topology import make_topology
from repro.traffic.bursty import BurstSchedule
from repro.traffic.patterns import PATTERNS

#: DRB-family experiments run under router-based early notification
#: (§3.4.1), the design alternative the thesis recommends for speed.
NOTIFICATION = "router"

#: Declarative topology specs (repro.topology.make_topology): every
#: hot-spot and permutation cell is a ScenarioSpec, so the policy x seed
#: grids ship to worker processes when ``REPRO_PARALLEL_WORKERS`` is set;
#: serial execution builds the same specs in-process, so results are
#: identical either way.
MESH_SPEC = "mesh:8"
FATTREE_SPEC = "fattree:4,3"
#: dragonfly(a=4, p=2, h=2): 9 groups, 36 routers, 72 hosts — the smallest
#: canonical dragonfly where every ordered group pair shares exactly one
#: global link, so a single group-pair hot-spot saturates it under
#: minimal routing (the arXiv:2502.00616 escalation scenario).
DRAGONFLY_SPEC = "dragonfly:4,2,2"


def _hotspot_spec(scale: Scale, **changes) -> ScenarioSpec:
    """The §4.5 mesh hot-spot cell, with ``changes`` to its fields."""
    return replace(
        ScenarioSpec(
            policy="pr-drb", seed=scale.seeds[0], topology=MESH_SPEC,
            flows=tuple(HOTSPOT_FLOWS), rate_bps=HOTSPOT_RATE_MBPS * 1e6,
            burst_on_s=BURST_ON_S, burst_off_s=BURST_OFF_S, repetitions=scale.repetitions,
            noise_rate_bps=HOTSPOT_NOISE_MBPS * 1e6, idle_rate_bps=HOTSPOT_IDLE_MBPS * 1e6,
            notification=NOTIFICATION, drain_s=8e-4,
        ),
        **changes,
    )


def _pattern_spec(
    scale: Scale, pattern: str, hosts: int, rate_mbps: float, **changes
) -> ScenarioSpec:
    """A fat-tree permutation cell over ``hosts`` hosts (Figs 4.13-4.18)."""
    return replace(
        ScenarioSpec(
            policy="pr-drb", seed=scale.seeds[0], topology=FATTREE_SPEC, flows=(),
            rate_bps=rate_mbps * 1e6, burst_on_s=BURST_ON_S, burst_off_s=BURST_OFF_S,
            repetitions=scale.repetitions, noise_rate_bps=0.0, idle_rate_bps=60 * 1e6,
            notification=NOTIFICATION, drain_s=8e-4, pattern=pattern, hosts=hosts,
        ),
        **changes,
    )


def _runs(spec: ScenarioSpec, policies, seeds) -> dict[str, PolicyRun]:
    return run_policies(spec, policies, seeds, executor=default_executor())


def _pct(x: float) -> str:
    return f"{x * 100:+.1f}%"


# ======================================================================
# Chapter 2 artifacts
# ======================================================================

def table_2_1_mpi_breakdown(scale: Scale = QUICK) -> ExperimentResult:
    """Table 2.1: breakdown of MPI communication calls per application."""
    result = ExperimentResult(
        "T2.1",
        "MPI call breakdown",
        "POP leads in MPI_Allreduce (~29-30 %), LAMMPS second (~11 %); "
        "LU/MG/Sweep3D are point-to-point dominated; Sweep3D collectives "
        "are negligible.",
    )
    n = scale.app_ranks
    traces = {
        "pop": pop_trace(num_ranks=n, steps=max(2, scale.app_iterations)),
        "lammps-chain": lammps_chain_trace(num_ranks=n, iterations=max(2, scale.app_iterations)),
        "nas-lu": nas_lu_trace(num_ranks=n, problem_class="A",
                               iterations=max(3, scale.app_iterations)),
        "nas-mg": nas_mg_trace(num_ranks=n, problem_class="A",
                               iterations=max(2, scale.app_iterations)),
        "sweep3d": sweep3d_trace(num_ranks=n, iterations=max(2, scale.app_iterations)),
    }
    shares = {}
    for name, trace in traces.items():
        breakdown = call_breakdown(trace)
        shares[name] = breakdown.get("allreduce", 0.0)
        p2p = sum(
            v for c, v in breakdown.items()
            if c in ("send", "recv", "isend", "irecv", "wait", "waitall")
        )
        result.rows.append(
            {
                "application": name,
                "allreduce": f"{breakdown.get('allreduce', 0.0) * 100:.1f}%",
                "point_to_point": f"{p2p * 100:.1f}%",
                "bcast": f"{breakdown.get('bcast', 0.0) * 100:.2f}%",
                "barrier": f"{breakdown.get('barrier', 0.0) * 100:.2f}%",
            }
        )
    result.check("POP has the largest allreduce share", shares["pop"] == max(shares.values()))
    result.check("LAMMPS second in allreduce", shares["lammps-chain"] > shares["nas-lu"])
    result.check("Sweep3D allreduce negligible", shares["sweep3d"] < 0.05)
    return result


def table_2_2_phases(scale: Scale = QUICK) -> ExperimentResult:
    """Table 2.2: relevant phases and repetition weights."""
    result = ExperimentResult(
        "T2.2",
        "Parallel application phases",
        "Applications decompose into few relevant phases with large "
        "repetition weights (POP: 120 phases x 38158; Sweep3D: 5 x 46000).",
    )
    n = scale.app_ranks
    traces = [
        pop_trace(num_ranks=n, steps=max(3, scale.app_iterations)),
        lammps_chain_trace(num_ranks=n, iterations=max(3, scale.app_iterations)),
        lammps_comb_trace(num_ranks=n, iterations=max(3, scale.app_iterations)),
        sweep3d_trace(num_ranks=n, iterations=max(3, scale.app_iterations)),
        smg2000_trace(num_ranks=n, iterations=max(3, scale.app_iterations)),
        nas_mg_trace(num_ranks=n, problem_class="A", iterations=max(2, scale.app_iterations)),
    ]
    all_repetitive = True
    for trace in traces:
        report = detect_phases(trace)
        all_repetitive &= report.relevant_phases >= 1 and report.total_weight >= 2
        row = report.row()
        row["paper_weight"] = trace.metadata.get("paper_weight", "-")
        result.rows.append(row)
    result.check("every app shows repeating relevant phases", all_repetitive)
    return result


def fig_2_10_13_comm_matrices(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 2.10-2.13: communication matrices and TDC."""
    result = ExperimentResult(
        "F2.10-13",
        "Communication matrices",
        "LAMMPS chain TDC ~7 (scale-invariant); Sweep3D TDC 4 with all "
        "volume on the diagonal; POP diagonal bands plus scattered remote "
        "partners with max TDC ~11.",
    )
    n = scale.app_ranks
    stats = {
        "lammps-chain": CommMatrixStats.from_trace(
            lammps_chain_trace(num_ranks=n, iterations=1)
        ),
        "lammps-comb": CommMatrixStats.from_trace(
            lammps_comb_trace(num_ranks=n, iterations=1)
        ),
        "sweep3d": CommMatrixStats.from_trace(
            sweep3d_trace(num_ranks=n, iterations=1), bandwidth=8
        ),
        "pop": CommMatrixStats.from_trace(pop_trace(num_ranks=n, steps=1)),
    }
    for name, s in stats.items():
        result.rows.append(s.row())
    result.check("chain TDC ~ 7", 5.0 <= stats["lammps-chain"].mean_tdc <= 10.0)
    result.check("sweep3d nearest-neighbour", stats["sweep3d"].mean_tdc <= 5.0)
    result.check(
        "sweep3d volume on the diagonal", stats["sweep3d"].diagonal_band_fraction > 0.9
    )
    result.check(
        "pop scattered partners beyond halo",
        stats["pop"].max_tdc > stats["sweep3d"].max_tdc,
    )
    return result


# ======================================================================
# Hot-spot experiments on the mesh (Figs 3.1, 4.8-4.12)
# ======================================================================

def _hotspot_runs(scale: Scale, policies, **changes) -> dict[str, PolicyRun]:
    return _runs(_hotspot_spec(scale, **changes), policies, scale.seeds)


def _per_burst_means(run: PolicyRun, schedule: BurstSchedule) -> list[float]:
    t, v = run.latency_series
    out = []
    for b in range(schedule.repetitions or 0):
        start = schedule.start_s + b * schedule.period_s
        mask = (t >= start) & (t < start + schedule.period_s)
        out.append(float(v[mask].mean()) if mask.any() else 0.0)
    return out


def fig_3_1_overview(scale: Scale = QUICK) -> ExperimentResult:
    """Fig. 3.1: PR-DRB learns in burst 1, reacts faster afterwards."""
    result = ExperimentResult(
        "F3.1",
        "PR-DRB overview (repeated bursts)",
        "Burst 1: both curves coincide (PR-DRB is learning).  Later "
        "bursts: PR-DRB re-applies saved solutions and its latency stays "
        "below DRB's.",
    )
    runs = _hotspot_runs(scale, ["drb", "pr-drb"])
    sched = _hotspot_spec(scale).burst_schedule()
    drb = _per_burst_means(runs["drb"], sched)
    pr = _per_burst_means(runs["pr-drb"], sched)
    for b, (a, c) in enumerate(zip(drb, pr)):
        result.rows.append(
            {
                "burst": b + 1,
                "drb_us": round(a * 1e6, 2),
                "pr_drb_us": round(c * 1e6, 2),
                "gain": _pct(improvement(a, c)),
            }
        )
    later = slice(1, None)
    result.check(
        "later bursts: PR-DRB mean <= DRB",
        float(np.mean(pr[later])) <= float(np.mean(drb[later])) * 1.05,
    )
    stats = runs["pr-drb"].policy_stats
    result.check("solutions were learned", stats.get("patterns_learned", 0) > 0)
    result.check("solutions were re-applied", stats.get("solutions_applied", 0) > 0)
    return result


def fig_4_8_9_path_opening(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 4.8-4.9: DRB's controlled one-at-a-time path opening."""
    result = ExperimentResult(
        "F4.8-9",
        "Path-opening procedures under hot-spot",
        "Paths open one at a time while latency exceeds the threshold; "
        "the combination stabilizes latency; paths close when traffic "
        "subsides.",
    )
    runs = _hotspot_runs(scale, ["drb"])
    stats = runs["drb"].policy_stats
    result.rows.append(
        {
            "expansions": stats["expansions"],
            "shrinks": stats["shrinks"],
            "max_active_paths": stats["max_active_paths"],
            "mean_active_paths": round(stats["mean_active_paths"], 3),
        }
    )
    result.check("alternative paths were opened", stats["expansions"] > 0)
    result.check("paths were later closed", stats["shrinks"] > 0)
    result.check(
        "expansion bounded by metapath size", stats["max_active_paths"] <= 4
    )
    return result


def fig_4_10_11_latency_map_mesh(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 4.10-4.11: mesh latency maps, DRB vs PR-DRB."""
    result = ExperimentResult(
        "F4.10-11",
        "Mesh hot-spot latency maps",
        "PR-DRB's peak contention latency is lower than DRB's and its "
        "load distribution tighter; ~20 % global latency reduction.",
    )
    runs = _hotspot_runs(scale, ["drb", "pr-drb"])
    for name in ("drb", "pr-drb"):
        r = runs[name]
        result.rows.append(
            {
                "policy": name,
                "map_peak_us": round(r.map_peak_s * 1e6, 2),
                "map_mean_us": round(r.map_mean_s * 1e6, 3),
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
            }
        )
    result.check(
        "PR-DRB peak <= DRB peak (10% tolerance)",
        runs["pr-drb"].map_peak_s <= runs["drb"].map_peak_s * 1.1,
    )
    result.check(
        "PR-DRB global latency <= DRB (5% tolerance)",
        runs["pr-drb"].global_latency_s <= runs["drb"].global_latency_s * 1.05,
    )
    return result


def fig_4_12_mesh_avg_latency(scale: Scale = QUICK) -> ExperimentResult:
    """Fig. 4.12: average latency vs time on the mesh (phase >= 2)."""
    result = ExperimentResult(
        "F4.12",
        "Mesh average latency over repeated bursts",
        "PR-DRB reaches better latency in less time on post-learning "
        "phases; curves converge once traffic stabilizes.",
    )
    runs = _hotspot_runs(scale, ["drb", "pr-drb"])
    sched = _hotspot_spec(scale).burst_schedule()
    drb = _per_burst_means(runs["drb"], sched)
    pr = _per_burst_means(runs["pr-drb"], sched)
    second_half = slice(len(drb) // 2, None)
    drb_late = float(np.mean(drb[second_half]))
    pr_late = float(np.mean(pr[second_half]))
    result.rows.append(
        {
            "drb_late_bursts_us": round(drb_late * 1e6, 2),
            "pr_drb_late_bursts_us": round(pr_late * 1e6, 2),
            "gain": _pct(improvement(drb_late, pr_late)),
        }
    )
    result.check("post-learning latency <= DRB", pr_late <= drb_late * 1.05)
    return result


# ======================================================================
# Permutation traffic on the fat-tree (Figs 4.13-4.18, A.1-A.4)
# ======================================================================

def _permutation_experiment(
    experiment_id: str,
    pattern: str,
    nodes: int,
    paper_rate_mbps: int,
    paper_gain: str,
    scale: Scale,
) -> ExperimentResult:
    rate = PAPER_RATE_MAP[paper_rate_mbps]
    result = ExperimentResult(
        experiment_id,
        f"Fat-tree {pattern} {nodes} nodes, paper {paper_rate_mbps} Mbps/node "
        f"(mapped to {rate:.0f} Mbps, see DESIGN.md)",
        paper_gain,
    )
    runs = _runs(
        _pattern_spec(scale, pattern, nodes, rate), ["deterministic", "drb", "pr-drb"],
        scale.seeds,
    )
    det, drb, pr = runs["deterministic"], runs["drb"], runs["pr-drb"]
    for r in (det, drb, pr):
        result.rows.append(r.row())
    result.rows.append(
        {
            "policy": "gains",
            "global_latency_us": f"drb vs det {_pct(improvement(det.global_latency_s, drb.global_latency_s))}",
            "map_peak_us": f"pr vs drb {_pct(improvement(drb.global_latency_s, pr.global_latency_s))}",
            "exec_time_ms": "",
            "accepted": "",
        }
    )
    result.check("DRB beats deterministic", drb.global_latency_s < det.global_latency_s)
    result.check(
        "PR-DRB tracks or beats DRB (10% tolerance)",
        pr.global_latency_s <= drb.global_latency_s * 1.10,
    )
    result.check(
        "predictive module engaged", pr.policy_stats.get("solutions_applied", 0) > 0
    )
    result.check("no traffic lost", pr.accepted_ratio > 0.99)
    return result


def fig_4_13_14_shuffle_32(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 4.13-4.14: perfect-shuffle latency on a 32-node fat-tree."""
    return _permutation_experiment(
        "F4.13-14", "perfect-shuffle", 32, 600,
        "PR-DRB 29 % (low load) / 22 % (high load) lower latency than DRB.",
        scale,
    )


def fig_4_15_16_bitrev_32(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 4.15-4.16: bit-reversal latency on a 32-node fat-tree."""
    return _permutation_experiment(
        "F4.15-16", "bit-reversal", 32, 600,
        "PR-DRB ~23 % (400 Mbps) / ~18 % (600 Mbps) latency reduction; "
        "curves stabilize after the transitory state.",
        scale,
    )


def fig_4_17_18_transpose_64(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 4.17-4.18: matrix-transpose latency on a 64-node fat-tree."""
    return _permutation_experiment(
        "F4.17-18", "matrix-transpose", 64, 400,
        "PR-DRB ~31 % (400 Mbps) / ~40 % (600 Mbps) latency reduction.",
        scale,
    )


def fig_a_1_2_transpose_32(scale: Scale = QUICK) -> ExperimentResult:
    """Figs A.1-A.2: matrix-transpose latency on a 32-node fat-tree."""
    return _permutation_experiment(
        "FA.1-2", "matrix-transpose", 32, 400,
        "Appendix: PR-DRB below DRB for matrix transpose, 32 nodes.",
        scale,
    )


def fig_a_3_shuffle_64(scale: Scale = QUICK) -> ExperimentResult:
    """Fig. A.3: perfect-shuffle latency on a 64-node fat-tree."""
    return _permutation_experiment(
        "FA.3", "perfect-shuffle", 64, 400,
        "Appendix: PR-DRB below DRB for shuffle, 64 nodes, 400 Mbps.",
        scale,
    )


def fig_a_4_bitrev_64(scale: Scale = QUICK) -> ExperimentResult:
    """Fig. A.4: bit-reversal latency on a 64-node fat-tree."""
    return _permutation_experiment(
        "FA.4", "bit-reversal", 64, 400,
        "Appendix: PR-DRB below DRB for bit reversal, 64 nodes, 400 Mbps.",
        scale,
    )


def table_4_1_patterns(scale: Scale = QUICK) -> ExperimentResult:
    """Table 4.1: the permutation definitions themselves."""
    result = ExperimentResult(
        "T4.1",
        "Synthetic traffic pattern definitions",
        "Bit reversal d_i = s_{n-i-1}; perfect shuffle d_i = s_{(i-1) mod n}; "
        "matrix transpose d_i = s_{(i + n/2) mod n}.",
    )
    bits = 6
    ok = True
    for name, fn in PATTERNS.items():
        dests = {fn(s, bits) for s in range(1 << bits)}
        bijective = dests == set(range(1 << bits))
        ok &= bijective
        result.rows.append(
            {
                "pattern": name,
                "bijective_64_nodes": bijective,
                "example_src_5": fn(5, bits),
            }
        )
    result.check("all patterns are permutations", ok)
    return result


# ======================================================================
# Application traces on the fat-tree (§4.8)
# ======================================================================

def _app_topology(scale: Scale) -> str:
    return "fattree:4,3" if scale.app_ranks > 16 else "fattree:4,2"


def _app_runs(
    scale: Scale, app: str, app_args: dict, policies, router_series: bool = False
) -> dict[str, PolicyRun]:
    """``app``'s trace on the scale's fat-tree under every policy and seed."""
    spec = app_spec(app, "pr-drb", scale.seeds[0], _app_topology(scale), NOTIFICATION,
                    app_args, router_series)
    return _runs(spec, policies, scale.seeds)


def fig_4_20_nas_lu_map(scale: Scale = QUICK) -> ExperimentResult:
    """Fig. 4.20: NAS LU latency maps for det / DRB / PR-DRB."""
    result = ExperimentResult(
        "F4.20",
        "NAS LU latency map",
        "DRB cuts the map peak ~57 % vs deterministic; PR-DRB a further "
        "~41 % vs DRB (75 % vs deterministic).",
    )
    runs = _app_runs(
        scale,
        "nas-lu",
        {"num_ranks": scale.app_ranks, "problem_class": "A",
         "iterations": max(2, scale.app_iterations)},
        ["deterministic", "drb", "pr-drb"],
    )
    for name in ("deterministic", "drb", "pr-drb"):
        r = runs[name]
        result.rows.append(
            {
                "policy": name,
                "map_peak_us": round(r.map_peak_s * 1e6, 2),
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
                "exec_time_ms": round(r.execution_time_s * 1e3, 3),
            }
        )
    det, drb, pr = runs["deterministic"], runs["drb"], runs["pr-drb"]
    result.check("DRB peak below deterministic", drb.map_peak_s < det.map_peak_s)
    result.check(
        "PR-DRB peak <= DRB peak (15% tolerance)",
        pr.map_peak_s <= drb.map_peak_s * 1.15,
    )
    return result


def fig_4_21_nas_mg(scale: Scale = QUICK) -> ExperimentResult:
    """Fig. 4.21: NAS MG global latency & execution time, classes S/A/B."""
    result = ExperimentResult(
        "F4.21",
        "NAS MG global latency & execution time",
        "Class S: contention negligible, no gain.  Classes A/B: ~65 %/60 % "
        "latency cut det->DRB; exec time -8 % (A) / -23 % (B).",
    )
    classes = ["S", "A"] if scale.name == "quick" else ["S", "A", "B"]
    heavy = classes[-1]
    gains = {}
    for cls in classes:
        runs = _app_runs(
            scale,
            "nas-mg",
            {"num_ranks": scale.app_ranks, "problem_class": cls,
             "iterations": scale.app_iterations},
            ["deterministic", "drb", "pr-drb"],
        )
        det, drb, pr = runs["deterministic"], runs["drb"], runs["pr-drb"]
        gains[cls] = improvement(det.global_latency_s, pr.global_latency_s)
        for name, r in runs.items():
            result.rows.append(
                {
                    "class": cls,
                    "policy": name,
                    "global_latency_us": round(r.global_latency_s * 1e6, 2),
                    "exec_time_ms": round(r.execution_time_s * 1e3, 3),
                }
            )
    if scale.name == "quick":
        # 16-rank class A barely loads the network; only sanity-check that
        # the adaptive family does not degrade uncongested classes.
        result.check(
            "DRB family does not degrade uncongested classes",
            all(g > -0.10 for g in gains.values()),
        )
    else:
        result.check(
            f"class {heavy}: DRB family beats deterministic",
            gains[heavy] > 0,
        )
    result.check(
        "heavier class benefits at least as much as S",
        gains[heavy] >= gains["S"] - 0.05,
    )
    return result


def fig_4_22_23_mg_router_contention(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 4.22-4.23: per-router contention latency, DRB vs PR-DRB."""
    result = ExperimentResult(
        "F4.22-23",
        "NAS MG router contention latency",
        "After the learning window PR-DRB's contention latency on "
        "congested routers drops at or below DRB's.",
    )
    runs = _app_runs(
        scale,
        "nas-mg",
        {"num_ranks": scale.app_ranks, "problem_class": "A",
         "iterations": max(2, scale.app_iterations)},
        ["drb", "pr-drb"],
        router_series=True,
    )
    drb, pr = runs["drb"], runs["pr-drb"]
    # The two most congested routers under DRB.
    top = sorted(drb.contention_map.items(), key=lambda kv: -kv[1])[:2]
    for rid, _ in top:
        d = drb.contention_map.get(rid, 0.0)
        p = pr.contention_map.get(rid, 0.0)
        result.rows.append(
            {
                "router": rid,
                "drb_contention_us": round(d * 1e6, 3),
                "pr_drb_contention_us": round(p * 1e6, 3),
                "gain": _pct(improvement(d, p)),
            }
        )
    result.check(
        "overall contention not worse than DRB (15% tolerance)",
        pr.map_mean_s <= drb.map_mean_s * 1.15,
    )
    result.check("router series recorded", len(drb.router_series) > 0)
    return result


def fig_4_24_26_lammps(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 4.24-4.26: LAMMPS maps, global latency/exec, pattern stats."""
    result = ExperimentResult(
        "F4.24-26",
        "LAMMPS latency map, global latency & pattern statistics",
        "DRB family cuts the map peak ~65 % vs deterministic; PR-DRB a "
        "further ~5 % global latency and ~6 % exec time vs DRB; ~80 "
        "patterns found, recurring ones re-applied (one 279 times).",
    )
    runs = _app_runs(
        scale,
        "lammps-chain",
        {"num_ranks": scale.app_ranks, "iterations": max(3, scale.app_iterations * 2)},
        ["deterministic", "drb", "pr-drb"],
    )
    det, drb, pr = runs["deterministic"], runs["drb"], runs["pr-drb"]
    for name, r in runs.items():
        result.rows.append(
            {
                "policy": name,
                "map_peak_us": round(r.map_peak_s * 1e6, 2),
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
                "exec_time_ms": round(r.execution_time_s * 1e3, 3),
            }
        )
    stats = pr.policy_stats
    result.rows.append(
        {
            "policy": "pr-drb patterns",
            "map_peak_us": f"learned={stats.get('patterns_learned', 0)}",
            "global_latency_us": f"reapplied={stats.get('patterns_reapplied', 0)}",
            "exec_time_ms": f"reuses={stats.get('total_reuses', 0)}",
        }
    )
    result.check("DRB beats deterministic", drb.global_latency_s < det.global_latency_s)
    result.check(
        "PR-DRB latency <= DRB (10% tolerance)",
        pr.global_latency_s <= drb.global_latency_s * 1.10,
    )
    result.check(
        "PR-DRB exec time <= deterministic",
        pr.execution_time_s <= det.execution_time_s * 1.02,
    )
    result.check("patterns learned", stats.get("patterns_learned", 0) > 0)
    return result


def fig_4_27_30_pop(scale: Scale = QUICK) -> ExperimentResult:
    """Figs 4.27-4.30 (+A.5-A.7): POP under all seven policies."""
    result = ExperimentResult(
        "F4.27-30",
        "POP: global latency, execution time and latency maps",
        "Deterministic/cyclic worst (~16 us), random ~14 us; PR-DRB ~38 % "
        "better; predictive FR-DRB up to ~57 % vs deterministic; DRB "
        "family exec time ~27 % better than non-adaptive; PR-DRB "
        "contention peak -87 % vs cyclic/deterministic, -50 % vs random.",
    )
    policies = [
        "deterministic", "cyclic", "random",
        "drb", "pr-drb", "fr-drb", "pr-fr-drb",
    ]
    runs = _app_runs(
        scale,
        "pop",
        {"num_ranks": scale.app_ranks, "steps": max(2, scale.app_iterations)},
        policies,
    )
    for name in policies:
        r = runs[name]
        result.rows.append(
            {
                "policy": name,
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
                "map_peak_us": round(r.map_peak_s * 1e6, 2),
                "exec_time_ms": round(r.execution_time_s * 1e3, 3),
            }
        )
    det = runs["deterministic"]
    drb_family = min(
        runs[n].global_latency_s for n in ("drb", "pr-drb", "fr-drb", "pr-fr-drb")
    )
    non_adaptive_worst = max(
        runs[n].global_latency_s for n in ("deterministic", "cyclic")
    )
    result.check(
        "best DRB-family latency below worst non-adaptive",
        drb_family < non_adaptive_worst,
    )
    result.check(
        "PR-DRB latency <= DRB (10% tolerance)",
        runs["pr-drb"].global_latency_s <= runs["drb"].global_latency_s * 1.10,
    )
    result.check(
        "predictive FR <= FR (10% tolerance)",
        runs["pr-fr-drb"].global_latency_s <= runs["fr-drb"].global_latency_s * 1.10,
    )
    result.check(
        "DRB-family map peak below deterministic",
        runs["pr-drb"].map_peak_s < det.map_peak_s,
    )
    result.check(
        "DRB-family exec time <= deterministic",
        runs["pr-drb"].execution_time_s <= det.execution_time_s * 1.02,
    )
    return result


# ======================================================================
# Ablations (DESIGN.md §6)
# ======================================================================

def ablation_notification_mode(scale: Scale = QUICK) -> ExperimentResult:
    """Destination-based (§3.2.2) vs router-based (§3.4.1) notification."""
    result = ExperimentResult(
        "ABL-notify",
        "Notification mode ablation",
        "Router-based early notification reacts before the destination "
        "round-trip completes, improving PR-DRB's response to recurring "
        "bursts.",
    )
    values = {}
    for mode in ("destination", "router"):
        r = _hotspot_runs(scale, ["pr-drb"], notification=mode)["pr-drb"]
        values[mode] = r
        result.rows.append(
            {
                "mode": mode,
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
                "p99_us": round(r.p99_latency_s * 1e6, 2),
                "solutions_applied": r.policy_stats.get("solutions_applied", 0),
            }
        )
    result.check(
        "router-based p99 <= destination-based (10% tolerance)",
        values["router"].p99_latency_s <= values["destination"].p99_latency_s * 1.10,
    )
    return result


def ablation_max_paths(scale: Scale = QUICK) -> ExperimentResult:
    """Metapath width ablation (the paper fixes 4 alternative paths)."""
    result = ExperimentResult(
        "ABL-maxpaths",
        "Maximum alternative paths ablation",
        "More alternative paths absorb heavier hot-spots; the paper uses "
        "a maximum of 4.",
    )
    variants = {n: f"pr-drb:max_paths={n}" for n in (1, 2, 4)}
    runs = _hotspot_runs(scale, list(variants.values()))
    values = {}
    for max_paths, policy in variants.items():
        r = runs[policy]
        values[max_paths] = r.global_latency_s
        result.rows.append(
            {
                "max_paths": max_paths,
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
                "p99_us": round(r.p99_latency_s * 1e6, 2),
            }
        )
    result.check("4 paths beat a single path", values[4] < values[1])
    return result


def ablation_similarity_threshold(scale: Scale = QUICK) -> ExperimentResult:
    """Solution-matching threshold ablation (paper: 80 %)."""
    result = ExperimentResult(
        "ABL-similarity",
        "Pattern-similarity threshold ablation",
        "An overly strict threshold stops solutions from being reused; "
        "80 % balances reuse against false matches.",
    )
    variants = {t: f"pr-drb:match_threshold={t}" for t in (0.5, 0.8, 1.0)}
    runs = _hotspot_runs(scale, list(variants.values()))
    reuse = {}
    for threshold, policy in variants.items():
        r = runs[policy]
        reuse[threshold] = r.policy_stats.get("solutions_applied", 0)
        result.rows.append(
            {
                "threshold": threshold,
                "solutions_applied": reuse[threshold],
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
            }
        )
    result.check(
        "looser matching reuses at least as much",
        reuse[0.5] >= reuse[1.0],
    )
    return result


def ablation_zone_thresholds(scale: Scale = QUICK) -> ExperimentResult:
    """Threshold_Low/High factor ablation (§3.2.4)."""
    result = ExperimentResult(
        "ABL-thresholds",
        "Zone threshold ablation",
        "A lower Threshold_High detects congestion earlier (more "
        "expansions); the defaults balance reactivity against churn.",
    )
    variants = {h: f"pr-drb:high_factor={h}" for h in (1.25, 1.5, 2.5)}
    runs = _hotspot_runs(scale, list(variants.values()))
    reactions = {}
    for high, policy in variants.items():
        r = runs[policy]
        reactions[high] = r.policy_stats["expansions"] + r.policy_stats.get(
            "solutions_applied", 0
        )
        result.rows.append(
            {
                "high_factor": high,
                "reactions": reactions[high],
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
            }
        )
    result.check(
        "earlier detection reacts at least as often",
        reactions[1.25] >= reactions[2.5],
    )
    return result


#: registry: experiment id -> callable, used by benches and the CLI.
ALL_SCENARIOS = {
    "table_2_1": table_2_1_mpi_breakdown,
    "table_2_2": table_2_2_phases,
    "fig_2_10_13": fig_2_10_13_comm_matrices,
    "fig_3_1": fig_3_1_overview,
    "fig_4_8_9": fig_4_8_9_path_opening,
    "fig_4_10_11": fig_4_10_11_latency_map_mesh,
    "fig_4_12": fig_4_12_mesh_avg_latency,
    "fig_4_13_14": fig_4_13_14_shuffle_32,
    "fig_4_15_16": fig_4_15_16_bitrev_32,
    "fig_4_17_18": fig_4_17_18_transpose_64,
    "fig_4_20": fig_4_20_nas_lu_map,
    "fig_4_21": fig_4_21_nas_mg,
    "fig_4_22_23": fig_4_22_23_mg_router_contention,
    "fig_4_24_26": fig_4_24_26_lammps,
    "fig_4_27_30": fig_4_27_30_pop,
    "table_4_1": table_4_1_patterns,
    "fig_a_1_2": fig_a_1_2_transpose_32,
    "fig_a_3": fig_a_3_shuffle_64,
    "fig_a_4": fig_a_4_bitrev_64,
    "ablation_notification": ablation_notification_mode,
    "ablation_max_paths": ablation_max_paths,
    "ablation_similarity": ablation_similarity_threshold,
    "ablation_thresholds": ablation_zone_thresholds,
}


# ======================================================================
# Extension experiments (§5.2 further work, implemented here)
# ======================================================================

def _run_built(spec: ScenarioSpec):
    """Build and run one hot-spot cell; the caller reads its live parts."""
    scenario = build(spec)
    scenario.sim.run(until=scenario.until)
    return scenario


def ext_warm_start(scale: Scale = QUICK) -> ExperimentResult:
    """§5.2 "static variation": pre-loading offline pattern knowledge."""
    result = ExperimentResult(
        "EXT-warmstart",
        "Warm-started PR-DRB (offline meta-information)",
        "Further work §5.2: PR-DRB routers could hold offline "
        "meta-information about communication patterns, so even the first "
        "occurrence is handled predictively.",
    )
    spec = _hotspot_spec(scale)
    schedule = spec.burst_schedule()
    # Cold run: learn the patterns.
    cold = _run_built(spec)
    cold_rec = cold.recorder
    # Warm run: same workload, databases pre-loaded before any event.
    warm = build(spec)
    loaded = warm.policy_obj.import_solutions(cold.policy_obj.export_solutions())
    warm.sim.run(until=warm.until)
    warm_rec = warm.recorder

    def first_burst_mean(recorder):
        t, v = recorder.latency_series.finalize()
        mask = (t >= 0) & (t < schedule.on_s + schedule.off_s)
        return float(v[mask].mean()) if mask.any() else 0.0

    cold_first = first_burst_mean(cold_rec)
    warm_first = first_burst_mean(warm_rec)
    result.rows.append(
        {
            "variant": "cold",
            "first_burst_us": round(cold_first * 1e6, 2),
            "global_latency_us": round(cold_rec.global_average_latency_s * 1e6, 2),
            "patterns_preloaded": 0,
        }
    )
    result.rows.append(
        {
            "variant": "warm",
            "first_burst_us": round(warm_first * 1e6, 2),
            "global_latency_us": round(warm_rec.global_average_latency_s * 1e6, 2),
            "patterns_preloaded": loaded,
        }
    )
    result.check("cold run exported patterns", loaded > 0)
    result.check(
        "warm start applied solutions immediately",
        warm.policy_obj.solutions_applied > 0,
    )
    result.check(
        "first burst not worse than cold (10% tolerance)",
        warm_first <= cold_first * 1.10,
    )
    return result


def ext_trend_detection(scale: Scale = QUICK) -> ExperimentResult:
    """§5.2 latency-trend extension: react before Threshold_High."""
    result = ExperimentResult(
        "EXT-trend",
        "Latency-trend congestion prediction",
        "Further work §5.2: with historic latency values PR-DRB could "
        "predict congestion before it arises; trend analysis could "
        "improve performance.",
    )
    variants = {"baseline": "pr-drb", "trend": "pr-drb:trend_detection=true"}
    runs = _runs(_hotspot_spec(scale), list(variants.values()), scale.seeds[:1])
    for label, policy in variants.items():
        r = runs[policy]
        result.rows.append(
            {
                "variant": label,
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
                "p99_us": round(r.p99_latency_s * 1e6, 2),
                "trend_triggers": r.policy_stats["trend_triggers"],
            }
        )
    base, trend = (runs[policy] for policy in variants.values())
    result.check("trend variant fired early triggers", trend.policy_stats["trend_triggers"] > 0)
    result.check("baseline never trend-triggers", base.policy_stats["trend_triggers"] == 0)
    result.check(
        "trend latency within 10% of baseline",
        trend.global_latency_s <= base.global_latency_s * 1.10,
    )
    return result


def ext_energy(scale: Scale = QUICK) -> ExperimentResult:
    """§5.2 energy-aware routing groundwork: per-policy energy accounting."""
    from repro.metrics.energy import measure_energy

    result = ExperimentResult(
        "EXT-energy",
        "Energy accounting per routing policy",
        "Further work §5.2: predictive knowledge enables energy-aware "
        "policies; this experiment provides the accounting baseline "
        "(static router power + dynamic per-bit energy).",
    )
    dynamic = {}
    for name in ("deterministic", "drb", "pr-drb"):
        scenario = _run_built(_hotspot_spec(scale, policy=name))
        report = measure_energy(scenario.fabric, scenario.until)
        dynamic[name] = report.dynamic_j
        row = {"policy": name, **report.row(), "global_latency_us":
               round(scenario.recorder.global_average_latency_s * 1e6, 2)}
        result.rows.append(row)
    result.check("all policies consumed dynamic energy", all(v > 0 for v in dynamic.values()))
    result.check(
        "DRB family pays an ACK energy overhead vs deterministic",
        dynamic["drb"] > dynamic["deterministic"],
    )
    return result


ALL_SCENARIOS["ext_warm_start"] = ext_warm_start
ALL_SCENARIOS["ext_trend"] = ext_trend_detection
ALL_SCENARIOS["ext_energy"] = ext_energy


def ext_saturation_curve(scale: Scale = QUICK) -> ExperimentResult:
    """Offered-load sweep: the classic latency-vs-load saturation curve.

    Not a numbered figure in the thesis, but the standard interconnection-
    network characterization behind its Table 4.2/4.3 operating points:
    adaptive multipath policies push the saturation knee to higher offered
    loads than deterministic routing.
    """
    result = ExperimentResult(
        "EXT-saturation",
        "Latency vs offered load (fat-tree, perfect shuffle)",
        "DRB-family routing sustains higher offered load before latency "
        "diverges; the deterministic baseline saturates first.",
    )
    rates = (400, 800, 1200, 1600) if scale.name == "quick" else (
        200, 400, 600, 800, 1000, 1200, 1400, 1600,
    )
    duration = 4e-4 if scale.name == "quick" else 8e-4
    curves: dict[str, list[float]] = {"deterministic": [], "drb": [], "pr-drb": []}
    for rate in rates:
        spec = _pattern_spec(
            scale, "perfect-shuffle", 32, rate, burst_on_s=duration, burst_off_s=0.0,
            repetitions=1, idle_rate_bps=0.0, drain_s=2e-3,
        )
        runs = _runs(spec, list(curves), scale.seeds[:1])
        row = {"rate_mbps": rate}
        for name in curves:
            curves[name].append(runs[name].mean_latency_s)
            row[f"{name}_us"] = round(runs[name].mean_latency_s * 1e6, 2)
        result.rows.append(row)
    for name, series in curves.items():
        result.check(
            f"{name}: latency grows with offered load",
            series[-1] > series[0],
        )
    result.check(
        "deterministic saturates hardest at the top rate",
        curves["deterministic"][-1] > curves["drb"][-1]
        and curves["deterministic"][-1] > curves["pr-drb"][-1],
    )
    return result


ALL_SCENARIOS["ext_saturation"] = ext_saturation_curve


def ext_mapping(scale: Scale = QUICK) -> ExperimentResult:
    """§3.1: routing performance depends on the pattern *and the mapping*.

    Replays a locality-heavy LAMMPS trace under three placements and the
    deterministic router: communication-aware placement keeps most volume
    on-leaf, random placement forces it through the fabric, and the DRB
    family then recovers part of the random-placement penalty.
    """
    from repro.api import build_network
    from repro.mapping import affinity_mapping, linear_mapping, mapping_cost, random_mapping
    from repro.metrics.recorder import StatsRecorder
    from repro.mpi.runtime import TraceRuntime
    from repro.mpi.trace import communication_matrix

    result = ExperimentResult(
        "EXT-mapping",
        "Rank-to-host placement vs network latency",
        "§3.1: HSIN routing performance depends mostly on the "
        "communication pattern used and the mapping of nodes to "
        "processors.",
    )
    ranks = scale.app_ranks
    tree = make_topology(_app_topology(scale))
    trace = lammps_chain_trace(num_ranks=ranks, iterations=max(2, scale.app_iterations))
    matrix = communication_matrix(trace, include_collectives=False)
    mappings = {
        "affinity": affinity_mapping(matrix, tree),
        "linear": linear_mapping(ranks, tree),
        "random": random_mapping(ranks, tree, seed=3),
    }
    latencies = {}
    for label, mapping in mappings.items():
        rec = StatsRecorder(window_s=RECORDER_WINDOW_S)
        net = build_network(_app_topology(scale), "deterministic", recorder=rec)
        runtime = TraceRuntime(net.fabric, trace, rank_to_host=mapping)
        exec_time = runtime.run(timeout_s=60.0)
        latencies[label] = rec.mean_latency_s
        result.rows.append(
            {
                "mapping": label,
                "hop_cost": round(mapping_cost(matrix, mapping, tree), 3),
                "mean_latency_us": round(rec.mean_latency_s * 1e6, 2),
                "exec_time_ms": round(exec_time * 1e3, 3),
            }
        )
    cost = {k: mapping_cost(matrix, m, tree) for k, m in mappings.items()}
    # Linear placement of a grid-decomposed code is itself a strong
    # topology-aware mapping (consecutive ranks share leaves), so the
    # claims to hold are: communication-aware placements beat the random
    # one, and lower hop cost means lower latency.
    result.check("affinity placement beats random (hop cost)",
                 cost["affinity"] < cost["random"])
    result.check("affinity placement beats random (latency)",
                 latencies["affinity"] < latencies["random"])
    ordered = sorted(cost, key=cost.get)
    result.check("latency ranks with hop cost",
                 latencies[ordered[0]] <= latencies[ordered[-1]])
    return result


ALL_SCENARIOS["ext_mapping"] = ext_mapping


def ext_virtual_channels(scale: Scale = QUICK) -> ExperimentResult:
    """§3.2.8 substrate: virtual-channel arbitration vs FIFO links.

    The paper's MSP segments ride separate virtual networks over shared
    physical links.  The packet-level observable is head-of-line
    blocking: under FIFO service a burst monopolizes a shared port, under
    round-robin VCs co-located flows keep progressing — visible in the
    tail latency of the hot-spot workload.
    """
    result = ExperimentResult(
        "EXT-vc",
        "Virtual-channel arbitration vs FIFO link service",
        "Virtual networks sharing the physical links (§3.2.8) prevent one "
        "flow's burst from head-of-line-blocking the others.",
    )
    values = {}
    for label, vcs in (("fifo", 1), ("vc4", 4)):
        r = _hotspot_runs(scale, ["pr-drb"], virtual_channels=vcs)["pr-drb"]
        values[label] = r
        result.rows.append(
            {
                "service": label,
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
                "p99_us": round(r.p99_latency_s * 1e6, 2),
                "accepted": round(r.accepted_ratio, 3),
            }
        )
    result.check("both configurations lossless",
                 all(v.accepted_ratio > 0.99 for v in values.values()))
    result.check(
        "VC arbitration does not inflate mean latency (10% tolerance)",
        values["vc4"].global_latency_s <= values["fifo"].global_latency_s * 1.10,
    )
    return result


ALL_SCENARIOS["ext_vc"] = ext_virtual_channels


def ext_slim_network_footprint(scale: Scale = QUICK) -> ExperimentResult:
    """§4.8.5 / §5.1: efficiency buys a smaller network footprint.

    The thesis concludes that PR-DRB "allows using less network
    components, because they are more efficiently handled" and that
    performance "is maintained even with a smaller network footprint".
    This experiment removes half the fat-tree's root switches (a slimmed
    tree) and checks that PR-DRB on the cheap network recovers what
    deterministic routing loses to the missing bisection.
    """
    result = ExperimentResult(
        "EXT-slimtree",
        "Smaller network footprint (slimmed fat-tree)",
        "PR-DRB on a half-bisection tree approaches the full tree's "
        "deterministic performance; deterministic routing on the slim "
        "tree degrades.",
    )
    rate = PAPER_RATE_MAP[400]
    configs = {
        "full+deterministic": ("slimtree:4,3,1.0", "deterministic"),
        "slim+deterministic": ("slimtree:4,3,0.5", "deterministic"),
        "slim+pr-drb": ("slimtree:4,3,0.5", "pr-drb"),
        "full+pr-drb": ("slimtree:4,3,1.0", "pr-drb"),
    }
    latency = {}
    for label, (topo_spec, policy) in configs.items():
        spec = _pattern_spec(scale, "perfect-shuffle", 32, rate, topology=topo_spec)
        r = _runs(spec, [policy], scale.seeds)[policy]
        latency[label] = r.global_latency_s
        result.rows.append(
            {
                "network": label,
                "routers": make_topology(topo_spec).num_live_routers,
                "global_latency_us": round(r.global_latency_s * 1e6, 2),
                "accepted": round(r.accepted_ratio, 3),
            }
        )
    result.check(
        "slimming hurts deterministic routing",
        latency["slim+deterministic"] > latency["full+deterministic"],
    )
    result.check(
        "PR-DRB recovers the slim network's performance",
        latency["slim+pr-drb"] < latency["slim+deterministic"],
    )
    result.check(
        "slim tree + PR-DRB rivals the full tree + deterministic (25% tol)",
        latency["slim+pr-drb"] <= latency["full+deterministic"] * 1.25,
    )
    return result


ALL_SCENARIOS["ext_slimtree"] = ext_slim_network_footprint


def ext_fault_resilience(scale: Scale = QUICK) -> ExperimentResult:
    """§3.3.2: metapath redundancy doubles as fault tolerance.

    Runs the seeded fault campaign (transient link flaps on the hottest
    flow's primary route + 10% ACK loss, reliable transport installed)
    once per policy and compares resilience metrics.  The thesis argues
    DRB's alternative MSPs give fault tolerance "for free"; here the
    deterministic baseline must burn its retry budget against the dead
    link while the DRB family prunes it and retransmits around.
    """
    import math

    from repro.faults.campaign import (
        DEFAULT_POLICIES,
        FaultCampaignSpec,
        run_fault_campaign,
    )

    result = ExperimentResult(
        "EXT-faults",
        "Delivered-under-fault ratio and recovery cost per policy",
        "DRB-family multipath tolerates link faults that defeat single-path "
        "deterministic routing; PR-DRB recovers with the least overhead.",
    )
    spec = FaultCampaignSpec(
        seed=scale.seeds[0], repetitions=min(scale.repetitions, 4)
    )
    runs = run_fault_campaign(DEFAULT_POLICIES, spec, executor=default_executor())
    ratios: dict[str, float] = {}
    for policy in DEFAULT_POLICIES:
        report = runs[policy].report
        ratios[policy] = report.delivered_ratio
        result.rows.append(
            {
                "policy": policy,
                "delivered_ratio": round(report.delivered_ratio, 3),
                "mttr_us": round(report.mttr_s * 1e6, 1),
                "retx_overhead": round(report.retransmission_overhead, 3),
                "abandoned": report.abandoned,
                "recovery_latency_us": round(
                    report.mean_recovery_latency_s * 1e6, 1
                ),
                "paths_pruned": report.paths_pruned,
            }
        )
        result.check(
            f"{policy}: delivers under faults",
            report.delivered_ratio > 0,
        )
        result.check(
            f"{policy}: MTTR finite (faults were repaired)",
            report.failures > 0 and math.isfinite(report.mttr_s),
        )
    result.check(
        "pr-drb delivered ratio >= deterministic's",
        ratios["pr-drb"] >= ratios["deterministic"],
    )
    result.check(
        "multipath policies prune dead MSPs",
        all(
            runs[p].report.paths_pruned > 0
            for p in ("drb", "pr-drb", "fr-drb")
        ),
    )
    return result


ALL_SCENARIOS["ext_faults"] = ext_fault_resilience


# ======================================================================
# Dragonfly extension: notified-adaptive routing (ROADMAP item 1)
# ======================================================================

#: every host of group 0 sends to its mirror host in group 1, so all
#: eight flows contend for the one global link the pair owns — minimal
#: routing caps the pair at 1/8th of the offered load while Valiant
#: detours through the other seven groups stay idle.
DRAGONFLY_HOTSPOT_FLOWS = [(h, h + 8) for h in range(8)]


def _dragonfly_runs(
    scale: Scale,
    policies,
    rate_mbps: float = HOTSPOT_RATE_MBPS,
    noise_rate_mbps: float = 0.0,
) -> dict[str, PolicyRun]:
    return _hotspot_runs(
        scale, policies, topology=DRAGONFLY_SPEC, flows=tuple(DRAGONFLY_HOTSPOT_FLOWS),
        rate_bps=rate_mbps * 1e6, burst_off_s=1e-4, repetitions=min(scale.repetitions, 2),
        noise_rate_bps=noise_rate_mbps * 1e6, idle_rate_bps=0.0,
    )


def ext_dragonfly_hotspot(scale: Scale = QUICK) -> ExperimentResult:
    """Adversarial group-pair hot-spot: notification-escalated Valiant.

    The dragonfly stress case from the ARN paper (arXiv:2502.00616): an
    adversarial permutation pins one group pair, whose single global link
    becomes the bottleneck.  Deterministic minimal routing saturates it;
    the notified-adaptive policy escalates the pair to Valiant on the
    first router notification and spreads the load over the idle groups,
    as does the UGAL queue-occupancy baseline it is measured against.
    """
    result = ExperimentResult(
        "EXT-dragonfly",
        "Dragonfly group-pair hot-spot (minimal vs notified Valiant)",
        "Minimal routing bottlenecks on the single inter-group link; "
        "notification-driven Valiant escalation restores full throughput "
        "(ARN, arXiv:2502.00616; UGAL as baseline).",
    )
    policies = ["deterministic", "notified-adaptive", "ugal"]
    runs = _dragonfly_runs(scale, policies)
    for name in policies:
        r = runs[name]
        row = r.row()
        row["valiant_routed"] = r.policy_stats.get("valiant_routed", 0)
        result.rows.append(row)
    det, arn, ugal = (
        runs["deterministic"], runs["notified-adaptive"], runs["ugal"],
    )
    result.check(
        "notified-adaptive throughput >= 1.2x deterministic",
        arn.accepted_ratio >= det.accepted_ratio * 1.2,
    )
    result.check(
        "notified-adaptive latency below deterministic",
        arn.global_latency_s < det.global_latency_s,
    )
    result.check(
        "router notifications escalated the pair",
        arn.policy_stats.get("escalations", 0) > 0
        and arn.policy_stats.get("valiant_routed", 0) > 0,
    )
    result.check(
        "UGAL also diverts to Valiant",
        ugal.policy_stats.get("valiant_routed", 0) > 0,
    )
    result.check(
        "UGAL throughput >= deterministic",
        ugal.accepted_ratio >= det.accepted_ratio,
    )
    return result


def ext_dragonfly_noise(scale: Scale = QUICK) -> ExperimentResult:
    """Network-noise interference on the dragonfly (arXiv:1909.07865).

    De Sensi et al. measure how background traffic from the *rest of the
    system* degrades an application pinned to a few groups.  Here the
    victim permutation (group 0 -> group 1) runs while every host injects
    uniform-random background noise; adaptive escape paths must help the
    victim even though the noise also occupies the non-minimal routes.
    """
    result = ExperimentResult(
        "EXT-dragonfly-noise",
        "Dragonfly victim traffic under background network noise",
        "Network noise inflates the victim's latency under minimal "
        "routing; notified-adaptive keeps the victim's throughput by "
        "escaping the congested group pair (De Sensi, arXiv:1909.07865).",
    )
    policies = ["deterministic", "notified-adaptive", "ugal"]
    runs = _dragonfly_runs(
        scale, policies, noise_rate_mbps=HOTSPOT_NOISE_MBPS * 2
    )
    for name in policies:
        r = runs[name]
        row = r.row()
        row["valiant_routed"] = r.policy_stats.get("valiant_routed", 0)
        result.rows.append(row)
    det, arn = runs["deterministic"], runs["notified-adaptive"]
    result.check(
        "victim throughput >= 1.2x deterministic under noise",
        arn.accepted_ratio >= det.accepted_ratio * 1.2,
    )
    result.check(
        "victim latency below deterministic under noise",
        arn.global_latency_s < det.global_latency_s,
    )
    result.check(
        "noise did not wedge any policy",
        all(runs[p].accepted_ratio > 0 for p in policies),
    )
    return result


ALL_SCENARIOS["ext_dragonfly_hotspot"] = ext_dragonfly_hotspot
ALL_SCENARIOS["ext_dragonfly_noise"] = ext_dragonfly_noise
