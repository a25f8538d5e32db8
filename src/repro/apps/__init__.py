"""Application workload synthesizers (Chapter 2 + §4.8).

The thesis drives PR-DRB with logical traces of real applications (NAS
LU/MG, LAMMPS, POP, Sweep3D) extracted with PAS2P.  We do not have those
proprietary trace files, so this subpackage *synthesizes* traces that
reproduce the published observables: the communication matrices of
Figs 2.10-2.13 (diagonal bands + scattered remote partners, TDC values),
the MPI-call breakdown of Table 2.1, and the phase/repetitiveness
structure of Table 2.2.  PR-DRB only ever sees the induced network
traffic, so matching those observables preserves the experiment.
"""

from typing import Callable

from repro.apps.commmatrix import CommMatrixStats, band_fraction
from repro.apps.phases import PhaseReport, detect_phases
from repro.apps.nas import nas_lu_trace, nas_mg_trace, nas_ft_trace
from repro.apps.lammps import lammps_chain_trace, lammps_comb_trace
from repro.apps.pop import pop_trace
from repro.apps.smg2000 import smg2000_trace
from repro.apps.sweep3d import sweep3d_trace
from repro.mpi.trace import Trace

__all__ = [
    "CommMatrixStats",
    "band_fraction",
    "PhaseReport",
    "detect_phases",
    "nas_lu_trace",
    "nas_mg_trace",
    "nas_ft_trace",
    "lammps_chain_trace",
    "lammps_comb_trace",
    "pop_trace",
    "smg2000_trace",
    "sweep3d_trace",
    "APP_TRACES",
]

#: registry used by the experiment harness.
APP_TRACES: dict[str, Callable[..., Trace]] = {
    "nas-lu": nas_lu_trace,
    "nas-mg": nas_mg_trace,
    "nas-ft": nas_ft_trace,
    "lammps-chain": lammps_chain_trace,
    "lammps-comb": lammps_comb_trace,
    "pop": pop_trace,
    "smg2000": smg2000_trace,
    "sweep3d": sweep3d_trace,
}
