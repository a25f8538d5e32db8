"""Determinism & invariant analysis subsystem.

The paper's evaluation method rests on reproducible repeated-burst
experiments: every figure is a multi-seed average, and PR-DRB's predictive
contribution (replaying a saved solution when a congestion signature
recurs) is only measurable when run-to-run behaviour is bit-stable for a
given seed.  This package makes that property machine-checked instead of
aspirational, in two layers:

* :mod:`repro.analysis.invariants` — :class:`DebugInvariants`, a runtime
  checker installable on a live :class:`~repro.network.fabric.Fabric`
  asserting clock monotonicity, packet conservation, buffer-credit
  non-negativity and metapath zone-transition legality while a simulation
  runs.
* :mod:`repro.analysis.replay` — the scenario spine: one
  :class:`~repro.analysis.replay.ScenarioSpec` per run, built and
  digested (event trace and metrics) the one way; the tier-1 tests and
  ``python -m repro.perf`` hold same-seed digests bit-identical.

The source patterns that break replay (ambient RNG, wall-clock reads,
salted ``hash()``, set iteration order) are refused by the tier-1 test
``tests/test_determinism_sources.py``.  See ``docs/invariants.md`` for
the complete hazard and invariant catalogue.
"""

from repro.analysis.invariants import DebugInvariants, InvariantViolation
from repro.analysis.replay import RunDigest, run_scenario

__all__ = [
    "DebugInvariants",
    "InvariantViolation",
    "RunDigest",
    "run_scenario",
]
