"""Determinism & invariant analysis subsystem.

The paper's evaluation method rests on reproducible repeated-burst
experiments: every figure is a multi-seed average, and PR-DRB's predictive
contribution (replaying a saved solution when a congestion signature
recurs) is only measurable when run-to-run behaviour is bit-stable for a
given seed.  This package makes that property machine-checked instead of
aspirational, in four layers:

* :mod:`repro.analysis.lint` — AST-based static lints tuned to this
  simulator (``no-ambient-rng``, ``no-wall-clock``, ``no-salted-hash``,
  ``no-unordered-iteration``, ``no-float-eq``), with per-line
  ``# repro: allow(<rule>)`` suppressions and JSON/human output.
  Run as ``python -m repro.analysis src/``.
* :mod:`repro.analysis.invariants` — :class:`DebugInvariants`, a runtime
  checker installable on a live :class:`~repro.network.fabric.Fabric`
  asserting clock monotonicity, packet conservation, buffer-credit
  non-negativity and metapath zone-transition legality while a simulation
  runs.
* :mod:`repro.analysis.replay` — the scenario spine: one
  :class:`~repro.analysis.replay.ScenarioSpec` per run, built and
  digested (event trace and metrics) the one way; the tier-1 tests and
  ``python -m repro.perf`` hold same-seed digests bit-identical.
* :mod:`repro.analysis.reporting` — the lints' text/JSON rendering and
  the stale-pragma audit (``python -m repro.analysis src --prune-pragmas``).

See ``docs/invariants.md`` and ``docs/static_analysis.md`` for the
complete rule & invariant catalogue.
"""

from repro.analysis.invariants import DebugInvariants, InvariantViolation
from repro.analysis.lint import (
    ALL_RULES,
    Violation,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.replay import RunDigest, run_scenario

__all__ = [
    "ALL_RULES",
    "DebugInvariants",
    "InvariantViolation",
    "RunDigest",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_source",
    "run_scenario",
]
