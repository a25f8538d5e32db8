"""Cross-module contract analyzer (``python -m repro.analysis check``).

Where :mod:`repro.analysis.lint` checks one file at a time, the contract
passes here reason over a shared :class:`~repro.analysis.contracts.graph.
ModuleGraph` — every module under the analyzed roots parsed once, with a
symbol table of classes (slots, fields, bases), functions (signatures),
and imports.  Five passes enforce the contracts the reproduction's
bit-stability rests on:

``digest-purity``
    Tracer-guarded branches, ``repro.obs`` sinks, and metrics providers
    must never write simulation state (docs/observability.md).
``spawn-safety``
    Worker-dispatched task functions must be module-level and free of
    ambient module state (docs/parallel.md).
``slots-consistency``
    Attributes assigned on ``__slots__`` classes must be declared —
    across all modules, not just ``__init__``.
``scheduler-callback``
    ``schedule(...)`` call sites must pack an argument count the callee
    accepts (the event freelist makes runtime arity errors hard to
    attribute).
``frozen-stats-keys``
    ``stats()`` key sets are append-only versus ``stats_manifest.json``.

Findings share the lint reporting stack (:mod:`repro.analysis.reporting`):
``# repro: allow(<rule>)`` pragmas, ratchet baselines, text/JSON/SARIF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.contracts.callbacks import SchedulerCallbackPass
from repro.analysis.contracts.graph import ModuleGraph
from repro.analysis.contracts.purity import DigestPurityPass
from repro.analysis.contracts.slots import SlotsConsistencyPass
from repro.analysis.contracts.spawnsafe import SpawnSafetyPass
from repro.analysis.contracts.statskeys import (
    FrozenStatsKeysPass,
    build_manifest,
    extract_stats_keys,
)
from repro.analysis.lint import Violation, allowed_rules

__all__ = [
    "DEFAULT_MANIFEST",
    "PASS_CATALOGUE",
    "ContractReport",
    "ModuleGraph",
    "analyze_graph",
    "analyze_paths",
    "build_manifest",
    "extract_stats_keys",
    "main",
]

#: conventional manifest location (repo root, committed).
DEFAULT_MANIFEST = "stats_manifest.json"

#: rule id -> one-line summary, for --list-passes and the SARIF driver.
PASS_CATALOGUE: dict[str, str] = {
    DigestPurityPass.name: DigestPurityPass.summary,
    SpawnSafetyPass.name: SpawnSafetyPass.summary,
    SlotsConsistencyPass.name: SlotsConsistencyPass.summary,
    SchedulerCallbackPass.name: SchedulerCallbackPass.summary,
    FrozenStatsKeysPass.name: FrozenStatsKeysPass.summary,
}


@dataclass
class ContractReport:
    """Everything one analyzer run produced."""

    #: unsuppressed findings, sorted by (path, line, col, rule).
    findings: list[Violation] = field(default_factory=list)
    #: findings silenced by a ``repro: allow(<rule>)`` pragma comment.
    suppressed: list[Violation] = field(default_factory=list)
    files_checked: int = 0


def _build_passes(
    names: Optional[Sequence[str]], manifest_path: Optional[str | Path]
) -> list:
    registry = {
        DigestPurityPass.name: lambda: DigestPurityPass(),
        SpawnSafetyPass.name: lambda: SpawnSafetyPass(),
        SlotsConsistencyPass.name: lambda: SlotsConsistencyPass(),
        SchedulerCallbackPass.name: lambda: SchedulerCallbackPass(),
        FrozenStatsKeysPass.name: lambda: FrozenStatsKeysPass(manifest_path),
    }
    selected = list(names) if names else list(PASS_CATALOGUE)
    unknown = [n for n in selected if n not in registry]
    if unknown:
        raise ValueError(f"unknown contract pass(es) {unknown}; known: {sorted(registry)}")
    return [registry[name]() for name in selected]


def analyze_graph(
    graph: ModuleGraph,
    passes: Optional[Sequence[str]] = None,
    manifest_path: Optional[str | Path] = None,
) -> ContractReport:
    """Run the selected passes over an already-built graph.

    ``manifest_path`` is taken literally: ``None`` disables the
    frozen-stats-keys comparison.  Only the CLI (and the pragma audit)
    default it to :data:`DEFAULT_MANIFEST` in the working directory —
    a library caller analyzing an arbitrary tree must opt in, else a
    repo-root manifest would leak into unrelated graphs.
    """
    raw: list[Violation] = []
    for contract_pass in _build_passes(passes, manifest_path):
        raw.extend(contract_pass.check(graph))
    # Pragma filtering: line-level ``repro: allow(<rule>)`` comments,
    # same machinery and semantics as the per-file lints.
    allow_by_path: dict[str, dict[int, set[str]]] = {}
    for module in graph.modules.values():
        allow_by_path[module.path] = allowed_rules(module.source)
    report = ContractReport(files_checked=len(graph.modules))
    for violation in raw:
        allowed = allow_by_path.get(violation.path, {})
        if violation.rule in allowed.get(violation.line, set()):
            report.suppressed.append(violation)
        else:
            report.findings.append(violation)
    report.findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule, v.message))
    report.suppressed.sort(key=lambda v: (v.path, v.line, v.col, v.rule, v.message))
    return report


def analyze_paths(
    paths: Sequence[str],
    passes: Optional[Sequence[str]] = None,
    manifest_path: Optional[str | Path] = None,
) -> ContractReport:
    """Build the module graph for ``paths`` and run the contract passes."""
    graph = ModuleGraph.from_paths(list(paths))
    return analyze_graph(graph, passes=passes, manifest_path=manifest_path)


from repro.analysis.contracts.cli import main  # noqa: E402  (CLI needs the API above)
