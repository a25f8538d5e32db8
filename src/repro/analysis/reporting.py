"""Reporting for the determinism lints: output formats and pragma audit.

The linter (:mod:`repro.analysis.lint`) reports its findings
(:class:`~repro.analysis.lint.Violation`) through this module:

* **output formats** — human text and machine JSON;
* **suppression audit** — ``# repro: allow(<rule>)`` pragmas that no
  longer suppress anything are technical debt in reverse: they hide the
  rule from future regressions.  :func:`audit_pragmas` runs every lint
  rule and reports stale pragmas.

See ``docs/static_analysis.md`` for the workflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.lint import Violation

__all__ = [
    "StalePragma",
    "audit_pragmas",
    "render_json",
    "render_text",
]


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------
def render_text(violations: Sequence["Violation"], files_checked: int) -> str:
    """The classic one-line-per-finding rendering plus a summary line."""
    lines = [v.render() for v in violations]
    label = "violation" if len(violations) == 1 else "violations"
    lines.append(f"{len(violations)} {label} in {files_checked} files")
    return "\n".join(lines)


def render_json(violations: Sequence["Violation"], files_checked: int) -> str:
    return json.dumps(
        {
            "files_checked": files_checked,
            "violations": [v.to_dict() for v in violations],
        },
        indent=2,
    )


# ----------------------------------------------------------------------
# Unused-suppression audit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StalePragma:
    """One ``# repro: allow(<rule>)`` name that suppresses nothing."""

    path: str
    line: int
    rule: str
    #: "unused" (rule exists, nothing to suppress) or "unknown" (no such rule).
    reason: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: stale pragma `# repro: allow({self.rule})` ({self.reason})"


def audit_pragmas(paths: Sequence[str]) -> list[StalePragma]:
    """Report every pragma rule name that no longer suppresses a finding.

    Runs the determinism lints in suppression-tracking mode, then diffs
    the set of ``(path, line, rule)`` pragmas actually consumed against
    the set declared in the sources.
    """
    from repro.analysis import lint

    declared: set[tuple[str, int, str]] = set()
    files = lint._python_files(paths)
    for file in files:
        source = file.read_text(encoding="utf-8")
        for lineno, rules in lint.allowed_rules(source).items():
            for rule in rules:
                declared.add((str(file), lineno, rule))
    if not declared:
        return []

    used: set[tuple[str, int, str]] = set()
    for file in files:
        _, suppressed = lint.lint_file_tracked(str(file))
        for v in suppressed:
            used.add((v.path, v.line, v.rule))

    stale = []
    for path, line, rule in sorted(declared - used):
        reason = "unused" if rule in lint.ALL_RULES else "unknown rule"
        stale.append(StalePragma(path=path, line=line, rule=rule, reason=reason))
    return stale
