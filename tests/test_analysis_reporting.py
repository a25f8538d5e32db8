"""Tests for the lint reporting: output formats and the pragma audit."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.lint import Violation, lint_source_tracked
from repro.analysis.reporting import audit_pragmas, render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent


def v(rule="no-wall-clock", path="src/m.py", line=3, col=4, message="msg"):
    return Violation(rule=rule, path=path, line=line, col=col, message=message)


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def test_render_text_lists_findings_and_summary():
    out = render_text([v(message="tick tock")], files_checked=7)
    assert "src/m.py:3:4" in out
    assert out.endswith("1 violation in 7 files")


def test_render_json_roundtrips():
    data = json.loads(render_json([v()], files_checked=2))
    assert data["files_checked"] == 2
    assert data["violations"][0]["rule"] == "no-wall-clock"


# ----------------------------------------------------------------------
# Tracked suppression + pragma audit
# ----------------------------------------------------------------------
def test_lint_source_tracked_separates_suppressed():
    source = textwrap.dedent(
        """
        import time

        def now():
            return time.time()  # repro: allow(no-wall-clock)

        def later():
            return time.time()
        """
    )
    unsuppressed, suppressed = lint_source_tracked(source, "m.py")
    assert [x.rule for x in suppressed] == ["no-wall-clock"]
    assert any(x.rule == "no-wall-clock" for x in unsuppressed)


def test_docstring_pragma_lookalike_does_not_suppress():
    source = textwrap.dedent(
        '''
        import time

        def now():
            """Uses time.time()  # repro: allow(no-wall-clock)"""
            return time.time()
        '''
    )
    unsuppressed, suppressed = lint_source_tracked(source, "m.py")
    assert suppressed == []
    assert any(x.rule == "no-wall-clock" for x in unsuppressed)


def write_tree(tmp_path, sources):
    root = tmp_path / "tree" / "pkg"
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("")
    for rel, src in sources.items():
        (root / rel).write_text(textwrap.dedent(src))
    return tmp_path / "tree"


def test_audit_reports_unused_and_unknown_pragmas(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "m.py": """
                import time

                def now():
                    return time.time()  # repro: allow(no-wall-clock)

                def pure():
                    return 1  # repro: allow(no-wall-clock)

                def typo():
                    return 2  # repro: allow(no-wall-clok)
                """,
        },
    )
    stale = audit_pragmas([str(root)])
    assert [(s.rule, s.reason) for s in stale] == [
        ("no-wall-clock", "unused"),
        ("no-wall-clok", "unknown rule"),
    ]


def test_repo_tree_has_no_stale_pragmas():
    assert audit_pragmas([str(REPO_ROOT / "src")]) == []


# ----------------------------------------------------------------------
# Lint CLI: --format / --prune-pragmas
# ----------------------------------------------------------------------
def run_lint_cli(args, cwd):
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_lint_cli_json_alias_still_works(tmp_path):
    root = write_tree(tmp_path, {"m.py": "x = 1\n"})
    proc = run_lint_cli([str(root), "--json"], cwd=tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["violations"] == []


def test_lint_cli_prune_pragmas_exit_codes(tmp_path):
    stale_tree = write_tree(
        tmp_path, {"m.py": "x = 1  # repro: allow(no-wall-clock)\n"}
    )
    proc = run_lint_cli([str(stale_tree), "--prune-pragmas"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "stale pragma" in proc.stdout

    clean = tmp_path / "clean" / "pkg"
    clean.mkdir(parents=True)
    (clean / "__init__.py").write_text("")
    (clean / "m.py").write_text("x = 1\n")
    proc = run_lint_cli([str(tmp_path / "clean"), "--prune-pragmas"], cwd=tmp_path)
    assert proc.returncode == 0


def test_lint_cli_out_writes_file(tmp_path):
    root = write_tree(tmp_path, {"m.py": "x = 1\n"})
    target = tmp_path / "report.json"
    proc = run_lint_cli(
        [str(root), "--format", "json", "--out", str(target)], cwd=tmp_path
    )
    assert proc.returncode == 0
    assert json.loads(target.read_text())["violations"] == []
