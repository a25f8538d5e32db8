"""Determinism lints: AST rules tuned to this simulator.

Every rule guards a way simulations silently stop being reproducible:

``no-ambient-rng``
    Any ``np.random.*`` call or ``random`` import outside
    ``repro/sim/rng.py``.  All randomness must flow through
    :class:`~repro.sim.rng.RandomStreams` or
    :func:`~repro.sim.rng.seeded_generator` so each draw is traceable to
    an explicit root seed.
``no-wall-clock``
    ``time.time`` / ``perf_counter`` / ``datetime.now`` and friends in
    model code.  Simulated time is ``Simulator.now``; wall-clock readings
    differ per run and per host.
``no-salted-hash``
    The builtin ``hash()``.  Python salts string hashes per process
    (PYTHONHASHSEED), so hash-derived values change between runs; use
    :func:`~repro.sim.rng.stable_hash` (FNV-1a) instead.
``no-unordered-iteration``
    Iterating a ``set`` where the visit order can leak into behaviour
    (``for`` loops, ``list()``/``tuple()``/``join`` materialisation, list
    comprehensions), or iterating a dict view inside a loop body that
    schedules or injects work.  Wrap the set in ``sorted(...)``.
    Order-insensitive folds (``len``/``sum``/``min``/``max``/``any``/
    ``all``/membership) are fine and not flagged.
``no-float-eq``
    Direct ``==``/``!=`` against a non-integral float literal, or between
    two latency/threshold-named quantities.  Accumulated float state is
    not exactly comparable; use an ordering test or an explicit tolerance.
    Integral-valued literals (``0.0``, ``-1.0`` sentinels) are allowed.

A violation is suppressed by a trailing ``# repro: allow(<rule>)`` comment
on the statement's first line (several rules comma-separated).  See
``docs/invariants.md`` for the full catalogue and rationale.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = [
    "ALL_RULES",
    "Violation",
    "allowed_rules",
    "lint_source",
    "lint_source_tracked",
    "lint_file",
    "lint_file_tracked",
    "lint_paths",
    "main",
]


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")

#: wall-clock call sites, matched by dotted-name suffix.
_WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: names importable from ``time`` that read the wall clock.
_WALL_CLOCK_FROM_TIME = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
}

#: builtins that fold an iterable without exposing its order.
_ORDER_INSENSITIVE = {"len", "sum", "min", "max", "any", "all", "sorted", "frozenset", "set"}

#: set methods whose result is again a set.
_SET_PRODUCING_METHODS = {"union", "intersection", "difference", "symmetric_difference", "copy"}

#: callees whose result order follows the argument's iteration order.
_ORDER_MATERIALISING = {"list", "tuple"}

#: method calls inside a loop body that make iteration order behavioural.
_SCHEDULING_METHODS = {"schedule", "schedule_at", "send", "inject", "submit"}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def allowed_rules(source: str) -> dict[int, set[str]]:
    """Map line number -> rule names suppressed on that line.

    Shared by the per-file lints and the unused-suppression audit
    (:func:`repro.analysis.reporting.audit_pragmas`) — one pragma syntax,
    one parser.  Only genuine ``#`` comment tokens count: a pragma-shaped
    string inside a docstring documents the syntax, it doesn't invoke it.
    """
    import io
    import tokenize

    allowed: dict[int, set[str]] = {}

    def add(lineno: int, text: str) -> None:
        match = _ALLOW_RE.search(text)
        if match:
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if rules:
                allowed.setdefault(lineno, set()).update(rules)

    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                add(token.start[0], token.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable tail (rare; lint will surface the SyntaxError) —
        # fall back to the line-based scan so pragmas still work.
        allowed.clear()
        for lineno, line in enumerate(source.splitlines(), start=1):
            add(lineno, line)
    return allowed


class _Rule:
    """Base class: one named check over a parsed module."""

    name = "rule"
    summary = ""

    def check(self, tree: ast.Module, path: str) -> list[Violation]:
        raise NotImplementedError

    def _violation(self, node: ast.AST, path: str, message: str) -> Violation:
        return Violation(
            rule=self.name,
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class NoAmbientRng(_Rule):
    name = "no-ambient-rng"
    summary = "ambient numpy/stdlib RNG outside repro/sim/rng.py"

    _EXEMPT_SUFFIX = ("sim", "rng.py")

    def _exempt(self, path: str) -> bool:
        return Path(path).parts[-2:] == self._EXEMPT_SUFFIX

    def check(self, tree: ast.Module, path: str) -> list[Violation]:
        if self._exempt(path):
            return []
        out: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        out.append(
                            self._violation(
                                node,
                                path,
                                "import of the stdlib `random` module; route draws "
                                "through repro.sim.rng.RandomStreams",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    out.append(
                        self._violation(
                            node,
                            path,
                            "import from the stdlib `random` module; route draws "
                            "through repro.sim.rng.RandomStreams",
                        )
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) >= 3
                    and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                ):
                    out.append(
                        self._violation(
                            node,
                            path,
                            f"ambient `{dotted}(...)`; inject a Generator from "
                            "RandomStreams.stream(...) or call "
                            "repro.sim.rng.seeded_generator(seed)",
                        )
                    )
                elif parts[0] == "random" and len(parts) == 2:
                    out.append(
                        self._violation(
                            node,
                            path,
                            f"stdlib `{dotted}(...)`; route draws through "
                            "repro.sim.rng.RandomStreams",
                        )
                    )
        return out


class NoWallClock(_Rule):
    name = "no-wall-clock"
    summary = "wall-clock reads in model code"

    def check(self, tree: ast.Module, path: str) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                for suffix in _WALL_CLOCK_SUFFIXES:
                    if dotted == suffix or dotted.endswith("." + suffix):
                        out.append(
                            self._violation(
                                node,
                                path,
                                f"wall-clock read `{dotted}()`; model code must use "
                                "the simulation clock (Simulator.now)",
                            )
                        )
                        break
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names if a.name in _WALL_CLOCK_FROM_TIME]
                if bad:
                    out.append(
                        self._violation(
                            node,
                            path,
                            f"imports wall-clock reader(s) {bad} from `time`; model "
                            "code must use the simulation clock (Simulator.now)",
                        )
                    )
        return out


class NoSaltedHash(_Rule):
    name = "no-salted-hash"
    summary = "builtin hash() feeding simulation state"

    def check(self, tree: ast.Module, path: str) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                out.append(
                    self._violation(
                        node,
                        path,
                        "builtin hash() is salted per process (PYTHONHASHSEED); "
                        "use repro.sim.rng.stable_hash for reproducible hashing",
                    )
                )
        return out


class NoUnorderedIteration(_Rule):
    name = "no-unordered-iteration"
    summary = "behaviour depending on set iteration order"

    def check(self, tree: ast.Module, path: str) -> list[Violation]:
        out: list[Violation] = []
        self._scan_scope(tree.body, set(), path, out)
        return out

    # -- scope walking --------------------------------------------------
    def _scan_scope(
        self,
        body: Sequence[ast.stmt],
        known_sets: set[str],
        path: str,
        out: list[Violation],
    ) -> None:
        """Walk one scope's statements in order, tracking set-typed names."""
        known = set(known_sets)
        for stmt in body:
            self._scan_stmt(stmt, known, path, out)

    def _scan_stmt(
        self, stmt: ast.stmt, known: set[str], path: str, out: list[Violation]
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # New scope; parameters are unknown, module-level sets visible.
            self._scan_scope(stmt.body, known, path, out)
            return
        if isinstance(stmt, ast.ClassDef):
            self._scan_scope(stmt.body, known, path, out)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._track_binding(stmt, known)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self._is_set_expr(stmt.iter, known):
                out.append(
                    self._violation(
                        stmt,
                        path,
                        "for-loop over an unordered set; wrap the iterable in "
                        "sorted(...) so visit order is reproducible",
                    )
                )
            elif self._is_dict_view(stmt.iter) and self._body_schedules(stmt.body):
                out.append(
                    self._violation(
                        stmt,
                        path,
                        "loop over a dict view whose body schedules/injects work; "
                        "make the iteration order explicit (sorted(...) or a list)",
                    )
                )
        # Expressions belonging to *this* statement (nested statements are
        # visited by the recursion below, so don't walk into them here —
        # that would report the same violation once per ancestor).
        for node in self._own_expressions(stmt):
            if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter, known):
                        out.append(
                            self._violation(
                                node,
                                path,
                                "comprehension over an unordered set produces an "
                                "ordered result; wrap the source in sorted(...)",
                            )
                        )
            elif isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Name)
                    and callee.id in _ORDER_MATERIALISING
                    and len(node.args) == 1
                    and self._is_set_expr(node.args[0], known)
                ):
                    out.append(
                        self._violation(
                            node,
                            path,
                            f"{callee.id}(...) materialises a set in arbitrary "
                            "order; use sorted(...)",
                        )
                    )
                elif (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == "join"
                    and len(node.args) == 1
                    and self._is_set_expr(node.args[0], known)
                ):
                    out.append(
                        self._violation(
                            node,
                            path,
                            "str.join over a set concatenates in arbitrary order; "
                            "use sorted(...)",
                        )
                    )
        # Recurse into nested blocks (conditionals/loops share the scope).
        for field in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field, None)
            if sub and not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for inner in sub:
                    if isinstance(inner, ast.stmt):
                        self._scan_stmt(inner, known, path, out)
        for handler in getattr(stmt, "handlers", []) or []:
            for inner in handler.body:
                self._scan_stmt(inner, known, path, out)

    def _track_binding(self, stmt: ast.stmt, known: set[str]) -> None:
        if isinstance(stmt, ast.AugAssign):
            return  # |= etc. on a known set keeps it a set; nothing to do
        targets: list[ast.expr]
        value: Optional[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        else:  # AnnAssign
            targets, value = [stmt.target], stmt.value
        if value is None:
            return
        is_set = self._is_set_expr(value, known)
        for target in targets:
            if isinstance(target, ast.Name):
                if is_set:
                    known.add(target.id)
                else:
                    known.discard(target.id)

    # -- expression classification --------------------------------------
    def _is_set_expr(self, node: ast.expr, known: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in known
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_PRODUCING_METHODS
                and self._is_set_expr(node.func.value, known)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left, known) or self._is_set_expr(
                node.right, known
            )
        return False

    @staticmethod
    def _own_expressions(stmt: ast.stmt):
        """Expression nodes of ``stmt``, excluding nested statements."""
        stack = [c for c in ast.iter_child_nodes(stmt) if not isinstance(c, ast.stmt)]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                c for c in ast.iter_child_nodes(node) if not isinstance(c, ast.stmt)
            )

    @staticmethod
    def _is_dict_view(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "values", "items")
            and not node.args
            and not node.keywords
        )

    @staticmethod
    def _body_schedules(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SCHEDULING_METHODS
                ):
                    return True
        return False


class NoFloatEq(_Rule):
    name = "no-float-eq"
    summary = "exact equality on accumulated floats"

    _NAME_HINT = re.compile(r"latency|threshold", re.IGNORECASE)

    def check(self, tree: ast.Module, path: str) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if self._non_integral_float(left) or self._non_integral_float(right):
                    out.append(
                        self._violation(
                            node,
                            path,
                            "exact ==/!= against a non-integral float literal; "
                            "use an ordering test or an explicit tolerance",
                        )
                    )
                elif self._latency_name(left) and self._latency_name(right):
                    out.append(
                        self._violation(
                            node,
                            path,
                            "exact ==/!= between latency/threshold quantities; "
                            "accumulated floats are not exactly comparable",
                        )
                    )
        return out

    @staticmethod
    def _non_integral_float(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value != int(node.value)
        )

    @classmethod
    def _latency_name(cls, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        terminal: Optional[str] = None
        if isinstance(node, ast.Attribute):
            terminal = node.attr
        elif isinstance(node, ast.Name):
            terminal = node.id
        return terminal is not None and bool(cls._NAME_HINT.search(terminal))


ALL_RULES: dict[str, _Rule] = {
    rule.name: rule
    for rule in (
        NoAmbientRng(),
        NoWallClock(),
        NoSaltedHash(),
        NoUnorderedIteration(),
        NoFloatEq(),
    )
}


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def lint_source_tracked(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> tuple[list[Violation], list[Violation]]:
    """Lint one module; returns ``(unsuppressed, pragma-suppressed)``.

    The suppressed list is what the unused-suppression audit consumes: a
    pragma that appears in no suppressed violation is stale.
    """
    tree = ast.parse(source, filename=path)
    allowed = allowed_rules(source)
    selected = [ALL_RULES[name] for name in (rules or ALL_RULES)]
    violations: list[Violation] = []
    suppressed: list[Violation] = []
    for rule in selected:
        for violation in rule.check(tree, path):
            if violation.rule in allowed.get(violation.line, set()):
                suppressed.append(violation)
            else:
                violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    suppressed.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations, suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> list[Violation]:
    """Lint one module's source; returns unsuppressed violations."""
    return lint_source_tracked(source, path=path, rules=rules)[0]


def lint_file_tracked(
    path: str, rules: Optional[Iterable[str]] = None
) -> tuple[list[Violation], list[Violation]]:
    source = Path(path).read_text(encoding="utf-8")
    return lint_source_tracked(source, path=str(path), rules=rules)


def lint_file(path: str, rules: Optional[Iterable[str]] = None) -> list[Violation]:
    return lint_file_tracked(path, rules=rules)[0]


def _python_files(paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if not p.exists():
            raise FileNotFoundError(f"no such file or directory: {entry}")
        if p.is_dir():
            files.extend(
                f
                for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_paths(
    paths: Sequence[str], rules: Optional[Iterable[str]] = None
) -> list[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    violations: list[Violation] = []
    for file in _python_files(paths):
        violations.extend(lint_file(str(file), rules=rules))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.analysis [paths...] [--format F] [--rule NAME]
    [--prune-pragmas]``."""
    import argparse

    from repro.analysis.reporting import audit_pragmas, render_json, render_text

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism lints for the PR-DRB simulator.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help="output format (default: text)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (alias for --format json)",
    )
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    parser.add_argument(
        "--prune-pragmas",
        action="store_true",
        help="audit `# repro: allow(...)` pragmas; list the stale ones and exit 1 when any exist",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rule_names",
        choices=sorted(ALL_RULES),
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(ALL_RULES):
            print(f"{name}: {ALL_RULES[name].summary}")
        return 0

    if args.prune_pragmas:
        try:
            stale = audit_pragmas(args.paths or ["src"])
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for pragma in stale:
            print(pragma.render())
        label = "stale pragma" if len(stale) == 1 else "stale pragmas"
        print(f"{len(stale)} {label}")
        return 1 if stale else 0

    try:
        files = _python_files(args.paths or ["src"])
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = [v for file in files for v in lint_file(str(file), rules=args.rule_names)]
    files_checked = len(files)

    fmt = args.format or ("json" if args.json else "text")
    if fmt == "json":
        rendered = render_json(violations, files_checked)
    else:
        rendered = render_text(violations, files_checked)

    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(rendered)
    return 1 if violations else 0
