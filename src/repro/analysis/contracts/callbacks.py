"""scheduler-callback: schedule()/schedule_at() call sites match callees.

The engine dispatches ``fn(*args)`` with whatever arguments the call
site packed into the event (:meth:`repro.sim.engine.Simulator.schedule`).
An arity mismatch is invisible until the event *fires* — and with the
event freelist recycling payloads, the traceback points at the dispatch
loop, not the buggy ``schedule`` call made milliseconds of sim-time
earlier.  This pass checks every call site statically:

* calls ``<...>.sim.schedule(delay, fn, *args)`` and
  ``schedule_at(time, fn, *args)`` (receiver terminal ``sim`` /
  ``simulator`` — the engine naming convention) are matched against the
  resolved callee's signature;
* ``fn`` resolves when it is ``self.<method>`` (looked up through the
  class and its graph-resolvable bases), a local or module-level
  function, or an imported module-level function;
* the packed argument count must fall inside the callee's accepted
  positional range, and the callee must not declare default-less
  keyword-only parameters (``fn(*args)`` can never supply them).

Starred arguments and unresolvable callables are skipped, not guessed.
Suppress with ``# repro: allow(scheduler-callback)``.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.contracts.graph import (
    ClassInfo,
    FunctionInfo,
    ModuleGraph,
    ModuleInfo,
    _function_info,
)
from repro.analysis.lint import Violation

__all__ = ["SchedulerCallbackPass"]

RULE = "scheduler-callback"

_SCHEDULE_METHODS = {"schedule", "schedule_at"}
_SIM_NAMES = {"sim", "simulator", "engine"}


def _terminal(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class SchedulerCallbackPass:
    name = RULE
    summary = "schedule()/schedule_at() callbacks with mismatched arity"

    def check(self, graph: ModuleGraph) -> list[Violation]:
        out: list[Violation] = []
        for module in sorted(graph.modules.values(), key=lambda m: m.path):
            self._check_module(module, graph, out)
        return out

    # ------------------------------------------------------------------
    def _check_module(
        self, module: ModuleInfo, graph: ModuleGraph, out: list[Violation]
    ) -> None:
        # Visit functions with their enclosing class (for self.* lookup).
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                cls = module.classes.get(stmt.name)
                for inner in stmt.body:
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._check_function(module, graph, cls, inner, out)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(module, graph, None, stmt, out)

    def _check_function(
        self,
        module: ModuleInfo,
        graph: ModuleGraph,
        cls: Optional[ClassInfo],
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        out: list[Violation],
    ) -> None:
        local_defs: dict[str, FunctionInfo] = {}
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
                local_defs[node.name] = _function_info(
                    node, module.name, f"{module.name}.<local>", is_method=False
                )
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                self._check_call(module, graph, cls, local_defs, node, out)

    # ------------------------------------------------------------------
    def _check_call(
        self,
        module: ModuleInfo,
        graph: ModuleGraph,
        cls: Optional[ClassInfo],
        local_defs: dict[str, FunctionInfo],
        call: ast.Call,
        out: list[Violation],
    ) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in _SCHEDULE_METHODS):
            return
        receiver = _terminal(func.value)
        if receiver is None or receiver.lstrip("_") not in _SIM_NAMES:
            return
        if len(call.args) < 2:
            return  # schedule(delay) alone fails at the engine, not here
        if any(isinstance(a, ast.Starred) for a in call.args):
            return
        callback = call.args[1]
        packed = len(call.args) - 2

        resolved = self._resolve_callback(module, graph, cls, local_defs, callback)
        if resolved is None:
            return
        info, bound = resolved
        minimum, maximum = self._arity(info, bound)
        label = ast.unparse(callback)
        if info.required_kwonly:
            out.append(
                self._violation(
                    module.path,
                    call,
                    f"callback `{label}` declares required keyword-only "
                    f"parameter(s) {list(info.required_kwonly)}; the engine "
                    "dispatches fn(*args) and can never supply them",
                )
            )
            return
        if packed < minimum or (maximum is not None and packed > maximum):
            accepted = (
                f"exactly {minimum}"
                if maximum == minimum
                else f"{minimum}..{'*' if maximum is None else maximum}"
            )
            out.append(
                self._violation(
                    module.path,
                    call,
                    f"{func.attr}(...) packs {packed} callback arg(s) but "
                    f"`{label}` accepts {accepted}",
                )
            )

    @staticmethod
    def _arity(info: FunctionInfo, bound: bool) -> tuple[int, Optional[int]]:
        n = len(info.positional)
        if bound and not info.is_static:
            n -= 1
        n = max(n, 0)
        maximum: Optional[int] = None if info.has_vararg else n
        minimum = max(n - info.defaults, 0)
        return minimum, maximum

    def _resolve_callback(
        self,
        module: ModuleInfo,
        graph: ModuleGraph,
        cls: Optional[ClassInfo],
        local_defs: dict[str, FunctionInfo],
        callback: ast.expr,
    ) -> Optional[tuple[FunctionInfo, bool]]:
        """(info, is_bound_reference) or None when unresolvable."""
        if isinstance(callback, ast.Attribute):
            base = callback.value
            if isinstance(base, ast.Name) and base.id == "self" and cls is not None:
                method = graph.resolve_method(cls, callback.attr)
                if method is not None:
                    return method, True
            return None
        if isinstance(callback, ast.Name):
            if callback.id in local_defs:
                return local_defs[callback.id], False
            fn = graph.resolve_function(callback.id, module)
            if fn is not None:
                return fn, False
            return None
        if isinstance(callback, ast.Lambda):
            args = callback.args
            info = FunctionInfo(
                name="<lambda>",
                qualname=f"{module.name}.<lambda>",
                module=module.name,
                node=None,  # type: ignore[arg-type]
                positional=tuple(a.arg for a in [*args.posonlyargs, *args.args]),
                defaults=len(args.defaults),
                has_vararg=args.vararg is not None,
                has_kwarg=args.kwarg is not None,
                required_kwonly=tuple(
                    a.arg
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is None
                ),
                is_method=False,
                is_static=False,
                lineno=callback.lineno,
            )
            return info, False
        return None

    @staticmethod
    def _violation(path: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=RULE,
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
