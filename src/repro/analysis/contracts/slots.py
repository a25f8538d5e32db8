"""slots-consistency: every attribute written on a slotted class exists.

``__slots__`` (and ``@dataclass(slots=True)``) is how the hot path keeps
Packet/OutputPort/VC allocation lean (docs/performance.md), but it
turns a typo'd or undeclared attribute assignment into a *runtime*
``AttributeError`` — possibly deep inside a seeded campaign hours in.
This pass checks every assignment site statically, across all modules:

* ``self.x = ...`` inside methods of a slotted class must name a slot,
  a declared dataclass field, an inherited slot, or a class-level name
  (a property's setter, for instance, routes the write through the
  class);
* ``obj.x = ...`` anywhere, when ``obj`` is bound to a slotted class by
  a parameter annotation (``packet: Packet``), a local annotation, or a
  direct constructor call (``ack = Packet(...)``), must do the same.

Classes with unresolvable or non-slotted bases are skipped (an open
``__dict__`` makes assignment legal).  Suppress deliberate dynamic
attributes with ``# repro: allow(slots-consistency)``.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.contracts.graph import ClassInfo, ModuleGraph, ModuleInfo
from repro.analysis.lint import Violation

__all__ = ["SlotsConsistencyPass"]

RULE = "slots-consistency"

#: dunders every object accepts regardless of slots.
_ALWAYS_OK = {"__doc__", "__module__", "__qualname__"}


def _violation(path: str, node: ast.AST, message: str) -> Violation:
    return Violation(
        rule=RULE,
        path=path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def _annotation_class(annotation: ast.expr) -> Optional[str]:
    """Extract a class name from an annotation expression.

    Handles plain names, dotted names, string annotations, and
    ``Optional[X]`` / ``X | None`` / ``Union[X, None]`` wrappers.
    """
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.strip()
        return text if text.isidentifier() else None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        parts: list[str] = []
        node: ast.expr = annotation
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None
    if isinstance(annotation, ast.Subscript):
        base = _annotation_class(annotation.value)
        if base is not None and base.split(".")[-1] in ("Optional", "Union"):
            inner = annotation.slice
            candidates = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for candidate in candidates:
                name = _annotation_class(candidate)
                if name is not None and name != "None":
                    return name
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        for side in (annotation.left, annotation.right):
            name = _annotation_class(side)
            if name is not None and name != "None":
                return name
    return None


class SlotsConsistencyPass:
    name = RULE
    summary = "attribute assignments outside a class's declared __slots__"

    def check(self, graph: ModuleGraph) -> list[Violation]:
        out: list[Violation] = []
        #: qualname -> (allowed attr set) for checkable slotted classes.
        checkable: dict[str, set[str]] = {}
        for cls in graph.classes.values():
            allowed, _reason = graph.allowed_attributes(cls)
            if allowed is not None:
                checkable[cls.qualname] = allowed | _ALWAYS_OK
        if not checkable:
            return out
        for module in sorted(graph.modules.values(), key=lambda m: m.path):
            self._check_module(module, graph, checkable, out)
        return out

    # ------------------------------------------------------------------
    def _check_module(
        self,
        module: ModuleInfo,
        graph: ModuleGraph,
        checkable: dict[str, set[str]],
        out: list[Violation],
    ) -> None:
        # Pass 1: self-assignments inside slotted classes' own methods.
        for cls in module.classes.values():
            allowed = checkable.get(cls.qualname)
            if allowed is None:
                continue
            for method in cls.methods.values():
                self._check_self_assignments(module, cls, method.node, allowed, out)
        # Pass 2: annotation/constructor-bound names in every function.
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_bound_names(module, graph, checkable, node, out)

    def _check_self_assignments(
        self,
        module: ModuleInfo,
        cls: ClassInfo,
        fn: ast.AST,
        allowed: set[str],
        out: list[Violation],
    ) -> None:
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for attr_node in self._flatten_targets(target):
                    if (
                        isinstance(attr_node.value, ast.Name)
                        and attr_node.value.id == "self"
                        and attr_node.attr not in allowed
                    ):
                        out.append(
                            _violation(
                                module.path,
                                node,
                                f"`self.{attr_node.attr}` is not declared in "
                                f"{cls.name}'s __slots__/fields "
                                "(declared: "
                                f"{', '.join(sorted(a for a in allowed if not a.startswith('__'))) or 'none'})",
                            )
                        )

    def _check_bound_names(
        self,
        module: ModuleInfo,
        graph: ModuleGraph,
        checkable: dict[str, set[str]],
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        out: list[Violation],
    ) -> None:
        # A name is type-bound only when its binding is unambiguous over
        # the whole function: an annotated parameter that is never
        # reassigned, or a local with exactly one store whose value is a
        # direct constructor call / annotated assignment.  Names stored
        # more than once are never bound (no flow analysis needed).
        store_counts: dict[str, int] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                store_counts[node.id] = store_counts.get(node.id, 0) + 1

        bindings: dict[str, ClassInfo] = {}
        for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]:
            if arg.annotation is None or arg.arg in ("self", "cls"):
                continue
            if store_counts.get(arg.arg, 0) > 0:
                continue  # reassigned somewhere — type no longer certain
            name = _annotation_class(arg.annotation)
            if name is None:
                continue
            resolved = graph.resolve_class(name, module)
            if resolved is not None and resolved.qualname in checkable:
                bindings[arg.arg] = resolved

        # First sweep: collect local bindings.  Binding is unambiguous
        # (exactly one store), so traversal order doesn't matter.
        for stmt in self._walk_shallow(fn):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound: Optional[ClassInfo] = None
                if isinstance(stmt, ast.AnnAssign) and stmt.annotation is not None:
                    name = _annotation_class(stmt.annotation)
                    if name is not None:
                        resolved = graph.resolve_class(name, module)
                        if resolved is not None and resolved.qualname in checkable:
                            bound = resolved
                if bound is None and isinstance(value, ast.Call):
                    callee = value.func
                    callee_name = (
                        callee.id
                        if isinstance(callee, ast.Name)
                        else callee.attr
                        if isinstance(callee, ast.Attribute)
                        else None
                    )
                    if callee_name is not None:
                        resolved = graph.resolve_class(callee_name, module)
                        if resolved is not None and resolved.qualname in checkable:
                            bound = resolved
                if bound is not None:
                    for target in targets:
                        if (
                            isinstance(target, ast.Name)
                            and store_counts.get(target.id, 0) == 1
                        ):
                            bindings[target.id] = bound
        # Second sweep: check attribute writes against the bindings.
        for stmt in self._walk_shallow(fn):
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                for attr_node in self._flatten_targets(target):
                    base = attr_node.value
                    if not isinstance(base, ast.Name) or base.id == "self":
                        continue
                    cls = bindings.get(base.id)
                    if cls is None:
                        continue
                    allowed = checkable[cls.qualname]
                    if attr_node.attr not in allowed:
                        out.append(
                            _violation(
                                module.path,
                                stmt,
                                f"`{base.id}.{attr_node.attr}` is not declared "
                                f"in {cls.name}'s __slots__/fields",
                            )
                        )

    @staticmethod
    def _walk_shallow(fn: ast.AST):
        """Walk ``fn``'s own body, not nested function/lambda bodies —
        those are visited as functions in their own right."""
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _flatten_targets(target: ast.expr) -> list[ast.Attribute]:
        """Attribute nodes assigned by ``target`` (handles tuple unpack)."""
        if isinstance(target, ast.Attribute):
            return [target]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[ast.Attribute] = []
            for element in target.elts:
                out.extend(SlotsConsistencyPass._flatten_targets(element))
            return out
        return []
