"""Source patterns that break same-seed replay, refused in every module.

Every figure averages seeded reruns (§4.3), so a run must depend on its
seed alone.  The digest tests compare runs inside one process and see
only the code they run; this test reads every module under ``src/repro``
with ``ast``.  No per-line suppression exists: a hazard outside the two
allowlists below is fixed, not excused.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: the one module that may build generators from ``numpy.random``.
RNG_MODULE = "sim/rng.py"
#: modules that time real work (sweep supervision, connection idling,
#: file polling); their clock readings never feed a simulation.
WALL_CLOCK_MODULES = ("parallel/orchestrator.py", "serve/http.py", "obs/cli.py")
#: ``<module or class>.<reader>()`` calls that read the wall clock.
CLOCKS = {"time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
                   "perf_counter_ns", "process_time", "process_time_ns"},
          "datetime": {"now", "utcnow", "today"}, "date": {"today"}}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dotted(node) -> list[str]:
    """``["np", "random", "rand"]`` for ``np.random.rand``; ``[]`` otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def _is_set(node, set_names) -> bool:
    if isinstance(node, ast.Name):
        return node.id in set_names
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call) and _dotted(node.func) in (["set"], ["frozenset"]))


def _set_iterations(scope):
    """Lines where ``scope`` (a module or function, without the functions
    nested in it) iterates a set in an order-exposing way."""
    nodes, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        nodes.append(stack.pop())
        if not isinstance(nodes[-1], SCOPES):
            stack.extend(ast.iter_child_nodes(nodes[-1]))
    set_names = set()
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_set(node.value, ()):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            set_names.update(target.id for target in targets if isinstance(target, ast.Name))
    for node in nodes:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            sources = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            sources = [generator.iter for generator in node.generators]
        elif isinstance(node, ast.Call) and len(node.args) == 1 and (
                _dotted(node.func) in (["list"], ["tuple"])
                or isinstance(node.func, ast.Attribute) and node.func.attr == "join"):
            sources = node.args
        else:
            continue
        if any(_is_set(source, set_names) for source in sources):
            yield node.lineno


def hazards(source: str, module: str) -> list[tuple[int, str]]:
    """``(line, hazard)`` for each ``random`` import, ``np.random.*`` call,
    builtin ``hash()`` call, wall-clock read and order-exposing set
    iteration in ``source``, read as ``src/repro/<module>``."""
    tree = ast.parse(source)
    clock_exempt = module in WALL_CLOCK_MODULES
    found = [(line, "set iteration order")
             for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, SCOPES))]
             for line in _set_iterations(scope)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random" for alias in node.names):
                found.append((node.lineno, "random import"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                found.append((node.lineno, "random import"))
            elif node.module == "time" and not clock_exempt and any(
                    alias.name in CLOCKS["time"] for alias in node.names):
                found.append((node.lineno, "wall-clock read"))
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name[:2] in (["np", "random"], ["numpy", "random"]) and module != RNG_MODULE:
                found.append((node.lineno, "ambient numpy.random"))
            elif name == ["hash"]:
                found.append((node.lineno, "salted hash()"))
            elif len(name) > 1 and name[-1] in CLOCKS.get(name[-2], ()) and not clock_exempt:
                found.append((node.lineno, "wall-clock read"))
    return sorted(found)


def test_no_module_holds_a_replay_hazard():
    modules = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))
    assert len(modules) > 100
    found = [f"src/repro/{module}:{line}: {hazard}" for module in modules
             for line, hazard in hazards((SRC / module).read_text(encoding="utf-8"), module)]
    assert found == []


@pytest.mark.parametrize("module, hazard", [
    *((module, "wall-clock read") for module in WALL_CLOCK_MODULES),
    (RNG_MODULE, "ambient numpy.random")])
def test_each_allowlisted_module_still_needs_its_exemption(module, hazard):
    source = (SRC / module).read_text(encoding="utf-8")
    assert hazard in {found for _, found in hazards(source, "model.py")}


@pytest.mark.parametrize("source, hazard", [
    ("import random", "random import"), ("from random import shuffle", "random import"),
    ("np.random.randint(4)", "ambient numpy.random"),
    ("numpy.random.default_rng(0)", "ambient numpy.random"),
    ("key = hash('flow')", "salted hash()"),
    *((f"time.{reader}()", "wall-clock read") for reader in sorted(CLOCKS["time"])),
    *((clock, "wall-clock read") for clock in ("datetime.datetime.now()", "datetime.utcnow()",
                                               "datetime.date.today()",
                                               "from time import perf_counter")),
    *((source, "set iteration order") for source in (
        "for x in {1, 2}:\n    pass", "[x for x in {y for y in s}]", "list(set(s))",
        "tuple(frozenset(s))", "','.join(set(s))",
        "def f(s):\n    seen = set(s)\n    return {x: 1 for x in seen}")),
])
def test_each_hazard_form_is_found_once(source, hazard):
    assert [found for _, found in hazards(source, "model.py")] == [hazard]


@pytest.mark.parametrize("source, module", [
    ("sorted(set(x))", "model.py"), ("len(set(x))", "model.py"),
    ("np.random.default_rng(seed)", RNG_MODULE),
    ("time.monotonic()", "parallel/orchestrator.py"),
    ("def f(sim):\n    return sim.now", "model.py"),
    ("def f(time):\n    return time + 1", "model.py"),
    ("key = stable_hash('flow')", "model.py"),
    # a name is a set only in the function that binds it to one
    ("def f(s):\n    out = set(s)\n    return len(out)\n"
     "def g(s):\n    out = list(s)\n    for x in out:\n        pass", "model.py"),
])
def test_sanctioned_forms_pass(source, module):
    assert hazards(source, module) == []
