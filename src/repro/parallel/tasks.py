"""Declarative simulation tasks, job-grid expansion and content-addressed keys.

A sweep cell — one (policy, seed, scenario) simulation — is described by
a :class:`SimTask`: a registered *kind* plus a JSON-serializable params
dict.  Declarative specs (not callables) are what lets the orchestrator
ship tasks to spawn-context worker processes and key the on-disk result
cache: the cache key is a SHA-256 over the canonical JSON of
``(kind, params, code_version)``, so *any* field change (threshold,
topology size, fault schedule, seed) produces a different key, and any
change to the simulator's source invalidates every cached cell.

The code-version token is itself content-addressed: a SHA-256 over the
sorted source bytes of the ``repro`` package (overridable through the
``REPRO_CODE_VERSION`` environment variable or per-sweep config, which
is how tests pin it).
"""

from __future__ import annotations

import hashlib
import json
import os
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.topology import make_topology

__all__ = [
    "MAX_CELLS",
    "SCENARIO_KINDS",
    "SERVABLE_KINDS",
    "SimTask",
    "canonical_json",
    "code_version",
    "expand_grid",
    "json_safe",
    "make_topology",
    "task_key",
]


# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------
def json_safe(value: Any) -> Any:
    """Coerce numpy scalars/arrays and tuples into plain JSON types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact floats."""
    return json.dumps(json_safe(obj), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Code-version token
# ----------------------------------------------------------------------
_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Content hash of the ``repro`` package's source (16 hex chars).

    Cached per process; honours ``REPRO_CODE_VERSION`` so CI and tests
    can pin or bump the token without touching source files.
    """
    global _code_version_cache
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _code_version_cache is None:
        import repro

        root = Path(repro.__file__).parent
        sha = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            sha.update(str(path.relative_to(root)).encode("utf-8"))
            sha.update(b"\0")
            sha.update(path.read_bytes())
        _code_version_cache = sha.hexdigest()[:16]
    return _code_version_cache


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimTask:
    """One sweep cell: a registered task kind plus its parameters.

    ``params`` must contain only JSON-basic values (numbers, strings,
    bools, None, lists, dicts) — that is what makes tasks shippable to
    spawn-context workers and hashable into cache keys.
    """

    kind: str
    params: dict = field(default_factory=dict)
    #: display label for progress lines and the failure ledger.
    label: str = ""

    def __post_init__(self) -> None:
        # Fail fast on non-serializable params: a spec that cannot round-
        # trip through JSON cannot be cached or sent to a worker.
        canonical_json(self.params)

    def display(self) -> str:
        return self.label or f"{self.kind}:{canonical_json(self.params)[:60]}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": json_safe(self.params), "label": self.label}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimTask":
        return cls(
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),
            label=str(data.get("label", "")),
        )


def task_key(task: SimTask, version: Optional[str] = None) -> str:
    """Content-addressed cache key of ``task`` under a code version."""
    payload = canonical_json(
        {
            "kind": task.kind,
            "params": task.params,
            "code_version": version if version is not None else code_version(),
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Job-spec grid expansion (python -m repro.parallel, POST /jobs)
# ----------------------------------------------------------------------
_DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")

#: task kinds whose params :func:`repro.analysis.replay.scenario_spec`
#: parses into a :class:`~repro.analysis.replay.ScenarioSpec`.
SCENARIO_KINDS = ("replay", "fault", "hotspot", "pattern", "app")

#: task kinds a job spec may reference: every scenario kind
#: (``selftest`` is the orchestrator test double and stays CLI/test-only).
SERVABLE_KINDS = SCENARIO_KINDS

#: the fields of a ``tasks[i]`` object, and of a grid spec of each kind;
#: the grid's ``mesh_side``/``repetitions``/``ack_loss`` are the
#: ``replay``/``fault`` scenario knobs the other kinds set in ``params``.
_TASK_FIELDS = ("kind", "params", "label")
_GRID_FIELDS = ("kind", "policies", "seeds", "params")
_KNOBS = {"replay": ("mesh_side", "repetitions"),
          "fault": ("mesh_side", "repetitions", "ack_loss")}

#: the most cells one job spec may expand to, checked before any is built.
MAX_CELLS = 10_000


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(spec: dict, name: str, default: int) -> int:
    value = spec.get(name, default)
    if not _is_int(value):
        raise ValueError(f"{name!r} must be an integer, got {reprlib.repr(value)}")
    return value


def _float_field(spec: dict, name: str, default: float) -> float:
    value = spec.get(name, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name!r} must be a number, got {reprlib.repr(value)}")
    return float(value)


def _as_params(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name!r} must be an object, got {reprlib.repr(value)}")
    return dict(value)


def _bound_cells(count: int, name: str) -> None:
    if count > MAX_CELLS:
        raise ValueError(f"{name!r}: the spec expands to {count:,} cells, "
                         f"over the limit of {MAX_CELLS:,}")


def _parse_seeds(raw, cells_per_seed: int) -> list[int]:
    """``4`` -> ``[0, 1, 2, 3]``; a non-empty list of seeds >= 0 passes
    through, unless the grid would exceed :data:`MAX_CELLS`."""
    if _is_int(raw):
        if raw < 1:
            raise ValueError("'seeds': seed count must be >= 1")
        _bound_cells(raw * cells_per_seed, "seeds")
        return list(range(raw))
    if not isinstance(raw, (list, tuple)) or not all(_is_int(seed) for seed in raw):
        raise ValueError(f"'seeds' must be an int or a list of ints, got {reprlib.repr(raw)}")
    if not raw or min(raw) < 0:
        raise ValueError(f"'seeds' must be a non-empty list of seeds >= 0, got {reprlib.repr(raw)}")
    _bound_cells(len(raw) * cells_per_seed, "seeds")
    return list(raw)


def _parse_policies(raw) -> list[str]:
    """A non-empty list of registered policy specs (a bare string is
    refused).  Each is checked against its factory, none is built."""
    from repro.routing import check_policy_spec

    if not isinstance(raw, (list, tuple)) or not all(isinstance(p, str) for p in raw):
        raise ValueError(
            f"'policies' must be a list of policy names, got {reprlib.repr(raw)}"
        )
    if not raw:
        raise ValueError("'policies' must be non-empty")
    for policy in raw:
        try:
            check_policy_spec(policy)
        except ValueError as exc:
            raise ValueError(f"'policies': {exc}") from exc
    return list(raw)


def expand_grid(spec: dict) -> list[SimTask]:
    """Expand a job spec into its :class:`SimTask` cells.

    Spec shapes are documented in :mod:`repro.serve.jobs`.  Every
    cell's params go through :func:`repro.analysis.replay.scenario_spec`,
    the parser the worker runs, so a missing, unknown or mistyped field,
    or a value no run could complete, fails here; so does a spec or task
    field the expansion would not read (``ack_loss`` on a ``replay``
    grid, ``mesh_side`` on a ``hotspot`` one), and so does a spec of more
    than :data:`MAX_CELLS` cells, before any cell is built.  Raises
    ``ValueError`` naming the field for anything malformed — the HTTP
    layer turns that into a 400 so bad specs never reach the queue.
    """
    from repro.analysis.replay import _known_fields

    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")

    if "tasks" in spec:
        _known_fields(spec, ("tasks",), "task-list spec")
        raw_tasks = spec["tasks"]
        if not isinstance(raw_tasks, list) or not raw_tasks:
            raise ValueError("'tasks' must be a non-empty list")
        _bound_cells(len(raw_tasks), "tasks")
        tasks = []
        for index, raw in enumerate(raw_tasks):
            if not isinstance(raw, dict) or "kind" not in raw:
                raise ValueError(f"tasks[{index}] must be an object with 'kind'")
            _known_fields(raw, _TASK_FIELDS, f"tasks[{index}]")
            kind = str(raw["kind"])
            if kind not in SERVABLE_KINDS:
                raise ValueError(
                    f"tasks[{index}].kind {kind!r} not servable; "
                    f"allowed: {list(SERVABLE_KINDS)}"
                )
            params = _as_params(raw.get("params", {}), f"tasks[{index}].params")
            _check_cell(kind, params, f"tasks[{index}].params")
            tasks.append(SimTask(kind=kind, params=params, label=str(raw.get("label", ""))))
        return tasks

    kind = str(spec.get("kind", "replay"))
    if kind not in SERVABLE_KINDS:
        raise ValueError(f"kind {kind!r} not servable; allowed: {list(SERVABLE_KINDS)}")
    _known_fields(spec, _GRID_FIELDS + _KNOBS.get(kind, ()), f"{kind} grid")
    policies = _parse_policies(spec.get("policies", _DEFAULT_POLICIES))
    seeds = _parse_seeds(spec.get("seeds", 1), len(policies))
    extra = _as_params(spec.get("params", {}), "params")
    scenario = {
        "mesh_side": _int_field(spec, "mesh_side", 4),
        "repetitions": _int_field(spec, "repetitions", 3),
    }
    ack_loss = _float_field(spec, "ack_loss", 0.1)
    tasks = []
    for policy in policies:
        for seed in seeds:
            if kind == "replay":
                params = {**extra, "policy": policy, "seed": seed, **scenario}
            elif kind == "fault":
                params = {"policy": policy, "spec": {
                    **extra, "seed": seed, **scenario, "ack_loss": ack_loss,
                }}
            else:  # hotspot / pattern / app carry their spec fields in params
                params = {**extra, "policy": policy, "seed": seed}
            tasks.append(
                SimTask(kind=kind, params=params, label=f"{kind}:{policy}/seed{seed}")
            )
    # Cells differ only in policy and seed, which the scenario parser
    # accepts as _parse_policies/_parse_seeds checked them: one parse
    # covers the grid.
    _check_cell(kind, tasks[0].params, "params")
    return tasks


def _check_cell(kind: str, params: dict, where: str) -> None:
    from repro.analysis.replay import scenario_spec

    try:
        scenario_spec(kind, params)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
