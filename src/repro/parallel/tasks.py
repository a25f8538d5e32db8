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
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.topology import make_topology

__all__ = [
    "SCENARIO_KINDS",
    "SERVABLE_KINDS",
    "SimTask",
    "canonical_json",
    "code_version",
    "expand_grid",
    "json_safe",
    "make_topology",
    "task_key",
    "workload_kwargs",
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

#: task kinds a job spec may reference (``selftest`` is the orchestrator
#: test double and stays CLI/test-only).
SERVABLE_KINDS = ("replay", "fault", "hotspot", "pattern")

#: task kinds whose params parse into a
#: :class:`~repro.analysis.replay.ScenarioSpec` — exactly the kinds
#: :mod:`repro.checkpoint` can snapshot and resume mid-run.
SCENARIO_KINDS = ("replay", "fault")


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


def _parse_seeds(raw) -> list[int]:
    """``4`` -> ``[0, 1, 2, 3]``; a list passes through."""
    if _is_int(raw):
        if raw < 1:
            raise ValueError("seed count must be >= 1")
        return list(range(raw))
    if isinstance(raw, (list, tuple)) and all(_is_int(seed) for seed in raw):
        return list(raw)
    raise ValueError(f"'seeds' must be an int or a list of ints, got {reprlib.repr(raw)}")


def _parse_policies(raw) -> list[str]:
    """A non-empty list of policy names (a bare string is refused)."""
    if not isinstance(raw, (list, tuple)) or not all(isinstance(p, str) for p in raw):
        raise ValueError(
            f"'policies' must be a list of policy names, got {reprlib.repr(raw)}"
        )
    if not raw:
        raise ValueError("'policies' must be non-empty")
    return list(raw)


def expand_grid(spec: dict) -> list[SimTask]:
    """Expand a job spec into its :class:`SimTask` cells.

    Spec shapes are documented in :mod:`repro.serve.jobs`.  Every
    cell's params go through its kind's parser
    (:func:`repro.analysis.replay.scenario_spec` for ``replay``/``fault``,
    :func:`workload_kwargs` for ``hotspot``/``pattern``), so a missing,
    unknown or mistyped field fails here.  Raises ``ValueError`` naming the field
    for anything malformed — the HTTP layer turns that into a 400 so bad
    specs never reach the queue.
    """
    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")

    if "tasks" in spec:
        raw_tasks = spec["tasks"]
        if not isinstance(raw_tasks, list) or not raw_tasks:
            raise ValueError("'tasks' must be a non-empty list")
        tasks = []
        for index, raw in enumerate(raw_tasks):
            if not isinstance(raw, dict) or "kind" not in raw:
                raise ValueError(f"tasks[{index}] must be an object with 'kind'")
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
    policies = _parse_policies(spec.get("policies", _DEFAULT_POLICIES))
    seeds = _parse_seeds(spec.get("seeds", 1))
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
            else:  # hotspot / pattern carry their workload knobs in params
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
    try:
        if kind in SCENARIO_KINDS:
            from repro.analysis.replay import scenario_spec

            scenario_spec(kind, params)
        else:
            workload_kwargs(kind, params)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


# ----------------------------------------------------------------------
# hotspot / pattern params
# ----------------------------------------------------------------------
def _is_ints(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_int, value))


def _is_host_pairs(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        _is_ints(pair) and len(pair) == 2 for pair in value
    )


#: value checks by field annotation, for the dataclasses below and the
#: ``BurstSchedule`` / ``NetworkConfig`` a task's params describe.
_ANNOTATION_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "list[int]": (_is_ints, "a list of host ids"),
    "list[tuple[int, int]]": (_is_host_pairs, "a list of [src, dst] host pairs"),
}


def _checked(schema, value, what: str, prefix: str = "") -> dict:
    """``value``, refused with a ``ValueError`` naming the field unless it
    is an object holding only fields of the dataclass ``schema``, every
    field without a default, and each value of its annotated type."""
    from repro.analysis.replay import _known_fields

    _known_fields(value, schema, what)
    known = {f.name: f for f in fields(schema)}
    missing = [prefix + f.name for f in known.values()
               if f.default is MISSING and f.name not in value]
    if missing:
        raise ValueError(f"missing required {what} field(s) {missing}")
    for name, field_value in value.items():
        annotation = known[name].type
        check, kind = _ANNOTATION_CHECKS[annotation.removesuffix(" | None")]
        if not (check(field_value) or (field_value is None and annotation.endswith("None"))):
            raise ValueError(f"'{prefix}{name}' must be {kind}, got {reprlib.repr(field_value)}")
    return value


@dataclass(frozen=True, kw_only=True)
class _WorkloadParams:
    """The params of a ``hotspot`` or ``pattern`` task, with the defaults
    of ``run_hotspot_workload`` / ``run_pattern_workload``."""

    topology: str
    policy: str
    rate_mbps: float
    seed: int = 0
    idle_rate_mbps: float = 0.0
    drain_s: float = 1e-3
    config: dict | None = None
    notification: str = "destination"
    window_s: float = 50e-6
    track_routers: bool = False
    policy_kwargs: dict | None = None


@dataclass(frozen=True, kw_only=True)
class _HotspotParams(_WorkloadParams):
    flows: list[tuple[int, int]]
    schedule: dict
    noise_rate_mbps: float = 0.0


@dataclass(frozen=True, kw_only=True)
class _PatternParams(_WorkloadParams):
    pattern: str
    hosts: list[int] | None = None
    schedule: dict | None = None
    duration_s: float = 1e-3


def workload_kwargs(kind: str, params: dict) -> dict:
    """Parse a ``hotspot`` or ``pattern`` task's params.

    Returns the keyword arguments of
    :func:`repro.experiments.runner.run_hotspot_workload` /
    :func:`~repro.experiments.runner.run_pattern_workload` for the cell's
    one policy and seed.  Missing, unknown and mistyped fields, inside
    ``schedule`` and ``config`` too, raise ``ValueError`` naming the
    field, and a ``hotspot`` schedule must set ``repetitions``.
    ``params`` is never rewritten, so task keys and cached results stay
    valid.
    """
    from repro.network.config import NetworkConfig
    from repro.traffic.bursty import BurstSchedule

    schema = {"hotspot": _HotspotParams, "pattern": _PatternParams}.get(kind)
    if schema is None:
        raise ValueError(f"unknown workload kind {kind!r} (expected 'hotspot' or 'pattern')")
    p = schema(**_checked(schema, params, f"{kind} params"))
    kwargs = {
        "topology_factory": p.topology, "policies": [p.policy], "seeds": (p.seed,),
        "rate_mbps": float(p.rate_mbps), "idle_rate_mbps": float(p.idle_rate_mbps),
        "drain_s": float(p.drain_s), "notification": p.notification,
        "window_s": float(p.window_s), "track_routers": p.track_routers,
        "policy_kwargs": p.policy_kwargs, "config": None, "schedule": None,
    }
    if p.config is not None:
        kwargs["config"] = NetworkConfig(**_checked(NetworkConfig, p.config, "config", "config."))
    if p.schedule is not None:
        s = _checked(BurstSchedule, p.schedule, "schedule", "schedule.")
        kwargs["schedule"] = BurstSchedule(
            on_s=float(s["on_s"]), off_s=float(s["off_s"]),
            start_s=float(s.get("start_s", 0.0)), repetitions=s.get("repetitions"),
        )
    if kind == "hotspot":
        if kwargs["schedule"].repetitions is None:
            raise ValueError("'schedule.repetitions' must be set: a hot-spot schedule is bounded")
        kwargs.update(flows=[tuple(flow) for flow in p.flows],
                      noise_rate_mbps=float(p.noise_rate_mbps))
    else:
        kwargs.update(pattern=p.pattern, duration_s=float(p.duration_s),
                      hosts=None if p.hosts is None else list(p.hosts))
    return kwargs
