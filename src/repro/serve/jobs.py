"""Job records, declarative grid expansion, and the JSONL job journal.

A *job* is one ``POST /jobs`` submission: a declarative spec that expands
into a list of :class:`~repro.parallel.tasks.SimTask` cells (the same
spec vocabulary the ``python -m repro.parallel`` CLI builds from flags).
Two spec shapes are accepted:

Explicit task list::

    {"tasks": [{"kind": "replay", "params": {...}, "label": "..."}, ...]}

Policy x seed grid (mirrors the parallel CLI)::

    {"kind": "replay",                  # replay | fault | hotspot | pattern
     "policies": ["pr-drb", "deterministic"],
     "seeds": [0, 1],                   # or an int N -> seeds 0..N-1
     "mesh_side": 4, "repetitions": 3,  # replay/fault knobs
     "ack_loss": 0.1,                   # fault knob
     "params": {...}}                   # extra per-cell params (hotspot/
                                        # pattern need topology etc. here)

Job identity is content-addressed like everything else in the stack:
:func:`grid_key` hashes the sorted cell keys (which already fold in the
code version), so two submissions that expand to the same cells — however
the specs were spelled — share an identity and the service can answer a
repeat while the first copy is still in flight.

The :class:`JobStore` journal is an append-only JSONL file: one line per
state change, replayed on construction.  Jobs recorded ``running`` when
the process died reload as ``queued`` — the cells they did finish are in
the result cache, so the re-run costs one cache lookup per finished cell.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.parallel.tasks import SimTask, canonical_json, task_key

__all__ = ["Job", "JobStore", "expand_grid", "grid_key", "JOB_STATES"]

#: legal job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

_DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")

#: task kinds a job spec may reference (``selftest`` is the orchestrator
#: test double and stays CLI/test-only).
SERVABLE_KINDS = ("replay", "fault", "hotspot", "pattern")


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

    Raises ``ValueError`` naming the field for anything malformed — the
    HTTP layer turns that into a 400 so bad specs never reach the queue.
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
            tasks.append(
                SimTask(
                    kind=kind,
                    params=_as_params(raw.get("params", {}), f"tasks[{index}].params"),
                    label=str(raw.get("label", "")),
                )
            )
        return tasks

    kind = str(spec.get("kind", "replay"))
    if kind not in SERVABLE_KINDS:
        raise ValueError(f"kind {kind!r} not servable; allowed: {list(SERVABLE_KINDS)}")
    policies = _parse_policies(spec.get("policies", _DEFAULT_POLICIES))
    seeds = _parse_seeds(spec.get("seeds", 1))
    extra = _as_params(spec.get("params", {}), "params")
    mesh_side = _int_field(spec, "mesh_side", 4)
    repetitions = _int_field(spec, "repetitions", 3)
    ack_loss = _float_field(spec, "ack_loss", 0.1)

    tasks = []
    for policy in policies:
        for seed in seeds:
            if kind == "replay":
                params = {
                    **extra,
                    "policy": policy,
                    "seed": seed,
                    "mesh_side": mesh_side,
                    "repetitions": repetitions,
                }
            elif kind == "fault":
                params = {
                    "policy": policy,
                    "spec": {
                        **extra,
                        "seed": seed,
                        "mesh_side": mesh_side,
                        "repetitions": repetitions,
                        "ack_loss": ack_loss,
                    },
                }
            else:  # hotspot / pattern need their workload knobs in params
                if "topology" not in extra:
                    raise ValueError(
                        f"{kind} grids need params.topology (e.g. 'mesh:8')"
                    )
                params = {**extra, "policy": policy, "seed": seed}
            tasks.append(
                SimTask(kind=kind, params=params, label=f"{kind}:{policy}/seed{seed}")
            )
    return tasks


def grid_key(tasks: list[SimTask], version: str) -> str:
    """Content-addressed identity of a cell set (order-insensitive)."""
    keys = sorted(task_key(task, version) for task in tasks)
    sha = hashlib.sha256()
    for key in keys:
        sha.update(key.encode("ascii"))
        sha.update(b"\0")
    return sha.hexdigest()[:16]


@dataclass
class Job:
    """One submission's lifecycle record."""

    id: str
    spec: dict
    grid_key: str
    state: str = "queued"
    total: int = 0
    completed: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed_cells: int = 0
    wall_s: float = 0.0
    error: Optional[str] = None
    #: terminal per-cell summaries: [{key, label, status}, ...]
    cells: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec,
            "grid_key": self.grid_key,
            "state": self.state,
            "total": self.total,
            "completed": self.completed,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failed_cells": self.failed_cells,
            "wall_s": self.wall_s,
            "error": self.error,
            "cells": list(self.cells),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        return cls(
            id=str(data["id"]),
            spec=dict(data["spec"]),
            grid_key=str(data["grid_key"]),
            state=str(data.get("state", "queued")),
            total=int(data.get("total", 0)),
            completed=int(data.get("completed", 0)),
            executed=int(data.get("executed", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            failed_cells=int(data.get("failed_cells", 0)),
            wall_s=float(data.get("wall_s", 0.0)),
            error=data.get("error"),
            cells=list(data.get("cells", [])),
        )


class JobStore:
    """Thread-safe job table with an append-only JSONL journal.

    Every mutation appends one journal line (``{"op": "job", ...}`` full
    snapshots — jobs are small, so snapshot-per-change beats a delta
    format for replay simplicity).  On construction the journal is
    replayed: the last snapshot per id wins, and any job left ``running``
    by a dead process reverts to ``queued`` so the service re-runs it —
    the result cache makes the re-run answer finished cells for free.
    """

    def __init__(self, journal_path=None) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._seq = 0
        self._journal_path = journal_path
        self._journal_fh = None
        if journal_path is not None:
            self._replay_journal()
            self._journal_fh = open(journal_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def _replay_journal(self) -> None:
        try:
            fh = open(self._journal_path, "r", encoding="utf-8")
        except FileNotFoundError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue  # torn tail line from a crash mid-write
                if obj.get("op") != "job":
                    continue
                job = Job.from_dict(obj["job"])
                if job.id not in self._jobs:
                    self._order.append(job.id)
                self._jobs[job.id] = job
        for job in self._jobs.values():
            if job.state == "running":
                # The process died mid-job; requeue (cells already done
                # are in the result cache).
                job.state = "queued"
                job.completed = 0
        self._seq = len(self._order)

    def _journal(self, job: Job) -> None:
        if self._journal_fh is None:
            return
        line = json.dumps(
            {"op": "job", "job": job.to_dict()},
            sort_keys=True, separators=(",", ":"),
        )
        self._journal_fh.write(line + "\n")
        self._journal_fh.flush()

    # ------------------------------------------------------------------
    def create(self, spec: dict, grid: str, total: int) -> Job:
        with self._lock:
            self._seq += 1
            job = Job(
                id=f"job-{self._seq:06d}-{grid[:8]}",
                spec=spec, grid_key=grid, total=total,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._journal(job)
            return job

    def update(self, job_id: str, **fields) -> Job:
        with self._lock:
            job = self._jobs[job_id]
            for name, value in fields.items():
                if not hasattr(job, name):
                    raise AttributeError(f"Job has no field {name!r}")
                setattr(job, name, value)
            self._journal(job)
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def find_active(self, grid: str) -> Optional[Job]:
        """A queued/running job with this grid identity, if any."""
        with self._lock:
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.grid_key == grid and job.state in ("queued", "running"):
                    return job
        return None

    def pending(self) -> list[Job]:
        with self._lock:
            return [
                self._jobs[job_id] for job_id in self._order
                if self._jobs[job_id].state == "queued"
            ]

    def close(self) -> None:
        if self._journal_fh is not None and not self._journal_fh.closed:
            self._journal_fh.close()


def spec_digest(spec: dict) -> str:
    """Hash of the raw spec text (diagnostics only; identity is grid_key)."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()[:16]
