"""Job records, content-addressed job identity, and the JSONL job journal.

A *job* is one ``POST /jobs`` submission: a declarative spec that
:func:`~repro.parallel.tasks.expand_grid` expands into a list of
:class:`~repro.parallel.tasks.SimTask` cells (the same expansion the
``python -m repro.parallel`` CLI runs on its flags).  Two spec shapes
are accepted:

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
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.parallel.tasks import SimTask, canonical_json, expand_grid, task_key

__all__ = ["Job", "JobStore", "expand_grid", "grid_key", "JOB_STATES"]

#: legal job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")


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
