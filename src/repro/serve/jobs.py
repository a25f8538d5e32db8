"""Job records, content-addressed job identity, and the JSONL job journal.

A *job* is one ``POST /jobs`` submission: a declarative spec that
:func:`~repro.parallel.tasks.expand_grid` expands into a list of
:class:`~repro.parallel.tasks.SimTask` cells (the same expansion the
``python -m repro.parallel`` CLI runs on its flags).  Two spec shapes
are accepted:

Explicit task list::

    {"tasks": [{"kind": "replay", "params": {...}, "label": "..."}, ...]}

Policy x seed grid (mirrors the parallel CLI)::

    {"kind": "replay",                  # replay | fault | hotspot | pattern | app
     "policies": ["pr-drb", "deterministic"],
     "seeds": [0, 1],                   # or an int N -> seeds 0..N-1
     "mesh_side": 4, "repetitions": 3,  # replay/fault knobs
     "ack_loss": 0.1,                   # fault knob
     "params": {...}}                   # extra per-cell params (hotspot/
                                        # pattern/app need topology etc. here)

A field the expansion would not read is refused, never dropped: an
unknown one, a knob another kind reads, or a ``tasks[i]`` key other
than ``kind``, ``params`` and ``label``.  So is a spec of more than
:data:`~repro.parallel.tasks.MAX_CELLS` (10,000) cells, naming ``seeds``
or ``tasks``, before any cell is built.

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

from repro.parallel.tasks import SimTask, expand_grid, task_key

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
        """Inverse of :meth:`to_dict`.  A record that is not an object, or
        whose field is missing (``id``, ``spec``, ``grid_key``), mistyped or
        an unknown state, raises ``ValueError`` naming the field."""
        if not isinstance(data, dict):
            raise ValueError(f"a job record must be an object, got {type(data).__name__}")
        for name in ("id", "spec", "grid_key"):
            if name not in data:
                raise ValueError(f"job record has no {name!r}")
        for name, types in _FIELD_TYPES.items():
            value = data.get(name)
            if name in data and (isinstance(value, bool) or not isinstance(value, types)):
                raise ValueError(f"job field {name!r} has type {type(value).__name__}")
        state = data.get("state", "queued")
        if state not in JOB_STATES:
            raise ValueError(f"job field 'state' must be one of {JOB_STATES}, got {state!r}")
        return cls(
            id=data["id"],
            spec=data["spec"],
            grid_key=data["grid_key"],
            state=state,
            total=data.get("total", 0),
            completed=data.get("completed", 0),
            executed=data.get("executed", 0),
            cache_hits=data.get("cache_hits", 0),
            failed_cells=data.get("failed_cells", 0),
            wall_s=data.get("wall_s", 0.0),
            error=data.get("error"),
            cells=data.get("cells", []),
        )


#: :class:`Job` field -> the JSON types a journal record may give it
#: (``bool`` never counts as a number).
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "id": (str,), "spec": (dict,), "grid_key": (str,), "state": (str,),
    "total": (int,), "completed": (int,), "executed": (int,), "cache_hits": (int,),
    "failed_cells": (int,), "wall_s": (int, float), "error": (str, type(None)),
    "cells": (list,),
}


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
        path = self._journal_path
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        end = data.rfind(b"\n") + 1
        for number, raw in enumerate(data[:end].split(b"\n"), 1):
            if not raw.strip():
                continue
            job = _journal_job(raw, f"{path}:{number}")
            if job.id not in self._jobs:
                self._order.append(job.id)
            self._jobs[job.id] = job
        if end < len(data):
            # A crash mid-write left an unterminated last line.  Drop it
            # before the journal reopens for appending, or the next
            # record would land on the same line and both would be lost.
            # (Only now: a file that is not a journal has raised above.)
            with open(path, "r+b") as fh:
                fh.truncate(end)
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


def _journal_job(raw: bytes, where: str) -> Job:
    """The job a terminated journal line records; ``ValueError`` naming
    ``where`` (``path:line``) for any line this store could not have written."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{where}: not a JSON line ({exc})") from None
    if not isinstance(obj, dict) or obj.get("op") != "job":
        raise ValueError(f"{where}: a journal line must be an object with "
                         f"\"op\": \"job\"")
    try:
        return Job.from_dict(obj.get("job"))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
