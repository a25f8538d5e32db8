"""Scenario-level checkpoint orchestration.

Glue between the envelope (:mod:`repro.checkpoint.format`) and the
scenario spine (:mod:`repro.analysis.replay`): every resumable task kind
(``replay``, the seeded hot-spot replay harness, and ``fault``, the
fault-injection campaign) builds one :class:`~repro.analysis.replay.Scenario`
from its params, and that one context enumerates its stateful roots.

A checkpoint is **one** pickle image of the context's named roots plus
the process-global packet-id counter, so every shared identity in the
live graph (retx timers ≡ heap entries, freelist recycling, memo caches)
survives the round trip and resume is bit-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.analysis.replay import Scenario, build, scenario_spec, task_result
from repro.checkpoint.format import (
    CheckpointHeader,
    read_payload,
    write_checkpoint,
)
from repro.checkpoint.state import SnapshotError
from repro.network.packet import pid_counter_value, set_pid_counter

__all__ = [
    "build_context",
    "code_version",
    "finish_context",
    "load_scenario_checkpoint",
    "save_scenario_checkpoint",
    "scenario_kinds",
]


def code_version() -> str:
    """Version stamp refusing cross-version restores (repro release)."""
    import repro

    return repro.__version__


def scenario_kinds() -> tuple[str, ...]:
    from repro.parallel.worker import RESUMABLE_KINDS

    return RESUMABLE_KINDS


def build_context(kind: str, params: dict) -> Scenario:
    """Construct a not-yet-run, digesting scenario for a task kind."""
    try:
        spec = scenario_spec(kind, params)
    except ValueError as exc:
        raise SnapshotError(str(exc)) from exc
    return build(spec, digest=True)


#: run-complete bookkeeping: a finished context's JSON-ready result.
finish_context = task_result


def save_scenario_checkpoint(
    context,
    path: Union[str, Path],
    *,
    meta: Optional[dict] = None,
) -> CheckpointHeader:
    """Snapshot a (possibly mid-run) context into an envelope at ``path``."""
    roots = context.checkpoint_roots()
    # itertools.count cannot be introspected destructively mid-run, so the
    # global packet-id counter rides beside the graph (read via repr).
    roots["pid_counter"] = pid_counter_value()
    return write_checkpoint(
        path,
        roots,
        kind=roots["kind"],
        code_version=code_version(),
        sim_now=context.sim.now,
        events_executed=context.sim.events_executed,
        meta=meta,
    )


def load_scenario_checkpoint(
    path: Union[str, Path],
    *,
    expect_code_version: Optional[str] = "current",
):
    """Verify, unpickle and rebuild the context; returns (header, context).

    ``expect_code_version`` defaults to the running tree's version (the
    sentinel ``"current"``); pass ``None`` to skip the cross-version guard.
    """
    if expect_code_version == "current":
        expect_code_version = code_version()
    header, roots = read_payload(path, expect_code_version=expect_code_version)
    if not isinstance(roots, dict) or "kind" not in roots:
        raise SnapshotError(f"{path}: payload is not a scenario checkpoint")
    set_pid_counter(roots.pop("pid_counter"))
    try:
        return header, Scenario.from_checkpoint_roots(roots)
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
