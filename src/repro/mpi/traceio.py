"""Trace serialization (JSON).

The paper's framework extracts logical traces from running applications
and feeds them to the simulator (§4.7.1, Fig. 4.19).  This module is the
interchange format: traces round-trip through plain JSON so externally
extracted traces can be replayed, and synthesized traces can be archived
with experiment results.

Format::

    {
      "name": "...", "num_ranks": N, "metadata": {...},
      "events": {"0": [["compute", 1e-5], ["send", dst, size, tag], ...]}
    }
"""

from __future__ import annotations

import json
import reprlib
import sys
from pathlib import Path
from typing import IO, Union

from repro.mpi.events import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Irecv,
    Isend,
    Recv,
    Reduce,
    Send,
    Wait,
    Waitall,
)
from repro.mpi.trace import Trace

#: event -> compact list encoding.
_ENCODERS = {
    Compute: lambda e: ["compute", e.duration_s],
    Send: lambda e: ["send", e.dst, e.size_bytes, e.tag],
    Recv: lambda e: ["recv", e.src, e.tag],
    Isend: lambda e: ["isend", e.dst, e.size_bytes, e.tag, e.request],
    Irecv: lambda e: ["irecv", e.src, e.tag, e.request],
    Wait: lambda e: ["wait", e.request],
    Waitall: lambda e: ["waitall"],
    Allreduce: lambda e: ["allreduce", e.size_bytes],
    Reduce: lambda e: ["reduce", e.size_bytes, e.root],
    Bcast: lambda e: ["bcast", e.size_bytes, e.root],
    Barrier: lambda e: ["barrier"],
}

#: event kind -> (event class, what each argument is): ``"rank"`` a
#: peer, source or root rank of the trace, ``"bytes"`` a size >= 1,
#: ``"int"`` any integer (a tag or request id), ``"seconds"`` a finite
#: duration >= 0.
_DECODERS = {
    "compute": (Compute, ("seconds",)),
    "send": (Send, ("rank", "bytes", "int")),
    "recv": (Recv, ("rank", "int")),
    "isend": (Isend, ("rank", "bytes", "int", "int")),
    "irecv": (Irecv, ("rank", "int", "int")),
    "wait": (Wait, ("int",)),
    "waitall": (Waitall, ()),
    "allreduce": (Allreduce, ("bytes",)),
    "reduce": (Reduce, ("bytes", "rank")),
    "bcast": (Bcast, ("bytes", "rank")),
    "barrier": (Barrier, ()),
}


def trace_to_dict(trace: Trace) -> dict:
    """Encode a trace as a JSON-ready dictionary."""
    events = {}
    for rank in trace.ranks():
        encoded = []
        for e in trace.events[rank]:
            encoder = _ENCODERS.get(type(e))
            if encoder is None:
                raise TypeError(f"cannot serialize event {e!r}")
            encoded.append(encoder(e))
        events[str(rank)] = encoded
    return {
        "name": trace.name,
        "num_ranks": trace.num_ranks,
        "metadata": trace.metadata,
        "events": events,
    }


#: the most ranks a trace file may declare: a rank costs memory before
#: any of its events is read.
MAX_RANKS = 1 << 16


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: argument kind -> (what it must be, its check given the rank count).
_ARGUMENTS = {
    "rank": ("a rank of 0..{top}", lambda value, ranks: _is_int(value) and 0 <= value < ranks),
    "bytes": ("a size >= 1", lambda value, ranks: _is_int(value) and value >= 1),
    "int": ("an integer", lambda value, ranks: _is_int(value)),
    "seconds": ("a finite duration >= 0", lambda value, ranks: (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and 0 <= value <= sys.float_info.max)),
}


def _decode_event(item, num_ranks: int, where: str):
    """One ``[kind, *args]`` list as its event; ``ValueError`` naming
    ``where`` for an unknown kind, a wrong argument count or a bad value."""
    if not (isinstance(item, list) and item and isinstance(item[0], str)
            and item[0] in _DECODERS):
        raise ValueError(f"{where}: not a known [kind, ...] event: {reprlib.repr(item)}; "
                         f"kinds are {sorted(_DECODERS)}")
    cls, kinds = _DECODERS[item[0]]
    args = item[1:]
    if len(args) != len(kinds):
        raise ValueError(f"{where}: {item[0]!r} takes {len(kinds)} argument(s), "
                         f"got {len(args)}")
    for kind, value in zip(kinds, args):
        what, check = _ARGUMENTS[kind]
        if not check(value, num_ranks):
            raise ValueError(f"{where}: {item[0]!r} needs {what.format(top=num_ranks - 1)}, "
                             f"got {reprlib.repr(value)}")
    return cls(*args)


def trace_from_dict(data: dict) -> Trace:
    """Decode :func:`trace_to_dict` output back into a Trace.

    Outside input: anything but that shape raises ``ValueError`` naming
    the field, or the rank and event index — a peer, source or root
    rank off the trace, a negative size, a negative or non-finite
    compute time, a wrong argument count, an unknown event kind."""
    if not isinstance(data, dict):
        raise ValueError(f"a trace must be a JSON object, got {type(data).__name__}")
    name, num_ranks = data.get("name"), data.get("num_ranks")
    metadata, events = data.get("metadata", {}), data.get("events", {})
    if not isinstance(name, str):
        raise ValueError(f"trace 'name' must be a string, got {reprlib.repr(name)}")
    if not _is_int(num_ranks) or not 1 <= num_ranks <= MAX_RANKS:
        raise ValueError(f"trace 'num_ranks' must be an integer from 1 to {MAX_RANKS}, "
                         f"got {reprlib.repr(num_ranks)}")
    if not isinstance(metadata, dict) or not isinstance(events, dict):
        raise ValueError("trace 'metadata' and 'events' must be objects")
    trace = Trace(name=name, num_ranks=num_ranks, metadata=dict(metadata))
    for rank_str, encoded in events.items():
        rank = int(rank_str) if str(rank_str).isdecimal() else -1
        if not 0 <= rank < num_ranks or not isinstance(encoded, list):
            raise ValueError(f"trace 'events' key {rank_str!r} must be a rank of "
                             f"0..{num_ranks - 1} holding a list of events")
        for index, item in enumerate(encoded):
            trace.append(rank, _decode_event(item, num_ranks, f"rank {rank} event {index}"))
    return trace


def save_trace(trace: Trace, target: Union[str, Path, IO[str]]) -> None:
    """Write a trace to a path or open text file."""
    data = trace_to_dict(trace)
    if hasattr(target, "write"):
        json.dump(data, target)
    else:
        Path(target).write_text(json.dumps(data))


def load_trace(source: Union[str, Path, IO[str]]) -> Trace:
    """Read a trace from a path or open text file."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        data = json.loads(Path(source).read_text())
    return trace_from_dict(data)
