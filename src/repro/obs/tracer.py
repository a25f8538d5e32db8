"""Typed event tracing through pluggable sinks.

Event taxonomy (names are ``category.action``; the category is everything
before the first dot):

=====================  ==================================================
``packet.*``           inject / deliver / drop — data-packet lifecycle
``msg.*``              complete — full message reassembled at the NIC
``router.*``           contention (CFD episode), queue_bytes (counter)
``zone.*``             transition — L/M/H metapath zone changes
``congestion.*``       episode — a HIGH-zone span (``ph="X"`` with dur)
``msp.*``              open / close / select / prune — metapath changes
``notify.*``           send / recv — ACK & predictive-ACK notification
``prediction.*``       hit / miss / save / invalidate — solution DB
``policy.*``           watchdog / nack_reaction — FR-DRB reactions
``fault.*``            fail / restore / degrade / undegrade — injector
``retx.*``             send / abandon — reliable-transport recovery
=====================  ==================================================

Tracks identify the timeline an event belongs to, as a ``(kind, ident)``
pair: ``("flow", "src-dst")``, ``("router", id)``, ``("nic", id)``,
``("fabric", 0)``.  The Perfetto exporter turns each kind into a process
and each ident into a thread, so a run opens in ``ui.perfetto.dev`` with
one track per router / NIC / flow.

Records are plain data.  Emission never mutates simulation state, never
consults wall clocks or ambient RNG, and the JSONL encoding is canonical
(sorted keys, compact separators) so same-seed runs produce byte-identical
trace files — the property ``python -m repro.obs diff`` and the
determinism tests check.  The one intentionally variable field lives in
the *header* line (its ``label``), which diff/compare logic exempts.
``JsonlSink`` writes each line from a template cached per record shape
and writes exactly the bytes of ``_encode(record.to_json_obj())``.
"""

from __future__ import annotations

import json
import reprlib
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, NamedTuple, Optional

#: bump when the record encoding changes shape.
TRACE_VERSION = 1


class TraceRecord(NamedTuple):
    """One trace event.  ``ph`` follows the Chrome trace-event phases the
    exporter understands: ``"i"`` instant, ``"X"`` complete-with-duration,
    ``"C"`` counter sample."""

    ts: float  # sim time, seconds
    name: str  # "category.action"
    track: tuple  # (kind, ident)
    ph: str = "i"
    dur: float = 0.0  # seconds; only meaningful for ph == "X"
    args: Optional[dict] = None

    @property
    def category(self) -> str:
        return category(self.name)

    def to_json_obj(self) -> dict:
        obj: dict[str, Any] = {
            "name": self.name,
            "ph": self.ph,
            "track": list(self.track),
            "ts": self.ts,
        }
        if self.ph == "X":
            obj["dur"] = self.dur
        if self.args is not None:
            obj["args"] = self.args
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TraceRecord":
        return cls(
            ts=obj["ts"],
            name=obj["name"],
            track=tuple(obj["track"]),
            ph=obj.get("ph", "i"),
            dur=obj.get("dur", 0.0),
            args=obj.get("args"),
        )


def category(name: str) -> str:
    """The taxonomy category of an event name (text before the first dot)."""
    return name.partition(".")[0]


def _encode(obj: dict) -> str:
    """Canonical one-line JSON (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: builds a record without ``TraceRecord.__new__``'s keyword handling.
_new_record = tuple.__new__


class Tracer:
    """Flight recorder: forwards every record to its sinks.

    The tracer keeps no record itself; a :class:`MemorySink` keeps them
    in memory, a :class:`JsonlSink` streams them to a file, and a
    :class:`~repro.obs.metrics.CountingSink` folds them into counters.
    """

    __slots__ = ("emitted", "_sinks", "_writes")

    def __init__(self, sinks=()) -> None:
        self.emitted = 0
        self._sinks: list = []
        #: every sink's bound ``write``, rebuilt by ``add_sink``.
        self._writes: tuple = ()
        for sink in sinks:
            self.add_sink(sink)

    # ------------------------------------------------------------------
    def emit(
        self,
        ts: float,
        name: str,
        track: tuple,
        args: Optional[dict] = None,
        ph: str = "i",
        dur: float = 0.0,
    ) -> None:
        """Record one event.  Hot-layer call sites guard with a single
        ``if tracer is not None`` so the disabled cost is one branch."""
        record = _new_record(TraceRecord, (ts, name, track, ph, dur, args))
        self.emitted += 1
        for write in self._writes:
            write(record)

    # ------------------------------------------------------------------
    def add_sink(self, sink) -> None:
        """Forward every later record to ``sink.write`` as well."""
        self._sinks.append(sink)
        self._writes = tuple(sink.write for sink in self._sinks)

    def close(self) -> None:
        """Close every sink that supports closing (idempotent)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class MemorySink:
    """Keeps every record in a plain list (unbounded; tests/analysis)."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def write(self, record: TraceRecord) -> None:
        self.records.append(record)


#: the JSON text of a ``bool``, as ``json.dumps`` writes it.
_BOOL_TEXT = {True: "true", False: "false"}.__getitem__


def _literal(text: str) -> str:
    """``text`` as literal ``str.format`` template text."""
    return text.replace("{", "{{").replace("}", "}}")


def _line_template(name, ph, kind, keys, types) -> Optional[tuple]:
    """``(fill, conversions)`` writing one record shape's JSONL line.

    The line is filled from ``values = (*args.values(), dur, ident, ts)``
    (``keys`` is ``tuple(args)``, or ``None`` when the record has no
    args; ``types`` the exact type of each value).  An ``int`` or a
    ``float`` field formats as its ``repr``, which is what ``json.dumps``
    writes for a finite one; each ``(index, convert)`` in ``conversions``
    turns a ``str`` or ``bool`` value into its JSON text, passed after
    ``values``; ``None`` is written into the template.  Returns ``None``
    when the name, ``ph``, track kind or an args key is not exactly a
    ``str``, or a value is not exactly one of those five types: such
    records are encoded by ``_encode``.
    """
    count = 0 if keys is None else len(keys)
    conversions: list = []

    def field(index: int) -> str:
        kind_of = types[index]
        if kind_of is int or kind_of is float:
            return "{%d}" % index
        if kind_of is type(None):
            return "null"
        if kind_of is str:
            conversions.append((index, _quote))
        elif kind_of is bool:
            conversions.append((index, _BOOL_TEXT))
        else:
            raise LookupError(kind_of)
        return "{%d}" % (len(types) + len(conversions) - 1)

    texts = [name, ph, kind] if keys is None else [name, ph, kind, *keys]
    if any(type(text) is not str for text in texts):
        return None
    parts = []
    try:
        if keys is not None:
            order = sorted(range(count), key=keys.__getitem__)
            parts.append('"args":{{' + ",".join(
                _literal(_quote(keys[i]) + ":") + field(i) for i in order
            ) + "}}")
        if ph == "X":
            parts.append('"dur":' + field(count))
        parts.append(_literal('"name":' + _quote(name)))
        parts.append(_literal('"ph":' + _quote(ph)))
        parts.append(_literal('"track":[' + _quote(kind) + ",") + field(count + 1) + "]")
        parts.append('"ts":' + field(count + 2))
    except LookupError:
        return None
    return ("{{" + ",".join(parts) + "}}\n").format, tuple(conversions)


class JsonlSink:
    """Streams records to a JSONL file, one canonical JSON object per line.

    The first line is a header object (``type/version/label``); every
    following line is a record.  ``label`` is the one field allowed to
    vary between otherwise identical runs — comparisons exempt the header.

    A line is the exact text of ``_encode(record.to_json_obj())``, written
    from a template cached per shape: event name, ``ph``, track kind,
    args keys in insertion order and the exact type of every value.  A
    record with a value the templates do not cover (a non-finite float,
    a list or dict, an ``IntEnum``, a non-``str`` key) is encoded by
    ``_encode``.
    """

    def __init__(self, path, label: str = "") -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(
            _encode({"label": label, "type": "header", "version": TRACE_VERSION})
            + "\n"
        )
        #: record shape -> ``_line_template(...)`` (``None``: ``_encode``).
        self._templates: dict = {}

    def write(self, record: TraceRecord) -> None:
        ts, name, track, ph, dur, args = record
        templates = self._templates
        try:
            kind, ident = track
            # A shape has 7 members without args and 6 + 2k with k args
            # keys, so ``args=None`` and ``args={}`` never share one.
            if args is None:
                values = (dur, ident, ts)
                shape = (name, ph, kind, None, *map(type, values))
            elif type(args) is dict:
                values = (*args.values(), dur, ident, ts)
                shape = (name, ph, kind, *args, *map(type, values))
            else:  # another mapping: only _encode knows what json makes of it
                raise TypeError(type(args).__name__)
            template = templates[shape]
        except KeyError:
            template = templates[shape] = _line_template(
                name, ph, kind, None if args is None else tuple(args),
                tuple(map(type, values)),
            )
        except (TypeError, ValueError):  # not a (kind, ident) pair; unhashable
            template = None
        if template is not None:
            fill, conversions = template
            if len(conversions) == 1:  # the usual case: one string
                ((index, convert),) = conversions
                line = fill(*values, convert(values[index]))
            else:
                line = fill(*values, *[
                    convert(values[index]) for index, convert in conversions
                ])
            # A non-finite float formats as nan or inf where JSON has NaN
            # or Infinity; a string holding either only costs _encode.
            if "nan" not in line and "inf" not in line:
                self._fh.write(line)
                return
        self._fh.write(_encode(record.to_json_obj()) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


_NUMBER = (int, float)
#: record field -> the JSON types its value may take (``bool`` never
#: counts as a number).
_RECORD_TYPES: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "ts": _NUMBER,
    "track": (list,),
    "ph": (str,),
    "dur": _NUMBER,
    "args": (dict, type(None)),
}
#: the largest finite time; also refuses integers no float can hold.
_FLOAT_MAX = sys.float_info.max
_REQUIRED = ("name", "ts", "track")


def parse_trace_line(line: str, where: str) -> Optional[TraceRecord]:
    """One stripped JSONL trace line as a record; ``None`` for a header.

    A line that is not a JSON object, or whose ``name``, ``ts``,
    ``track``, ``ph``, ``dur`` or ``args`` is missing or mistyped, raises
    ``ValueError`` naming ``where`` (``path:line``).  A track is a
    ``[kind, ident]`` pair: a string kind and a string or integer ident.
    """
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{where}: not a JSON line ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: a trace line must be a JSON object, "
                         f"got {type(obj).__name__}")
    if obj.get("type") == "header":
        return None
    for field in _REQUIRED:
        if field not in obj:
            raise ValueError(f"{where}: record has no {field!r}")
    for field, types in _RECORD_TYPES.items():
        if field not in obj:
            continue
        value = obj[field]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{where}: record field {field!r} has type "
                             f"{type(value).__name__}")
        if types is _NUMBER and not abs(value) <= _FLOAT_MAX:
            raise ValueError(f"{where}: record field {field!r} must be finite, "
                             f"got {reprlib.repr(value)}")
    track = obj["track"]
    if (len(track) != 2 or not isinstance(track[0], str)
            or isinstance(track[1], bool) or not isinstance(track[1], (str, int))):
        raise ValueError(f"{where}: record field 'track' must be [kind, ident], "
                         f"got {reprlib.repr(track)}")
    return TraceRecord.from_json_obj(obj)


def read_trace(path) -> tuple[dict, list[TraceRecord]]:
    """Load a JSONL trace: ``(header, records)``.

    Accepts headerless files (header defaults to an empty dict) so the
    reader also works on hand-built fixtures.  Duplicate header lines —
    what concatenating trace files (``cat a.jsonl b.jsonl``) leaves
    mid-file — are skipped: the first header wins, later ones are
    neither records nor errors.  A malformed line raises ``ValueError``
    naming the file and line (:func:`parse_trace_line`).
    """
    header: dict = {}
    records: list[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            record = parse_trace_line(line, f"{path}:{number}")
            if record is None:
                if not header:
                    header = json.loads(line)
                continue
            records.append(record)
    return header, records
