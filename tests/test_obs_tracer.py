"""Tracer core: records, sinks, JSONL and Perfetto export."""

import enum
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.obs import (
    TRACE_VERSION,
    JsonlSink,
    MemorySink,
    TraceRecord,
    Tracer,
    category,
    read_trace,
    to_perfetto,
    write_perfetto,
)
from repro.obs.tracer import _encode


class TestTraceRecord:
    def test_category_is_text_before_first_dot(self):
        assert category("packet.inject") == "packet"
        assert category("zone.transition") == "zone"
        record = TraceRecord(1.0, "msp.open", ("flow", "0-5"))
        assert record.category == "msp"

    def test_json_round_trip(self):
        record = TraceRecord(
            2.5e-4, "congestion.episode", ("flow", "0-5"),
            ph="X", dur=1e-4, args={"active": 3},
        )
        back = TraceRecord.from_json_obj(record.to_json_obj())
        assert back == record

    def test_instant_record_omits_dur_and_args(self):
        obj = TraceRecord(0.0, "packet.inject", ("flow", "0-1")).to_json_obj()
        assert "dur" not in obj
        assert "args" not in obj


class TestTracer:
    def test_sink_added_later_sees_every_later_record(self):
        first = MemorySink()
        tracer = Tracer(sinks=[first])
        tracer.emit(0.0, "packet.inject", ("flow", "0-1"))
        late = MemorySink()
        tracer.add_sink(late)
        for i in range(1, 4):
            tracer.emit(float(i), "packet.deliver", ("flow", "0-1"))
        assert [r.ts for r in first.records] == [0.0, 1.0, 2.0, 3.0]
        assert [r.ts for r in late.records] == [1.0, 2.0, 3.0]
        assert late.records == first.records[1:]
        assert tracer.emitted == 4


class TestJsonl:
    def test_header_then_records_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path, label="unit")])
        tracer.emit(0.0, "packet.inject", ("flow", "0-1"), args={"size_bytes": 64})
        tracer.emit(1e-6, "packet.deliver", ("flow", "0-1"), args={"latency_s": 1e-6})
        tracer.close()
        header, records = read_trace(path)
        assert header["type"] == "header"
        assert header["version"] == TRACE_VERSION
        assert header["label"] == "unit"
        assert [r.name for r in records] == ["packet.inject", "packet.deliver"]
        assert records[0].args == {"size_bytes": 64}
        assert records[0].track == ("flow", "0-1")

    def test_lines_are_canonical_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        tracer.emit(0.5, "zone.transition", ("flow", "0-1"), args={"to": "H", "from": "L"})
        tracer.close()
        lines = path.read_text().splitlines()
        # Sorted keys, compact separators: byte-stable across runs.
        assert lines[1] == (
            '{"args":{"from":"L","to":"H"},"name":"zone.transition",'
            '"ph":"i","track":["flow","0-1"],"ts":0.5}'
        )


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 2


#: names, keys and strings: the shapes real call sites repeat, plus text
#: JSON must escape and text a ``str.format`` template must not read as
#: a field.
_TEXT = st.sampled_from(
    ["flow", "packet.inject", "a", "b", "\u00e9t\u00e9", "\u6d41", 'qu"ote',
     "back\\slash", "ctl\x01\x1f\x7f", "new\nline", "{0}", "}{", "%s", "nan", "-inf"]
) | st.text(max_size=6)
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.floats(),  # NaN, -0.0 and both infinities included
    st.just(-0.0),
    st.booleans(),
    st.none(),
    st.sampled_from(Level),
)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3) | st.dictionaries(
    _TEXT, _SCALARS, max_size=3
)
_ARGS = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(_TEXT, _VALUES, max_size=5),
    st.dictionaries(st.integers(), _SCALARS, min_size=1, max_size=3),
)
_RECORDS = st.builds(
    TraceRecord,
    ts=st.floats() | st.integers(),
    name=_TEXT,
    track=st.tuples(_TEXT, _TEXT | st.integers()),
    ph=st.sampled_from(["i", "X", "C"]) | _TEXT,
    dur=st.floats() | st.integers(),
    args=_ARGS,
)
_SAME_SHAPE = [
    TraceRecord(0.5, "packet.inject", ("flow", "0-1"), args=None),
    TraceRecord(0.5, "packet.inject", ("flow", "0-1"), args={}),
]


class TestJsonlEncoding:
    """``JsonlSink`` writes, line for line, ``_encode(to_json_obj())``."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=st.lists(_RECORDS, min_size=1, max_size=8))
    @example(records=_SAME_SHAPE)
    @example(records=_SAME_SHAPE[::-1])
    @example(records=[
        TraceRecord(1e-6, "congestion.episode", ("flow", "0-5"), ph="X",
                    dur=2.5e-6, args={"active": 3}),
        TraceRecord(2e-6, "congestion.episode", ("flow", "0-5"), ph="X",
                    dur=float("inf"), args={"active": 3}),
        TraceRecord(3e-6, "congestion.episode", ("flow", "0-5"), ph="X",
                    dur=1e-6, args={"active": Level.HIGH}),
        *[TraceRecord(-0.0, "router.contention", ("router", 7), args={
            "wait_s": wait, "big": 2**100, "handled": True, "port": None,
            "note": 'é"\\\n',
        }) for wait in (-0.0, float("nan"), float("-inf"), 1e-6)],
        TraceRecord(1.0, "fault.fail", ("fabric", 0),
                    args={"link": [0, 1], "by": {"b": 1, "a": "x"}}),
    ])
    def test_lines_equal_the_reference_encoding(self, records, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "encoding.jsonl"
        sink = JsonlSink(path)
        for record in records:
            sink.write(record)
        sink.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        assert lines == [_encode(r.to_json_obj()) + "\n" for r in records]


class TestReadTrace:
    @staticmethod
    def _write(path, names, label=""):
        sink = JsonlSink(path, label=label)
        for i, name in enumerate(names):
            sink.write(TraceRecord(i * 1e-6, name, ("flow", "0-1")))
        sink.close()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_trace(path) == ({}, [])

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.jsonl"
        self._write(path, [], label="idle")
        header, records = read_trace(path)
        assert header["label"] == "idle"
        assert records == []

    def test_duplicate_header_mid_file_first_wins(self, tmp_path):
        # Concatenating two trace files leaves a second header mid-file.
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write(a, ["packet.inject"], label="first")
        self._write(b, ["packet.deliver"], label="second")
        joined = tmp_path / "joined.jsonl"
        joined.write_bytes(a.read_bytes() + b.read_bytes())
        header, records = read_trace(joined)
        assert header["label"] == "first"
        assert [r.name for r in records] == ["packet.inject", "packet.deliver"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, ["packet.inject"])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n  \n\n")
        _header, records = read_trace(path)
        assert [r.name for r in records] == ["packet.inject"]


class TestPerfetto:
    def _records(self):
        return [
            TraceRecord(0.0, "packet.inject", ("flow", "0-5")),
            TraceRecord(1e-6, "router.contention", ("router", 2), args={"wait_s": 1e-6}),
            TraceRecord(1e-6, "router.queue_bytes", ("router", 2), ph="C",
                        args={"value": 2048, "port": "host:5"}),
            TraceRecord(2e-6, "congestion.episode", ("flow", "0-5"), ph="X",
                        dur=1e-6, args={"active": 2}),
        ]

    def test_tracks_become_processes_and_threads(self):
        doc = to_perfetto(self._records(), label="unit")
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        # Two track kinds (flow, router) -> two distinct pids.
        pids = {e["pid"] for e in events}
        assert len(pids) == 2

    def test_timestamps_scaled_to_microseconds(self):
        events = to_perfetto(self._records())["traceEvents"]
        episode = next(e for e in events if e["name"] == "congestion.episode")
        assert episode["ph"] == "X"
        assert episode["ts"] == pytest.approx(2.0)
        assert episode["dur"] == pytest.approx(1.0)
        instant = next(e for e in events if e["name"] == "packet.inject")
        assert instant["ph"] == "i"
        assert instant["s"] == "t"

    def test_counter_events_keep_only_numeric_args(self):
        events = to_perfetto(self._records())["traceEvents"]
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"] == {"value": 2048}

    def test_write_perfetto_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_perfetto(path, self._records(), label="unit")
        doc = json.loads(path.read_text())
        assert doc["label"] == "unit"
        assert len(doc["traceEvents"]) >= len(self._records())
