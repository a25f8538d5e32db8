"""``python -m repro.obs`` CLI: summarize, export, diff."""

import json

from repro.obs import JsonlSink, Tracer
from repro.obs.cli import main, summarize
from repro.obs.tracer import TraceRecord


def _write_trace(path, label="unit"):
    tracer = Tracer(sinks=[JsonlSink(path, label=label)])
    tracer.emit(0.0, "packet.inject", ("flow", "0-1"), args={"size_bytes": 64})
    tracer.emit(1e-6, "zone.transition", ("flow", "0-1"),
                args={"from": "L", "to": "H"})
    tracer.emit(2e-6, "prediction.hit", ("flow", "0-1"), args={"paths": 2})
    tracer.emit(3e-6, "prediction.miss", ("flow", "0-1"))
    tracer.emit(4e-6, "prediction.hit", ("flow", "0-1"), args={"paths": 3})
    tracer.emit(5e-6, "packet.deliver", ("flow", "0-1"),
                args={"latency_s": 5e-6, "size_bytes": 64})
    tracer.emit(6e-6, "packet.drop", ("flow", "0-1"),
                args={"reason": "ttl", "kind": "DATA"})
    tracer.close()
    return path


class TestSummarize:
    def test_aggregates_prediction_and_drops(self):
        records = [
            TraceRecord(0.0, "prediction.hit", ("flow", "0-1")),
            TraceRecord(1.0, "prediction.hit", ("flow", "0-1")),
            TraceRecord(2.0, "prediction.miss", ("flow", "0-1")),
            TraceRecord(3.0, "packet.drop", ("flow", "0-1"),
                        args={"reason": "ttl"}),
        ]
        summary = summarize(records)
        assert summary["prediction"]["hit_rate"] == 2 / 3
        assert summary["drops_by_reason"] == {"ttl": 1}
        assert summary["events_by_category"]["prediction"] == 3

    def test_empty_trace_has_zero_hit_rate(self):
        assert summarize([])["prediction"]["hit_rate"] == 0.0

    def test_cli_summarize_json(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "t.jsonl")
        assert main(["summarize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] == 7
        assert doc["label"] == "unit"
        assert doc["prediction"]["hits"] == 2
        assert doc["delivery"]["packets"] == 1

    def test_cli_summarize_text_mentions_hit_rate(self, tmp_path, capsys):
        path = _write_trace(tmp_path / "t.jsonl")
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hit rate 66.7%" in out
        assert "zone transitions" in out


class TestExport:
    def test_perfetto_export(self, tmp_path, capsys):
        src = _write_trace(tmp_path / "t.jsonl")
        out = tmp_path / "t.perfetto.json"
        assert main(["export", str(src), "--format", "perfetto",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "zone.transition" in names
        assert doc["label"] == "unit"

    def test_jsonl_reexport_preserves_records(self, tmp_path):
        src = _write_trace(tmp_path / "t.jsonl")
        out = tmp_path / "copy.jsonl"
        assert main(["export", str(src), "--format", "jsonl",
                     "--out", str(out)]) == 0
        assert src.read_text() == out.read_text()


class TestDiff:
    def test_identical_bodies_with_different_labels_match(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl", label="first")
        b = _write_trace(tmp_path / "b.jsonl", label="second")
        assert main(["diff", str(a), str(b)]) == 0

    def test_differing_record_detected(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.jsonl")
        b = tmp_path / "b.jsonl"
        tracer = Tracer(sinks=[JsonlSink(b)])
        tracer.emit(0.0, "packet.inject", ("flow", "0-1"), args={"size_bytes": 99})
        tracer.close()
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "record count differs" in out
