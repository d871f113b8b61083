"""Unit tests for the repro.obs primitives (events, recorders, sinks)."""

import json
import logging
import math

import pytest

from repro.obs import (
    COUNTER,
    GAUGE,
    SPAN,
    Event,
    InMemoryRecorder,
    JsonlRecorder,
    LoggingRecorder,
    NullRecorder,
    Span,
    get_recorder,
    resolve,
    set_recorder,
    summarize,
    use_recorder,
)


class TestEvent:
    def test_to_dict_round_trips_through_json(self):
        event = Event("kmeans.g", GAUGE, 1.5, {"iteration": 3})
        record = json.loads(json.dumps(event.to_dict()))
        assert record == {"name": "kmeans.g", "kind": "gauge",
                          "value": 1.5, "tags": {"iteration": 3}}

    def test_tags_omitted_when_empty(self):
        assert "tags" not in Event("x", COUNTER, 1.0).to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Event("x", "histogram", 1.0)

    def test_to_dict_copies_tags(self):
        tags = {"a": 1}
        record = Event("x", COUNTER, 1.0, tags).to_dict()
        record["tags"]["a"] = 2
        assert tags["a"] == 1


class TestInMemoryRecorder:
    def test_counter_accumulates(self):
        recorder = InMemoryRecorder()
        recorder.counter("docs", 3)
        recorder.counter("docs", 4)
        assert recorder.total("docs") == 7
        assert recorder.counters() == {"docs": 7.0}

    def test_gauge_last_wins(self):
        recorder = InMemoryRecorder()
        recorder.gauge("tdw", 1.0)
        recorder.gauge("tdw", 2.5)
        assert recorder.last("tdw") == 2.5
        assert recorder.last("unseen") is None

    def test_select_by_name_and_kind(self):
        recorder = InMemoryRecorder()
        recorder.counter("a")
        recorder.gauge("a", 2.0)
        recorder.gauge("b", 3.0)
        assert len(recorder.select(name="a")) == 2
        assert len(recorder.select(name="a", kind=GAUGE)) == 1
        assert recorder.names() == {"a", "b"}

    def test_clear(self):
        recorder = InMemoryRecorder()
        recorder.counter("a")
        recorder.clear()
        assert recorder.events == []


class TestSpan:
    def test_measures_even_with_null_recorder(self):
        with Span(NullRecorder(), "phase") as span:
            pass
        assert span.duration >= 0.0

    def test_emits_on_enabled_recorder(self):
        recorder = InMemoryRecorder()
        with recorder.span("phase", batch=4):
            pass
        (event,) = recorder.select(name="phase")
        assert event.kind == SPAN
        assert event.tags["batch"] == 4
        assert event.value >= 0.0

    def test_tags_error_on_exception(self):
        recorder = InMemoryRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("phase"):
                raise RuntimeError("boom")
        (event,) = recorder.select(name="phase")
        assert event.tags["error"] == "RuntimeError"


class TestAmbientRecorder:
    def test_default_is_null(self):
        assert isinstance(get_recorder(), NullRecorder)
        assert resolve(None) is get_recorder()

    def test_use_recorder_scopes_and_restores(self):
        recorder = InMemoryRecorder()
        before = get_recorder()
        with use_recorder(recorder) as active:
            assert active is recorder
            assert resolve(None) is recorder
        assert get_recorder() is before

    def test_explicit_beats_ambient(self):
        explicit = InMemoryRecorder()
        with use_recorder(InMemoryRecorder()):
            assert resolve(explicit) is explicit

    def test_set_recorder_none_restores_null(self):
        previous = set_recorder(InMemoryRecorder())
        try:
            set_recorder(None)
            assert isinstance(get_recorder(), NullRecorder)
        finally:
            set_recorder(previous)


class TestJsonlRecorder:
    def test_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.counter("docs", 5, batch=1)
            recorder.gauge("tdw", 2.0)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "docs"
        assert records[0]["tags"] == {"batch": 1}
        assert all("t" in record for record in records)
        assert records[0]["t"] <= records[1]["t"]
        assert recorder.events_written == 2

    def test_closed_recorder_drops_silently(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "trace.jsonl")
        recorder.close()
        recorder.close()  # idempotent
        recorder.counter("late")  # no error
        assert recorder.events_written == 0


class TestLoggingRecorder:
    def test_forwards_to_logger(self, caplog):
        logger = logging.getLogger("repro.obs.test")
        recorder = LoggingRecorder(logger, level=logging.INFO)
        with caplog.at_level(logging.INFO, logger="repro.obs.test"):
            recorder.counter("docs", 3, batch=2)
        assert "docs" in caplog.text
        assert "counter" in caplog.text

    def test_respects_disabled_level(self, caplog):
        logger = logging.getLogger("repro.obs.test2")
        recorder = LoggingRecorder(logger, level=logging.DEBUG)
        with caplog.at_level(logging.WARNING, logger="repro.obs.test2"):
            recorder.counter("docs")
        assert caplog.text == ""


class TestSummarize:
    def test_aggregates_all_kinds(self):
        events = [
            Event("docs", COUNTER, 2.0),
            Event("docs", COUNTER, 3.0),
            Event("tdw", GAUGE, 1.0),
            Event("tdw", GAUGE, 4.0),
            Event("phase", SPAN, 0.5),
            Event("phase", SPAN, 1.5),
        ]
        summary = summarize(events)
        assert summary["counters"] == {"docs": 5.0}
        assert summary["gauges"]["tdw"] == {"last": 4.0, "min": 1.0,
                                            "max": 4.0}
        span = summary["spans"]["phase"]
        assert span["count"] == 2
        assert math.isclose(span["total"], 2.0)
        assert math.isclose(span["mean"], 1.0)
        assert math.isclose(span["max"], 1.5)

    def test_empty_stream(self):
        assert summarize([]) == {"counters": {}, "gauges": {}, "spans": {}}

    def test_span_percentiles_are_nearest_rank(self):
        # 1..20 s in shuffled order: the nearest-rank p of 20 values is
        # value number ceil(p/100 · 20)
        durations = (7, 19, 3, 12, 20, 1, 15, 9, 4, 18,
                     11, 2, 16, 6, 13, 8, 17, 5, 14, 10)
        summary = summarize(Event("phase", SPAN, float(value))
                            for value in durations)
        span = summary["spans"]["phase"]
        assert span["p50"] == 10.0
        assert span["p90"] == 18.0
        assert span["p99"] == 20.0

    def test_single_span_percentiles_are_its_duration(self):
        span = summarize([Event("once", SPAN, 0.25)])["spans"]["once"]
        assert span["p50"] == span["p90"] == span["p99"] == 0.25
