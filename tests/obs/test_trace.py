"""Tracer/span/sink unit tests."""

import json

import numpy as np
import pytest

from repro.obs import (
    NULL_TRACER,
    ConsoleSink,
    JsonlSink,
    RingBufferSink,
    Tracer,
    as_tracer,
    new_run_id,
)


class TestRunIds:
    def test_fresh_and_hex(self):
        a, b = new_run_id(), new_run_id()
        assert a != b
        assert len(a) == 12
        int(a, 16)  # hex-parsable

    def test_tracer_gets_one_by_default(self):
        assert Tracer().run_id != ""


class TestSpans:
    def test_span_record_shape(self):
        sink = RingBufferSink()
        tracer = Tracer([sink], run_id="runA")
        with tracer.span("solve", backend="revised") as span:
            span.set(nodes=3)
        (rec,) = sink.records
        assert rec["type"] == "span"
        assert rec["name"] == "solve"
        assert rec["run"] == "runA"
        assert rec["parent"] is None
        assert rec["wall"] >= 0.0
        assert rec["cpu"] >= 0.0
        assert rec["t_end"] >= rec["t_start"]
        assert rec["attrs"] == {"backend": "revised", "nodes": 3}

    def test_nesting_records_parent(self):
        sink = RingBufferSink()
        tracer = Tracer([sink])
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.records  # inner closes (emits) first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None

    def test_id_prefix_namespaces(self):
        sink = RingBufferSink()
        tracer = Tracer([sink], id_prefix="c7.")
        with tracer.span("cell"):
            pass
        assert sink.records[0]["id"].startswith("c7.")

    def test_exception_sets_error_attr(self):
        sink = RingBufferSink()
        tracer = Tracer([sink])
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        assert sink.records[0]["attrs"]["error"] == "ValueError"


class TestEvents:
    def test_event_attaches_to_open_span(self):
        sink = RingBufferSink()
        tracer = Tracer([sink])
        with tracer.span("search"):
            tracer.event("node", depth=2)
        event, span = sink.records
        assert event["type"] == "event"
        assert event["span"] == span["id"]
        assert event["attrs"] == {"depth": 2}

    def test_event_without_span(self):
        sink = RingBufferSink()
        Tracer([sink]).event("lonely")
        assert sink.records[0]["span"] is None


class TestNullTracer:
    def test_disabled_and_shared_span(self):
        assert not NULL_TRACER.enabled
        s1 = NULL_TRACER.span("a", x=1)
        s2 = NULL_TRACER.span("b")
        assert s1 is s2  # one reusable null context manager
        with s1 as span:
            assert span.set(anything=1) is span
        NULL_TRACER.event("ignored")
        NULL_TRACER.emit({"type": "event"})
        NULL_TRACER.close()

    def test_as_tracer(self):
        assert as_tracer(None) is NULL_TRACER
        t = Tracer()
        assert as_tracer(t) is t


class TestRingBufferSink:
    def test_capacity_drops_oldest(self):
        sink = RingBufferSink(capacity=2)
        for i in range(4):
            sink.write({"i": i})
        assert [r["i"] for r in sink.records] == [2, 3]
        assert sink.dropped == 2
        sink.clear()
        assert len(sink) == 0 and sink.dropped == 0


class TestJsonlSink:
    def test_round_trip_with_numpy(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer([sink], run_id="r")
        with tracer.span("s", count=np.int64(4), val=np.float64(0.5)):
            pass
        tracer.close()
        lines = path.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert rec["attrs"] == {"count": 4, "val": 0.5}

    def test_append_mode(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _ in range(2):
            sink = JsonlSink(str(path), append=True)
            sink.write({"a": 1})
            sink.close()
        assert len(path.read_text().strip().splitlines()) == 2


class TestConsoleSink:
    def test_renders_both_kinds(self):
        import io

        stream = io.StringIO()
        sink = ConsoleSink(stream)
        tracer = Tracer([sink], run_id="rid")
        with tracer.span("phase", k=1):
            tracer.event("tick", n=2)
        out = stream.getvalue()
        assert "span phase" in out
        assert "event tick" in out
        assert "rid" in out


class TestMonotonicDurations:
    """Span durations come from the monotonic clock, not the epoch one.

    Regression: ``wall`` used to be ``time.time() - t_start``, so an NTP
    step (or DST adjustment) mid-span produced negative durations that
    poisoned every downstream aggregate.
    """

    def test_backwards_epoch_step_cannot_go_negative(self, monkeypatch):
        import time as time_mod

        # time.time() jumps one hour *backwards* while the span is open;
        # the monotonic clock is untouched.
        readings = [1_000_000.0, 996_400.0]
        monkeypatch.setattr(
            time_mod, "time",
            lambda: readings.pop(0) if readings else 996_400.0,
        )
        sink = RingBufferSink()
        tracer = Tracer([sink])
        with tracer.span("steady"):
            pass
        (rec,) = sink.records
        assert rec["wall"] >= 0.0
        # The tracer read the epoch clock once, at construction; the
        # span is stamped from that anchor on the monotonic clock.
        assert rec["t_start"] == pytest.approx(1_000_000.0, abs=1.0)
        # t_end comes from the same anchor, never a second epoch
        # reading, so the interval stays self-consistent.
        assert rec["t_end"] >= rec["t_start"]
        assert rec["t_end"] == pytest.approx(
            rec["t_start"] + rec["wall"]
        )

    def test_epoch_step_keeps_record_order(self, monkeypatch):
        """Spans and events share one clock: a backwards epoch step
        mid-span cannot stamp a later record earlier."""
        import time as time_mod

        epoch = time_mod.time
        sink = RingBufferSink()
        tracer = Tracer([sink])
        with tracer.span("outer"):
            tracer.event("before")
            monkeypatch.setattr(time_mod, "time", lambda: epoch() - 3600.0)
            tracer.event("after")
            with tracer.span("inner"):
                tracer.event("inside")
        records = sink.records
        assert [r["name"] for r in records] == [
            "before", "after", "inside", "inner", "outer",
        ]
        times = [
            r["t_end"] if r["type"] == "span" else r["t"] for r in records
        ]
        assert times == sorted(times)
        outer, inner = records[-1], records[-2]
        assert outer["t_start"] <= records[0]["t"]
        assert outer["t_start"] <= inner["t_start"] <= records[2]["t"]

    def test_wall_tracks_real_elapsed_time(self):
        import time as time_mod

        sink = RingBufferSink()
        tracer = Tracer([sink])
        with tracer.span("sleepy"):
            time_mod.sleep(0.02)
        (rec,) = sink.records
        assert rec["wall"] >= 0.015
        assert rec["cpu"] >= 0.0
