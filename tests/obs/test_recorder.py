"""Unit tests for :mod:`repro.obs.recorder`."""

import gc
import io
import json

import pytest

from repro.obs import (
    EVENT_TYPES,
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    file_trace_digest,
    read_trace,
    read_trace_iter,
    read_trace_meta,
    trace_digest,
)
from repro.obs.events import trace_meta_line


class TestNullRecorder:
    def test_disabled_flag_is_class_attribute(self):
        # Hot paths guard on `recorder.enabled`; the null recorder must
        # answer False without any instance state.
        assert NullRecorder.enabled is False
        assert NULL_RECORDER.enabled is False

    def test_emit_is_a_no_op(self):
        assert NULL_RECORDER.emit("contact", t=0.0, a=1, b=2) is None


class TestTraceRecorder:
    def test_enabled(self):
        assert TraceRecorder().enabled is True

    def test_sequence_numbers_are_dense(self):
        rec = TraceRecorder()
        rec.emit("contact", t=1.0, a=0, b=1)
        rec.emit("forward", t=2.0, msg=0, src=0, dst=1)
        rec.emit("delivery", t=2.0, msg=0, node=1, intended=True)
        assert [e.seq for e in rec.events] == [0, 1, 2]
        assert len(rec) == 3

    def test_events_of_filters_by_type(self):
        rec = TraceRecorder()
        rec.emit("contact", t=1.0, a=0, b=1)
        rec.emit("forward", t=2.0, msg=0, src=0, dst=1)
        rec.emit("contact", t=3.0, a=1, b=2)
        assert [e.t for e in rec.events_of("contact")] == [1.0, 3.0]
        with pytest.raises(ValueError, match="unknown event type"):
            rec.events_of("nope")

    def test_counts_include_zero_types(self):
        rec = TraceRecorder()
        rec.emit("contact", t=1.0, a=0, b=1)
        counts = rec.counts()
        assert set(counts) == set(EVENT_TYPES)
        assert counts["contact"] == 1
        assert counts["m_merge"] == 0

    def test_jsonl_roundtrip_through_file(self, tmp_path):
        rec = TraceRecorder()
        rec.emit("contact", t=1.0, a=0, b=1, duration=60.0)
        rec.emit("broker_role", t=2.0, node=1, action="promote", by=0)
        path = tmp_path / "trace.jsonl"
        assert rec.write_jsonl(str(path)) == 2
        events = list(read_trace(str(path)))
        assert events == rec.events
        only_roles = list(read_trace(str(path), type="broker_role"))
        assert [e.type for e in only_roles] == ["broker_role"]

    def test_streaming_sink_matches_buffered_encoding(self):
        # A sink receives the schema meta header up front, then the
        # same event bytes that a buffering recorder's to_jsonl() holds.
        sink = io.StringIO()
        rec, buffered = TraceRecorder(sink=sink), TraceRecorder()
        for r in (rec, buffered):
            r.emit("contact", t=1.0, a=0, b=1)
            r.emit("decay_tick", t=5.0, node=0, dt=4.0)
        assert sink.getvalue() == trace_meta_line() + "\n" + buffered.to_jsonl()
        assert len(rec) == len(buffered) == 2
        assert rec.counts() == buffered.counts()

    def test_streaming_sink_keeps_no_event_list(self):
        rec = TraceRecorder(sink=io.StringIO())
        rec.emit("contact", t=1.0, a=0, b=1)
        assert rec.events is None
        for method in (rec.to_jsonl, rec.digest, lambda: rec.events_of("contact")):
            with pytest.raises(RuntimeError, match="sink"):
                method()
        with pytest.raises(RuntimeError, match="sink"):
            rec.write_jsonl("/nonexistent/never-written.jsonl")


    def test_digest_depends_on_content(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.emit("contact", t=1.0, a=0, b=1)
        b.emit("contact", t=1.0, a=0, b=1)
        assert a.digest() == b.digest()
        b.emit("contact", t=2.0, a=0, b=2)
        assert a.digest() != b.digest()

    def test_digest_is_not_line_concatenation_ambiguous(self):
        # Two events must never hash like one longer event.
        one = TraceRecorder()
        one.emit("contact", t=1.0, a=0, b=1)
        assert trace_digest(one.events) == one.digest()
        empty = TraceRecorder()
        assert empty.digest() != one.digest()

    def test_jsonl_lines_parse_individually(self):
        rec = TraceRecorder()
        rec.emit("forward", t=1.0, msg=0, src=0, dst=1, kind="direct", size=100)
        for line in rec.to_jsonl().splitlines():
            record = json.loads(line)
            assert record["type"] in EVENT_TYPES


class _CountingSink:
    """A write-only sink that keeps nothing but a byte count."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text)


class TestBoundedMemory:
    def test_sink_mode_memory_flat_over_150k_events(self):
        # A traced long-running daemon streams every event to its file;
        # the recorder itself must hold O(1) state, not O(events).
        # Buffered, each event would leave a TraceEvent and its fields
        # dict alive; the live-object count must stay flat instead.
        sink = _CountingSink()
        rec = TraceRecorder(sink=sink)
        rec.emit("create", t=0.0, msg=-1, node=0, ttl=10.0, num_intended=1)
        gc.collect()
        before = len(gc.get_objects())
        for i in range(50_000):
            t = float(i)
            rec.emit("create", t=t, msg=i, node=0, ttl=10.0, num_intended=1)
            rec.emit("forward", t=t + 0.4, msg=i, kind="direct", src=0, dst=1)
            rec.emit("delivery", t=t + 0.5, msg=i, node=1, intended=True)
        gc.collect()
        assert len(gc.get_objects()) - before < 1_000
        assert len(rec) == 150_001
        counts = rec.counts()
        assert counts["create"] == 50_001
        assert counts["forward"] == counts["delivery"] == 50_000
        assert sink.bytes > 150_000 * 40


class TestTraceFiles:
    """Schema header, streaming readers, and backward compatibility."""

    def _write(self, tmp_path, name="trace.jsonl"):
        rec = TraceRecorder()
        rec.emit("contact", t=1.0, a=0, b=1)
        rec.emit("forward", t=2.0, msg=0, src=0, dst=1, kind="direct")
        rec.emit("delivery", t=2.0, msg=0, node=1, intended=True)
        path = tmp_path / name
        rec.write_jsonl(str(path))
        return rec, path

    def test_written_file_starts_with_meta_header(self, tmp_path):
        rec, path = self._write(tmp_path)
        first = path.read_text().splitlines()[0]
        assert first == trace_meta_line()
        assert read_trace_meta(str(path)) == json.loads(trace_meta_line())

    def test_read_trace_iter_is_lazy_and_skips_meta(self, tmp_path):
        rec, path = self._write(tmp_path)
        iterator = read_trace_iter(str(path))
        assert iter(iterator) is iterator  # a generator, not a list
        assert list(iterator) == rec.events

    def test_read_trace_builds_on_iterator(self, tmp_path):
        rec, path = self._write(tmp_path)
        assert list(read_trace(str(path))) == rec.events
        assert [e.type for e in read_trace(str(path), type="forward")] == [
            "forward"
        ]

    def test_file_digest_matches_in_memory_digest(self, tmp_path):
        # The digest covers events only — the meta header must not
        # perturb it, so schema bumps alone never break golden pins.
        rec, path = self._write(tmp_path)
        assert file_trace_digest(str(path)) == rec.digest()

    def test_headerless_schema1_trace_still_parses(self, tmp_path):
        # Traces written before the schema header existed have no meta
        # line; readers must treat them as schema 1 and parse fully.
        rec, path = self._write(tmp_path)
        old = tmp_path / "old.jsonl"
        old.write_text(rec.to_jsonl())
        assert read_trace_meta(str(old)) == {"schema": 1}
        assert list(read_trace_iter(str(old))) == rec.events
        assert file_trace_digest(str(old)) == rec.digest()

    def test_empty_file_is_schema1_and_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_trace_meta(str(path)) == {"schema": 1}
        assert list(read_trace_iter(str(path))) == []
