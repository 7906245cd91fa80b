"""Edge-case tests for the streaming trace loaders.

The loaders validate row by row while appending to compact array
columns, so malformed input must fail with a line-accurate error (not
an opaque numpy one at the end), and odd-but-legal input (out-of-order
rows, empty files, comments) must produce a well-formed trace.
"""

import pytest

from repro.traces.stores import ColumnarContactStore
from repro.traces.loaders import load_csv_trace, load_whitespace_trace


class TestMalformedInput:
    def test_truncated_line_reports_lineno(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,0,10\nn2,n3,20\n")
        with pytest.raises(ValueError, match=r"line 2: expected 4 fields"):
            load_csv_trace(path)

    def test_extra_fields_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,0,10,bogus\n")
        with pytest.raises(ValueError, match="got 5"):
            load_csv_trace(path)

    def test_non_numeric_time_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,0,10\nn1,n3,soon,later\n")
        with pytest.raises(ValueError):
            load_csv_trace(path)

    def test_self_contact_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n1,0,10\n")
        with pytest.raises(ValueError, match="endpoints must differ"):
            load_csv_trace(path)

    def test_whitespace_truncated_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1 2 0 10\n3 4\n")
        with pytest.raises(ValueError, match=r"line 2: expected 4 fields"):
            load_whitespace_trace(path)


class TestOddButLegalInput:
    def test_out_of_order_rows_are_sorted(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,500,520\nn2,n3,100,130\nn1,n3,300,310\n")
        trace = load_csv_trace(path)
        starts = [contact.start for contact in trace]
        assert starts == sorted(starts) == [100.0, 300.0, 500.0]

    def test_empty_file_yields_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        trace = load_csv_trace(path)
        assert trace.num_contacts == 0
        assert trace.num_nodes == 0
        assert trace.end_time == 0.0
        assert list(trace) == []

    def test_header_only_file_yields_empty_trace(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b,start,end\n")
        assert load_csv_trace(path).num_contacts == 0

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# proximity dump\n\n1 2 0 10\n\n# tail comment\n")
        trace = load_whitespace_trace(path)
        assert trace.num_contacts == 1

    def test_swapped_endpoints_canonicalised(self, tmp_path):
        # Labels are relabelled in first-seen order, so "n9" gets id 0
        # and "n1" id 1; the stored pair must still be (min, max).
        path = tmp_path / "trace.csv"
        path.write_text("n9,n1,0,10\nn1,n9,20,30\n")
        trace = load_csv_trace(path)
        assert [contact.pair for contact in trace] == [(0, 1), (0, 1)]

    def test_negative_duration_gets_nominal_second(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,100,40\n")
        trace = load_csv_trace(path)
        assert trace.contacts[0].start == 100.0
        assert trace.contacts[0].duration == 1.0

    def test_loaded_trace_is_in_memory_columnar(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("n1,n2,0,10\n")
        trace = load_csv_trace(path)
        assert type(trace.store) is ColumnarContactStore
        assert trace.contacts[0].duration == 10.0

    def test_large_stream_round_trip(self, tmp_path):
        # A few thousand rows exercise the chunked append path and the
        # final single sort without building a Contact per row.
        path = tmp_path / "big.csv"
        rows = [
            f"n{i % 50},n{i % 50 + 1},{(7919 * i) % 10_000},"
            f"{(7919 * i) % 10_000 + 5}"
            for i in range(4_000)
        ]
        path.write_text("\n".join(rows) + "\n")
        trace = load_csv_trace(path)
        assert trace.num_contacts == 4_000
        starts = [contact.start for contact in trace]
        assert starts == sorted(starts)
