"""Self-time math and the span recorder's wrapping."""

import numpy as np
import pytest

from spans import SpanRecorder, layer_table, self_times


def test_nested_spans_subtract_each_child_once():
    # root [0, 10) -> child [1, 4) -> grandchild [2, 3)
    start = np.array([0.0, 1.0, 2.0])
    end = np.array([10.0, 4.0, 3.0])
    parent = np.array([-1, 0, 1])
    assert self_times(start, end, parent).tolist() == [7.0, 2.0, 1.0]


def test_sibling_spans_both_subtract_from_parent():
    # root [0, 10) with children [1, 3) and [5, 9)
    start = np.array([0.0, 1.0, 5.0])
    end = np.array([10.0, 3.0, 9.0])
    parent = np.array([-1, 0, 0])
    own = self_times(start, end, parent)
    assert own.tolist() == [4.0, 2.0, 4.0]
    assert own.sum() == pytest.approx(10.0)


def test_layer_table_sums_self_time_by_name_inside_window():
    names = ["a", "b"]
    layers = ["x", "y"]
    name_id = np.array([0, 1, 1, 0])
    start = np.array([0.0, 1.0, 5.0, 20.0])
    end = np.array([10.0, 3.0, 9.0, 21.0])
    parent = np.array([-1, 0, 0, -1])
    table = layer_table(names, layers, name_id, start, end, parent, (0.0, 15.0))
    assert table["a"] == {"layer": "x", "calls": 1, "self_s": 4.0}
    assert table["b"] == {"layer": "y", "calls": 2, "self_s": 6.0}


class _Thing:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_recorder_links_parents_and_restores():
    original_outer = _Thing.__dict__["outer"]
    rec = SpanRecorder()
    rec.wrap(_Thing, "outer", "t.outer", "t", request=lambda args: args[1])
    rec.wrap(_Thing, "inner", "t.inner", "t", measure=lambda args: args[1])
    thing = _Thing()
    assert thing.outer(3) == 7  # inactive: nothing recorded
    assert len(rec) == 0
    rec.active = True
    assert thing.outer(5) == 11
    rec.active = False
    spans = rec.arrays()
    assert [rec.names[i] for i in spans["name_id"]] == ["t.outer", "t.inner"]
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["request"].tolist() == [5, 5]
    assert rec.totals == {"t.inner": 5.0}
    own = self_times(spans["start"], spans["end"], spans["parent"])
    total = spans["end"][0] - spans["start"][0]
    assert own.sum() == pytest.approx(total)
    rec.restore()
    assert _Thing.__dict__["outer"] is original_outer


def test_saved_spans_round_trip(tmp_path):
    rec = SpanRecorder()
    rec.wrap(_Thing, "inner", "t.inner", "t")
    rec.active = True
    _Thing().inner(1)
    rec.restore()
    path = tmp_path / "spans.npz"
    rec.save(str(path))
    with np.load(path) as data:
        assert data["names"].tolist() == ["t.inner"]
        assert data["parent"].tolist() == [-1]
