"""Property tests: an in-memory trace equals its dataset-opened twin.

A trace built in memory is columnar; the same trace saved as a dataset
and opened again is memory-mapped.  The mmap store is a pure storage
swap — same contacts, same order, same derived views — so after any
construction and any sequence of trace transforms the twins must agree
exactly.  Hypothesis generates random contact sets and drives the twins
in lockstep; a final test replays both through the simulator and
compares the reports.
"""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, run
from repro.dtn import PassiveProtocol, Simulation
from repro.traces import (
    ContactTrace,
    haggle_like,
    open_trace_dataset,
    save_trace_dataset,
)
from repro.traces.model import Contact
from repro.traces.stores import ColumnarContactStore, MmapContactStore

contact_st = st.builds(
    Contact.make,
    start=st.floats(0.0, 5_000.0, allow_nan=False, allow_infinity=False),
    duration=st.floats(0.5, 600.0, allow_nan=False, allow_infinity=False),
    a=st.integers(0, 11),
    b=st.integers(12, 23),
)

contacts_st = st.lists(contact_st, min_size=0, max_size=40)


def _mmap_twin(trace):
    """*trace* saved as a dataset and opened again (memory-mapped).

    The directory is removed at once; the open mapping stays readable.
    """
    with tempfile.TemporaryDirectory() as tmp:
        return open_trace_dataset(save_trace_dataset(trace, tmp))


def _twins(contacts):
    """(in-memory columnar trace, its dataset-opened mmap twin)."""
    col = ContactTrace(contacts, name="twin")
    return col, _mmap_twin(col)


def _assert_traces_agree(obj, *others):
    for other in others:
        assert obj.num_contacts == other.num_contacts
        assert obj.nodes == other.nodes
        assert obj.start_time == other.start_time
        assert obj.end_time == other.end_time
        assert list(obj) == list(other)


class TestEquivalence:
    @given(contacts=contacts_st)
    @settings(max_examples=60, deadline=None)
    def test_same_contacts_and_metadata(self, contacts):
        col, mm = _twins(contacts)
        assert type(col.store) is ColumnarContactStore
        assert type(mm.store) is MmapContactStore
        _assert_traces_agree(col, mm)
        assert list(col) == sorted(contacts, key=lambda c: c.start)

    @given(contacts=contacts_st)
    @settings(max_examples=60, deadline=None)
    def test_materialised_rows_are_plain_contacts(self, contacts):
        col, mm = _twins(contacts)
        for trace in (col, mm):
            for contact in trace:
                assert type(contact) is Contact
                assert type(contact.start) is float
                assert type(contact.duration) is float
                assert type(contact.a) is int
                assert type(contact.b) is int

    @given(
        contacts=contacts_st,
        lo=st.floats(0.0, 5_000.0, allow_nan=False),
        span=st.floats(0.0, 5_000.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_slices_agree(self, contacts, lo, span):
        col, mm = _twins(contacts)
        _assert_traces_agree(col.slice(lo, lo + span), mm.slice(lo, lo + span))
        _assert_traces_agree(col.first_days(span / 86_400.0),
                             mm.first_days(span / 86_400.0))

    @given(
        contacts=contacts_st,
        offset=st.floats(-100.0, 100.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_and_indexing_agree(self, contacts, offset):
        col, mm = _twins(contacts)
        _assert_traces_agree(col.shifted(offset), mm.shifted(offset))
        ordered = sorted(contacts, key=lambda c: c.start)
        for i in range(-len(ordered), len(ordered)):
            assert col.contacts[i] == ordered[i]
            assert mm.contacts[i] == ordered[i]

    @given(contacts=contacts_st, node=st.integers(0, 23))
    @settings(max_examples=60, deadline=None)
    def test_per_node_views_agree(self, contacts, node):
        col, mm = _twins(contacts)
        mine = [c for c in contacts if c.involves(node)]
        assert col.contacts_of(node) == mm.contacts_of(node)
        assert sorted(col.contacts_of(node)) == sorted(mine)
        assert col.neighbours(node) == mm.neighbours(node)
        assert col.neighbours(node) == {c.peer_of(node) for c in mine}
        assert col.pair_contact_counts() == mm.pair_contact_counts()

    @given(contacts=contacts_st)
    @settings(max_examples=30, deadline=None)
    def test_from_arrays_matches_object_construction(self, contacts):
        ordered = sorted(contacts, key=lambda c: c.start)
        start = np.array([c.start for c in ordered])
        duration = np.array([c.duration for c in ordered])
        a = np.array([c.a for c in ordered], dtype=np.int64)
        b = np.array([c.b for c in ordered], dtype=np.int64)
        built = ContactTrace.from_arrays(start, duration, a, b)
        assert list(built) == ordered
        assert list(_mmap_twin(built)) == ordered

    @given(contacts=contacts_st)
    @settings(max_examples=20, deadline=None)
    def test_simulation_reports_agree(self, contacts):
        # Both replay paths: the passive fast path and the general
        # per-contact loop (a handler-free protocol not flagged passive).
        for protocol_cls in (PassiveProtocol, _GeneralLoopPassive):
            col, mm = (
                Simulation(trace, protocol_cls()).run()
                for trace in _twins(contacts)
            )
            assert col.num_contacts == mm.num_contacts
            assert col.end_time == mm.end_time
            assert col.channels_exhausted == mm.channels_exhausted
            assert dict(col.contacts_by_node) == dict(mm.contacts_by_node)
            assert col.bytes_transferred == mm.bytes_transferred

    def test_bsub_run_agrees(self):
        """A full B-SUB run replays identically from the mmap twin."""
        col = haggle_like(scale=0.01, seed=3).first_days(1.0)
        mm = _mmap_twin(col)
        spec = ExperimentSpec(
            protocol="B-SUB", ttl_min=120.0, num_bits=32, num_hashes=2
        )
        first, second = run(col, spec), run(mm, spec)
        assert first.engine.num_contacts == col.num_contacts
        assert first.engine.bytes_transferred == second.engine.bytes_transferred
        assert _summary_key(first.summary) == _summary_key(second.summary)


class _GeneralLoopPassive(PassiveProtocol):
    passive = False


def _summary_key(summary):
    return [
        (name, "nan" if isinstance(v, float) and math.isnan(v) else v)
        for name, v in sorted(vars(summary).items())
    ]


class TestBoundarySemantics:
    """slice/upto boundary rules, pinned identically for both stores.

    A contact sits in ``slice(t0, t1)`` iff ``t0 <= start < t1`` — the
    *end* of the window is exclusive and a contact whose start equals
    ``t1`` belongs to the next window, so adjacent windows partition a
    trace with no loss and no double-count.
    """

    CONTACTS = [
        Contact.make(start=0.0, duration=5.0, a=0, b=1),
        Contact.make(start=10.0, duration=5.0, a=1, b=2),
        Contact.make(start=10.0, duration=1.0, a=2, b=3),
        Contact.make(start=20.0, duration=5.0, a=3, b=4),
    ]

    @pytest.fixture(params=["columnar", "mmap"])
    def trace(self, request):
        trace = ContactTrace(self.CONTACTS, name="boundary")
        return trace if request.param == "columnar" else _mmap_twin(trace)

    def test_start_boundary_inclusive(self, trace):
        window = trace.slice(10.0, 20.0)
        assert [c.start for c in window] == [10.0, 10.0]

    def test_end_boundary_exclusive(self, trace):
        assert [c.start for c in trace.slice(0.0, 10.0)] == [0.0]
        assert [c.start for c in trace.slice(0.0, 20.0)] == [0.0, 10.0, 10.0]

    def test_adjacent_windows_partition(self, trace):
        edges = [0.0, 10.0, 20.0, 30.0]
        windows = [
            trace.slice(lo, hi) for lo, hi in zip(edges, edges[1:])
        ]
        recombined = [c for w in windows for c in w]
        assert recombined == list(trace)

    def test_upto_is_exclusive(self, trace):
        upto = trace._store.upto(10.0)
        assert [c.start for c in upto] == [0.0]

    def test_empty_window(self, trace):
        assert list(trace.slice(11.0, 11.0)) == []
        assert list(trace.slice(40.0, 50.0)) == []

    def test_row_slice_clamps(self, trace):
        store = trace._store
        assert len(store.row_slice(-5, 99)) == len(store)
        assert len(store.row_slice(2, 2)) == 0
        got = [c for c in store.row_slice(1, 3)]
        assert got == self.CONTACTS[1:3]
