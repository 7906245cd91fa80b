"""The passive fast path must be indistinguishable from the full loop.

``Simulation.run`` takes an array-level shortcut for passive protocols
(no handlers, no workload, no recorder, no faults).  These tests pin
that the shortcut produces the exact report the general event loop
would, and that every condition that disqualifies the shortcut really
routes through the general loop.
"""

import pytest

from repro.dtn import MessageEvent, PassiveProtocol, Simulation
from repro.dtn.simulator import SimulationReport
from repro.obs import Observability
from repro.traces import (
    ContactTrace,
    haggle_like,
    open_trace_dataset,
    save_trace_dataset,
)
from repro.traces.model import Contact

#: Where a replica's contacts live: built in memory, or opened from a
#: dataset on disk (memory-mapped).
STORES = ("columnar", "mmap")


def _replica(trace, store, tmp_path):
    if store == "columnar":
        return trace
    return open_trace_dataset(save_trace_dataset(trace, tmp_path / "ds"))


class _PassiveViaGeneralLoop(PassiveProtocol):
    """Handler-free protocol that is *not* flagged passive.

    Runs through the general per-contact loop, giving the ground-truth
    report the fast path must reproduce.
    """

    name = "PASSIVE-GENERAL"
    passive = False


def _reports_equal(first: SimulationReport, second: SimulationReport):
    assert first.num_contacts == second.num_contacts
    assert first.num_messages_created == second.num_messages_created
    assert first.end_time == second.end_time
    assert first.bytes_transferred == second.bytes_transferred
    assert first.refused_transfers == second.refused_transfers
    assert first.channels_exhausted == second.channels_exhausted
    assert dict(first.contacts_by_node) == dict(second.contacts_by_node)
    assert dict(first.tx_bytes_by_node) == dict(second.tx_bytes_by_node)
    assert dict(first.rx_bytes_by_node) == dict(second.rx_bytes_by_node)


@pytest.fixture(scope="module")
def trace():
    return haggle_like(scale=0.01, seed=11)


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("rate_bps", [None, 64.0, 2.1e6 / 8])
def test_fast_path_matches_general_loop(trace, store, rate_bps, tmp_path):
    replica = _replica(trace, store, tmp_path)
    fast = Simulation(replica, PassiveProtocol(), rate_bps=rate_bps).run()
    slow = Simulation(
        replica, _PassiveViaGeneralLoop(), rate_bps=rate_bps
    ).run()
    _reports_equal(fast, slow)


@pytest.mark.parametrize("store", STORES)
def test_empty_trace(store, tmp_path):
    empty = _replica(ContactTrace([], nodes=range(4)), store, tmp_path)
    fast = Simulation(empty, PassiveProtocol()).run()
    slow = Simulation(empty, _PassiveViaGeneralLoop()).run()
    _reports_equal(fast, slow)
    assert fast.num_contacts == 0
    assert fast.end_time == 0.0


def test_negative_node_ids_counted_correctly():
    # The fast path's bincount shortcut needs dense non-negative ids;
    # negative ids must fall back to exact per-node counting.
    contacts = [
        Contact.make(0.0, 10.0, -3, 1),
        Contact.make(5.0, 10.0, -3, 2),
        Contact.make(7.0, 10.0, 1, 2),
    ]
    replica = ContactTrace(contacts)
    fast = Simulation(replica, PassiveProtocol()).run()
    slow = Simulation(replica, _PassiveViaGeneralLoop()).run()
    _reports_equal(fast, slow)
    assert dict(fast.contacts_by_node) == {-3: 2, 1: 2, 2: 2}


def test_recorder_disables_fast_path(trace):
    obs = Observability.enabled()
    recorded = Simulation(
        trace, PassiveProtocol(), recorder=obs.tracer
    ).run()
    plain = Simulation(trace, PassiveProtocol()).run()
    _reports_equal(recorded, plain)
    # The general loop emits one contact event per contact — proof the
    # run did not take the recorder-blind shortcut.
    assert len(obs.tracer.events_of("contact")) == trace.num_contacts


def test_workload_disables_fast_path(trace):
    events = [MessageEvent(time=0.0, node=0, message=object())]
    report = Simulation(trace, PassiveProtocol(), message_events=events).run()
    assert report.num_messages_created == 1
