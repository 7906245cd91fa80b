"""Each correctness gate accepts honest output and rejects tampering."""

from dataclasses import replace

import pytest

from gates import DeliveryTally, check_fanout, check_loopback, check_sim
from repro.pubsub.metrics import MetricsSummary
from sim import PINNED


def _summary(**changes):
    return replace(MetricsSummary(**PINNED["sim-bsub-haggle"]), **changes)


def test_sim_gate_accepts_the_pinned_summary():
    verdict = check_sim([_summary(), _summary()], 100,
                        PINNED["sim-bsub-haggle"])
    assert verdict.ok and verdict.failed == 0


@pytest.mark.parametrize("tampered", [
    _summary(num_deliveries=46030),  # intended + false != total
    _summary(delivery_ratio=0.7),  # differs from the pinned value
])
def test_sim_gate_rejects_a_tampered_summary(tampered):
    verdict = check_sim([tampered], 100, PINNED["sim-bsub-haggle"])
    assert not verdict.ok and verdict.failed == 100


def test_sim_gate_rejects_nondeterminism_without_a_pin():
    verdict = check_sim([_summary(), _summary(mean_delay_s=1.0)], 100)
    assert not verdict.ok
    assert "differs" in verdict.problems[0]


def _tally(delivered):
    tally = DeliveryTally()
    tally.add([(1, 10), (2, 10), (3, 10)], delivered)
    return tally


def test_fanout_gate_accepts_exactly_once_delivery():
    verdict = check_fanout(_tally([(3, 10), (1, 10), (2, 10)]), 3)
    assert verdict.ok and verdict.attempted == 3 and verdict.failed == 0


@pytest.mark.parametrize("delivered, total", [
    ([(1, 10), (2, 10)], 2),  # one recipient missing
    ([(1, 10), (2, 10), (3, 10), (3, 10)], 4),  # one duplicate
    ([(1, 10), (2, 10), (3, 10), (4, 10)], 4),  # one not intended
    ([(1, 10), (2, 10), (3, 10)], 4),  # broker counter disagrees
])
def test_fanout_gate_rejects_tampered_deliveries(delivered, total):
    verdict = check_fanout(_tally(delivered), total)
    assert not verdict.ok and verdict.failed >= 1


def _parity(**changes):
    parity = {
        "messages_created": 3, "intended_pairs": 3, "forwards_direct": 3,
        "deliveries_total": 3, "deliveries_intended": 3,
        "deliveries_false": 0,
    }
    parity.update(changes)
    return parity


def _analysis(parity):
    return {
        "messages": {"created": parity["messages_created"],
                     "intended_pairs": parity["intended_pairs"]},
        "forwards": {"direct": parity["forwards_direct"]},
        "deliveries": {"total": parity["deliveries_total"],
                       "intended": parity["deliveries_intended"],
                       "false": parity["deliveries_false"]},
    }


def test_loopback_gate_accepts_matching_trace_and_deliveries():
    tally = _tally([(1, 10), (2, 10), (3, 10)])
    verdict = check_loopback(tally, _parity(), _analysis(_parity()))
    assert verdict.ok


def test_loopback_gate_rejects_a_trace_that_disagrees_with_the_counters():
    tally = _tally([(1, 10), (2, 10), (3, 10)])
    verdict = check_loopback(
        tally, _parity(), _analysis(_parity(deliveries_total=2))
    )
    assert not verdict.ok and "deliveries_total" in verdict.problems[0]


def test_loopback_gate_rejects_lost_decodes_and_connect_failures():
    tally = _tally([(1, 10), (2, 10)])
    tally.decode_errors = 1
    verdict = check_loopback(
        tally, _parity(), _analysis(_parity()), connect_failures=1
    )
    assert not verdict.ok and verdict.failed == 3
