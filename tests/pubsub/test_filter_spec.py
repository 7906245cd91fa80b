"""Integration tests: the filter zoo behind the protocol's relay seam.

Covers the ``filter_spec`` plumbing (config validation, node relay
construction, interest absorption, wire-size accounting) and the
attribution-mode adaptive controller wired into the replication path.
"""

import pytest

from repro.core.allocation import TCBFCollection
from repro.core.countbf import CountBF2D
from repro.core.retouched import RetouchedTCBF
from repro.dtn.events import MessageEvent
from repro.dtn.simulator import Simulation
from repro.pubsub.adaptive import AdaptiveDecayConfig, AdaptiveDecayController
from repro.pubsub.messages import Message
from repro.pubsub.metrics import MetricsCollector
from repro.pubsub.node import BsubNodeState
from repro.pubsub.protocol import BsubConfig, BsubProtocol

from ..conftest import make_trace


def build(interests, brokers, trace, messages=(), **config_overrides):
    config = BsubConfig(static_brokers=tuple(brokers), **config_overrides)
    metrics = MetricsCollector(interests, "B-SUB")
    protocol = BsubProtocol(interests, metrics, config)
    events = [
        MessageEvent(t, node, Message.create(key, node, t, ttl))
        for (t, node, key, ttl) in messages
    ]
    report = Simulation(trace, protocol, events, rate_bps=None).run()
    return protocol, metrics, report


def interests_for(num_nodes, overrides=None):
    interests = {n: frozenset() for n in range(num_nodes)}
    for node, keys in (overrides or {}).items():
        interests[node] = frozenset(keys)
    return interests


class TestConfigValidation:
    def test_bad_spec_fails_fast(self):
        with pytest.raises(ValueError, match="unknown filter backend"):
            BsubConfig(filter_spec="cuckoo")

    def test_raw_encoding_conflicts(self):
        with pytest.raises(ValueError, match="TCBF"):
            BsubConfig(interest_encoding="raw", filter_spec="array")

    def test_relay_fill_threshold_conflicts(self):
        with pytest.raises(ValueError, match="multi:threshold"):
            BsubConfig(relay_fill_threshold=0.3, filter_spec="multi")

    def test_node_state_rejects_both_selectors(self):
        from repro.core import HashFamily

        with pytest.raises(ValueError, match="mutually exclusive"):
            BsubNodeState(
                node_id=0,
                interests=frozenset(),
                family=HashFamily(4, 256),
                initial_value=50.0,
                decay_factor=0.0,
                copy_limit=4,
                relay_fill_threshold=0.3,
                filter_spec="multi",
            )


class TestRelayConstruction:
    @pytest.mark.parametrize(
        "spec, relay_type",
        [
            ("array", "TemporalCountingBloomFilter"),
            ("multi:keys=16,mem=512", "TCBFCollection"),
            ("retouched:clear=3+17", "RetouchedTCBF"),
            ("countbf", "CountBF2D"),
        ],
    )
    def test_states_use_selected_backend(self, spec, relay_type):
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {0: {"NewMoon"}})
        protocol, _, _ = build(interests, brokers=[1], trace=trace, filter_spec=spec)
        for state in protocol.states.values():
            assert type(state.relay).__name__ == relay_type

    def test_interest_absorbed_into_each_backend(self):
        for spec in ("array", "multi:keys=8,mem=512", "retouched:clear=3", "countbf"):
            trace = make_trace([(100.0, 10.0, 0, 1)])
            interests = interests_for(2, {0: {"NewMoon"}})
            protocol, _, _ = build(
                interests, brokers=[1], trace=trace, filter_spec=spec
            )
            assert protocol.states[1].relay.query("NewMoon"), spec

    def test_retouched_relay_ignores_cleared_interest(self):
        """An interest whose bits are all cleared cannot enter the relay."""
        from repro.core import HashFamily

        family = HashFamily(4, 256)
        bits = sorted(set(int(p) for p in family.positions("NewMoon")))
        spec = "retouched:clear=" + "+".join(str(b) for b in bits)
        trace = make_trace([(100.0, 10.0, 0, 1)])
        interests = interests_for(2, {0: {"NewMoon"}})
        protocol, _, _ = build(interests, brokers=[1], trace=trace, filter_spec=spec)
        relay = protocol.states[1].relay
        assert isinstance(relay, RetouchedTCBF)
        assert not relay.query("NewMoon")

    def test_three_hop_delivery_per_backend(self):
        """End-to-end delivery works across the whole zoo."""
        contacts = [
            (50.0, 10.0, 0, 1),  # consumer 0 announces to broker 1
            (100.0, 10.0, 2, 1),  # producer 2 injects to broker 1
            (150.0, 10.0, 1, 0),  # broker 1 delivers to consumer 0
        ]
        for spec in (
            None,
            "array",
            "multi:keys=8,mem=512",
            "retouched:clear=3",
            "countbf",
        ):
            trace = make_trace(contacts)
            interests = interests_for(3, {0: {"NewMoon"}})
            protocol, metrics, report = build(
                interests,
                brokers=[1],
                trace=trace,
                messages=[(90.0, 2, "NewMoon", 600.0)],
                filter_spec=spec,
            )
            summary = metrics.summary()
            assert summary.num_intended_deliveries == 1, spec


class TestWireSizeAccounting:
    def _relay_bytes(self, spec):
        # Two consumers announce in turn so a threshold-limited
        # collection splits into multiple constituent filters.
        contacts = [
            (50.0, 10.0, 0, 1),
            (60.0, 10.0, 3, 1),
            (100.0, 10.0, 1, 2),
        ]
        trace = make_trace(contacts)
        interests = interests_for(
            4,
            {
                0: {f"key-a{i}" for i in range(15)},
                3: {f"key-b{i}" for i in range(15)},
            },
        )
        protocol, metrics, report = build(
            interests, brokers=[1, 2], trace=trace, filter_spec=spec
        )
        return report.bytes_transferred

    def test_backend_choice_changes_accounted_bytes(self):
        sizes = {
            spec: self._relay_bytes(spec)
            for spec in ("array", "multi:threshold=0.1", "countbf")
        }
        assert all(size > 0 for size in sizes.values())
        # A split collection pays per-constituent headers/sparser
        # encodings, so its accounted bytes must differ from the single
        # filter's.
        assert sizes["multi:threshold=0.1"] != sizes["array"]
        # A 256-cell grid and a 256-bit TCBF cost the same under the
        # Sec. VI-C compact model (1-byte locations either way) but
        # carry different occupancy for the same keys.
        assert sizes["countbf"] != sizes["array"]

    def test_array_spec_matches_default_accounting(self):
        assert self._relay_bytes("array") == self._relay_bytes(None)


class TestAttributionController:
    def test_observe_inert_in_attribution_mode(self):
        config = AdaptiveDecayConfig(mode="attribution")
        controller = AdaptiveDecayController(config, initial_df_per_s=0.1)
        from repro.core.tcbf import TemporalCountingBloomFilter

        relay = TemporalCountingBloomFilter()
        relay.insert("k")
        assert controller.observe(relay, now=1e6) is False
        assert controller.adjustments == 0

    def test_record_injection_raises_df_on_false_floods(self):
        config = AdaptiveDecayConfig(
            mode="attribution",
            target_false_ratio=0.2,
            min_injections=10,
            interval_s=100.0,
        )
        controller = AdaptiveDecayController(config, initial_df_per_s=0.1)
        from repro.core.tcbf import TemporalCountingBloomFilter

        relay = TemporalCountingBloomFilter()
        adjusted = False
        for i in range(10):
            adjusted |= controller.record_injection(True, 200.0 + i, relay)
        assert adjusted
        assert controller.df_per_s > 0.1
        assert relay.decay_factor == controller.df_per_s

    def test_record_injection_lowers_df_when_clean(self):
        config = AdaptiveDecayConfig(
            mode="attribution",
            target_false_ratio=0.2,
            min_injections=10,
            interval_s=100.0,
        )
        controller = AdaptiveDecayController(config, initial_df_per_s=0.1)
        from repro.core.tcbf import TemporalCountingBloomFilter

        relay = TemporalCountingBloomFilter()
        for i in range(10):
            controller.record_injection(False, 200.0 + i, relay)
        assert controller.df_per_s < 0.1

    def test_fill_ratio_mode_ignores_injections(self):
        config = AdaptiveDecayConfig(mode="fill_ratio")
        controller = AdaptiveDecayController(config, initial_df_per_s=0.1)
        from repro.core.tcbf import TemporalCountingBloomFilter

        relay = TemporalCountingBloomFilter()
        for i in range(100):
            assert controller.record_injection(True, 200.0 + i, relay) is False
        assert controller.df_per_s == 0.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveDecayConfig(mode="nonsense")
        with pytest.raises(ValueError):
            AdaptiveDecayConfig(mode="attribution", target_false_ratio=0.0)
        with pytest.raises(ValueError):
            AdaptiveDecayConfig(mode="attribution", min_injections=0)

    def test_protocol_feeds_controller_in_attribution_mode(self):
        """A producer flooding useless traffic drives the broker's DF up.

        The producer is its own only subscriber, so every replicated
        message is a guaranteed *useless* injection (genuinely matched
        by the relay, zero intended recipients) — the deterministic
        stand-in for Sec. VI-B false-positive traffic.
        """
        contacts = [(50.0, 10.0, 0, 1)]
        contacts += [(100.0 + 10 * i, 5.0, 2, 1) for i in range(30)]
        trace = make_trace(contacts)
        interests = interests_for(3, {0: {"wanted"}, 2: {"selfkey"}})
        messages = [
            (60.0 + 10 * i, 2, "selfkey", 2000.0) for i in range(30)
        ]
        adaptive = AdaptiveDecayConfig(
            mode="attribution",
            target_false_ratio=0.2,
            min_injections=5,
            interval_s=50.0,
        )
        protocol, _, _ = build(
            interests,
            brokers=[1],
            trace=trace,
            messages=messages,
            decay_factor_per_min=0.6,
            adaptive_df=adaptive,
        )
        controller = protocol.df_controllers[1]
        assert controller.adjustments >= 1
        assert controller.df_per_s > 0.01  # raised above initial 0.6/min


class TestZooRelayTypes:
    """The zoo types keep their class through the full protocol run."""

    def test_multi_collection_grows_under_load(self):
        trace = make_trace([(50.0 + i, 5.0, 0, 1) for i in range(3)])
        many = {f"key-{i}" for i in range(40)}
        interests = interests_for(2, {0: many})
        protocol, _, _ = build(
            interests, brokers=[1], trace=trace, filter_spec="multi:keys=8,mem=2048"
        )
        relay = protocol.states[1].relay
        assert isinstance(relay, TCBFCollection)
        assert len(relay.filters) >= 2

    def test_countbf_relay_counts_repeat_announcements(self):
        trace = make_trace(
            [(100.0, 10.0, 0, 1), (200.0, 10.0, 0, 1), (300.0, 10.0, 0, 1)]
        )
        interests = interests_for(2, {0: {"k"}})
        protocol, _, _ = build(
            interests, brokers=[1], trace=trace, filter_spec="countbf"
        )
        relay = protocol.states[1].relay
        assert isinstance(relay, CountBF2D)
        assert relay.min_counter("k") == pytest.approx(150.0)
