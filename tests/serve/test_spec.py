"""ServeSpec / LoadSpec: parse grammar, aliases, validation, derivation."""

import dataclasses

import pytest

from repro.faults.spec import FaultSpec
from repro.serve.spec import (
    ARRIVAL_PROFILES,
    MATCHING_MODES,
    LoadSpec,
    ServeSpec,
)


class TestServeSpecParse:
    def test_defaults(self):
        spec = ServeSpec()
        assert spec.host == "127.0.0.1"
        assert spec.port == 7410
        assert spec.matching == "exact"
        assert spec.metrics_port is None
        assert spec.faults is None

    def test_parse_round_trip(self):
        spec = ServeSpec.parse(
            "port=0,matching=bloom,num_bits=512,idle_timeout_s=30"
        )
        assert spec.port == 0
        assert spec.matching == "bloom"
        assert spec.num_bits == 512
        assert spec.idle_timeout_s == 30.0

    def test_paper_aliases_resolve(self):
        # m/k/df mean the same thing in every spec string the project
        # accepts (core.params.SPEC_KEY_ALIASES).
        spec = ServeSpec.parse("m=512,k=6,df=0.5")
        assert spec.num_bits == 512
        assert spec.num_hashes == 6
        assert spec.df_per_min == 0.5

    def test_nested_fault_grammar(self):
        spec = ServeSpec.parse("port=0,faults=loss:0.1+seed:3")
        assert isinstance(spec.faults, FaultSpec)
        assert spec.faults.frame_loss == 0.1
        assert spec.faults.seed == 3

    def test_none_values(self):
        spec = ServeSpec.parse("metrics_port=none,max_sessions=off")
        assert spec.metrics_port is None
        assert spec.max_sessions is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ServeSpec key"):
            ServeSpec.parse("bogus=1")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            ServeSpec.parse("port")


class TestServeSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(port=70000), "port"),
            (dict(num_bits=1), "num_bits"),
            (dict(num_hashes=0), "num_hashes"),
            (dict(initial_value=0.0), "initial_value"),
            (dict(df_per_min=-1.0), "df_per_min"),
            (dict(matching="fuzzy"), "matching"),
            (dict(idle_timeout_s=0.0), "idle_timeout_s"),
            (dict(max_frame_bytes=8), "max_frame_bytes"),
            (dict(max_sessions=0), "max_sessions"),
        ],
    )
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServeSpec(**kwargs)

    def test_faults_type_checked(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            ServeSpec(faults="loss=0.1")

    def test_live_needs_a_trace_path(self):
        # The live tailer reads the broker's trace stream: a live spec
        # with nothing to tail is rejected, never silently inert.
        with pytest.raises(ValueError, match="trace_path"):
            ServeSpec(live=True)
        with pytest.raises(ValueError, match="trace_path"):
            ServeSpec.parse("port=0,live=true")
        with pytest.raises(ValueError, match="trace_path"):
            ServeSpec().with_live(True)
        with pytest.raises(ValueError, match="trace_path"):
            ServeSpec(trace_path="t.jsonl", live=True).with_trace(None)
        assert ServeSpec().with_trace("t.jsonl").with_live(True).live

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServeSpec().port = 9


class TestServeSpecHelpers:
    def test_with_helpers_derive(self):
        spec = (
            ServeSpec()
            .with_port(0)
            .with_metrics_port(0)
            .with_matching("bloom")
            .with_filter("multi:mem=384")
            .with_trace("/tmp/t.jsonl")
        )
        assert (spec.port, spec.metrics_port) == (0, 0)
        assert spec.matching == "bloom"
        assert spec.filter_spec == "multi:mem=384"
        assert spec.trace_path == "/tmp/t.jsonl"
        # Derivation never mutates the source.
        assert ServeSpec().port == 7410

    def test_describe_mentions_the_load_bearing_knobs(self):
        text = ServeSpec(
            metrics_port=9100,
            faults=FaultSpec(frame_loss=0.1),
            trace_path="x.jsonl",
        ).describe()
        for token in ("matching=exact", "m=256", "k=4", "metrics:9100",
                      "faults[", "trace=x.jsonl"):
            assert token in text, token


class TestLoadSpec:
    def test_defaults_and_publishers(self):
        spec = LoadSpec()
        assert spec.sessions == 100
        assert spec.num_publishers == 10
        assert LoadSpec(sessions=3, publisher_fraction=0.0).num_publishers == 1

    def test_parse_with_aliases_and_faults(self):
        spec = LoadSpec.parse(
            "sessions=500,duration_s=30,arrival=conference,"
            "m=512,faults=trunc:0.2+seed:9"
        )
        assert spec.sessions == 500
        assert spec.arrival == "conference"
        assert spec.num_bits == 512
        assert spec.faults.truncation == 0.2

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(sessions=0), "sessions"),
            (dict(publisher_fraction=1.5), "publisher_fraction"),
            (dict(duration_s=0.0), "duration_s"),
            (dict(publish_rate_per_s=0.0), "publish_rate_per_s"),
            (dict(arrival="nightly"), "arrival"),
            (dict(interests_per_node=0), "interests_per_node"),
            (dict(keys_per_message=0), "keys_per_message"),
            (dict(ttl_s=0.0), "ttl_s"),
            (dict(size_bytes=0), "size_bytes"),
        ],
    )
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LoadSpec(**kwargs)

    def test_with_helpers(self):
        spec = (
            LoadSpec()
            .with_target("10.0.0.1", 9000)
            .with_sessions(5)
            .with_duration(2.0)
            .with_seed(42)
        )
        assert (spec.host, spec.port) == ("10.0.0.1", 9000)
        assert (spec.sessions, spec.duration_s, spec.seed) == (5, 2.0, 42)

    def test_every_arrival_profile_is_known(self):
        for name in ARRIVAL_PROFILES:
            assert LoadSpec(arrival=name).arrival == name

    def test_every_matching_mode_is_known(self):
        for name in MATCHING_MODES:
            assert ServeSpec(matching=name).matching == name


class TestParseTableCoversFields:
    """Every dataclass field stays reachable from the CLI grammar."""

    @pytest.mark.parametrize("cls", [ServeSpec, LoadSpec])
    def test_parse_fields_match_dataclass(self, cls):
        names = {f.name for f in dataclasses.fields(cls)}
        assert set(cls._PARSE_FIELDS) == names


class TestFleetSpecFields:
    """The fleet knobs added for multi-worker serving."""

    def test_workers_default_is_single_process(self):
        spec = ServeSpec()
        assert spec.workers == 1
        assert spec.state_dir is None

    def test_parse_workers_and_state_dir(self):
        spec = ServeSpec.parse("workers=4,state_dir=/tmp/state")
        assert spec.workers == 4
        assert spec.state_dir == "/tmp/state"

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            ServeSpec(workers=0)

    def test_with_workers_replaces_both(self):
        spec = ServeSpec().with_workers(2, "/tmp/s")
        assert (spec.workers, spec.state_dir) == (2, "/tmp/s")
        assert ServeSpec().workers == 1

    def test_describe_mentions_fleet_only_when_active(self):
        assert "workers=" not in ServeSpec().describe()
        text = ServeSpec(workers=3, state_dir="/tmp/s").describe()
        assert "workers=3" in text
        assert "state=/tmp/s" in text


class TestLoadShardingFields:
    """node_offset / ramp_s: sharding one workload across drivers."""

    def test_defaults(self):
        spec = LoadSpec()
        assert spec.node_offset == 0
        assert spec.ramp_s is None

    def test_parse_offset_and_ramp(self):
        spec = LoadSpec.parse("node_offset=1000,ramp_s=5")
        assert spec.node_offset == 1000
        assert spec.ramp_s == 5.0

    def test_ramp_none_spelling(self):
        assert LoadSpec.parse("ramp_s=none").ramp_s is None

    def test_node_offset_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="node_offset"):
            LoadSpec(node_offset=-1)

    def test_ramp_must_be_positive_when_set(self):
        with pytest.raises(ValueError, match="ramp_s"):
            LoadSpec(ramp_s=0.0)

    def test_bind_host_defaults_to_kernel_choice(self):
        assert LoadSpec().bind_host is None

    def test_parse_bind_host(self):
        spec = LoadSpec.parse("bind_host=127.0.0.12")
        assert spec.bind_host == "127.0.0.12"

    def test_bind_host_none_spelling(self):
        assert LoadSpec.parse("bind_host=none").bind_host is None

    def test_bind_host_rejects_blank(self):
        with pytest.raises(ValueError, match="bind_host"):
            LoadSpec(bind_host="  ")
