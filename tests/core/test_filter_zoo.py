"""Unit tests for the filter registry, spec grammar, and wire envelope."""

import pytest

from repro.core import HashFamily
from repro.core.allocation import TCBFCollection
from repro.core.countbf import CountBF2D
from repro.core.filter_zoo import (
    FILTER_BACKENDS,
    decode_filter,
    encode_filter,
    load_keys,
    make_relay_filter,
    parse_filter_spec,
    registered_backends,
)
from repro.core.retouched import RetouchedTCBF
from repro.core.tcbf import TemporalCountingBloomFilter

FAMILY = HashFamily(4, 256, 0xF17E)
KEYS = [f"k{i}" for i in range(8)]


class TestRegistry:
    def test_registry_metadata_complete(self):
        assert registered_backends() == tuple(FILTER_BACKENDS)
        for name, spec in FILTER_BACKENDS.items():
            assert spec.name == name
            assert spec.summary
            assert callable(spec.factory)
            for param, doc in spec.params:
                assert param and doc

    def test_factories_build_expected_types(self):
        expected = {
            "array": TemporalCountingBloomFilter,
            "multi": TCBFCollection,
            "retouched": RetouchedTCBF,
            "countbf": CountBF2D,
        }
        for name, cls in expected.items():
            filt = make_relay_filter(name, family=FAMILY)
            assert type(filt) is cls, name


class TestSpecGrammar:
    def test_bare_name(self):
        assert parse_filter_spec("array") == ("array", {})
        assert parse_filter_spec(" countbf ") == ("countbf", {})

    def test_params(self):
        name, params = parse_filter_spec("multi:keys=38,mem=384")
        assert name == "multi"
        assert params == {"keys": "38", "mem": "384"}
        name, params = parse_filter_spec("retouched:clear=3+17")
        assert params == {"clear": "3+17"}

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown filter backend"):
            parse_filter_spec("cuckoo")

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            parse_filter_spec("countbf:cols=9")

    def test_malformed_token(self):
        with pytest.raises(ValueError):
            parse_filter_spec("multi:keys")
        with pytest.raises(ValueError):
            parse_filter_spec("")

    def test_make_with_params(self):
        multi = make_relay_filter("multi:keys=16,mem=512", family=FAMILY)
        assert isinstance(multi, TCBFCollection)
        retouched = make_relay_filter("retouched:clear=3+17", family=FAMILY)
        assert retouched.cleared_bits == frozenset({3, 17})
        grid = make_relay_filter("countbf:rows=8", family=FAMILY)
        assert grid.rows == 8

    def test_multi_threshold_override(self):
        filt = make_relay_filter("multi:threshold=0.25", family=FAMILY)
        assert isinstance(filt, TCBFCollection)
        assert filt.fill_ratio_threshold == pytest.approx(0.25)

    def test_explicit_family_wins(self):
        filt = make_relay_filter("array", family=FAMILY, num_bits=64, num_hashes=2)
        assert filt.family.num_bits == FAMILY.num_bits
        assert filt.family.num_hashes == FAMILY.num_hashes


class TestLoadKeys:
    @pytest.mark.parametrize("backend", registered_backends())
    def test_load_keys_uses_best_available_hook(self, backend):
        filt = make_relay_filter(backend, family=FAMILY)
        load_keys(filt, KEYS)
        assert all(bool(b) for b in filt.query_batch(KEYS))


class TestWireEnvelope:
    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            decode_filter(b"", family=FAMILY)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            decode_filter(b"\x7f" + b"\x00" * 16, family=FAMILY)

    @pytest.mark.parametrize("backend", registered_backends())
    def test_corrupt_tail_rejected(self, backend):
        filt = make_relay_filter(backend, family=FAMILY)
        load_keys(filt, KEYS)
        frame = encode_filter(filt)
        with pytest.raises(ValueError):
            decode_filter(frame + b"\x00\x01\x02", family=FAMILY)

    def test_retouched_tag_precedes_plain_tcbf(self):
        """Subclass check ordering: retouched must not encode as 0x10."""
        filt = make_relay_filter("retouched:clear=5", family=FAMILY)
        load_keys(filt, KEYS)
        frame = encode_filter(filt)
        decoded = decode_filter(frame, family=FAMILY)
        assert isinstance(decoded, RetouchedTCBF)
        assert decoded.cleared_bits == frozenset({5})

    def test_decoded_collection_preserves_structure(self):
        filt = make_relay_filter("multi:keys=16,mem=512", family=FAMILY)
        load_keys(filt, KEYS)
        decoded = decode_filter(encode_filter(filt), family=FAMILY)
        assert isinstance(decoded, TCBFCollection)
        assert len(decoded.filters) == len(filt.filters)
        assert decoded.fill_ratio_threshold == pytest.approx(filt.fill_ratio_threshold)

    def test_decoded_countbf_preserves_grid(self):
        filt = make_relay_filter("countbf:rows=8", family=FAMILY)
        load_keys(filt, KEYS)
        decoded = decode_filter(encode_filter(filt), family=FAMILY)
        assert isinstance(decoded, CountBF2D)
        assert decoded.rows == 8
        assert decoded.cols == filt.cols

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            encode_filter(object())
