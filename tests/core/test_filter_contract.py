"""Cross-filter conformance suite (the relay-filter contract).

One test definition, N backends: every backend registered in
:mod:`repro.core.filter_zoo` is subjected to the same insert/query,
merge, decay, batch-vs-scalar, wire round-trip, and copy-independence
laws via a single parametrized fixture.  Registering a new filter
backend automatically applies the whole matrix; conversely,
``test_conformance_matrix_covers_registry`` fails if the registry and
the matrix ever diverge.
"""

import numpy as np
import pytest

from repro.core import HashFamily
from repro.core.filter_zoo import (
    FILTER_BACKENDS,
    decode_filter,
    encode_filter,
    load_keys,
    make_relay_filter,
    registered_backends,
)
from repro.pubsub.adaptive import AdaptiveDecayConfig, AdaptiveDecayController

#: The conformance matrix — deliberately spelled out so that adding a
#: backend to the registry without thinking about conformance fails
#: the covers-registry test below rather than silently skipping it.
CONFORMANCE_MATRIX = ("array", "multi", "retouched", "countbf")

GEOM = dict(num_bits=256, num_hashes=4, seed=0x5B5B)
INITIAL = 50.0
KEYS = [f"topic-{i:02d}" for i in range(12)]
HALF_A, HALF_B = KEYS[:6], KEYS[6:]
PROBES = [f"absent-{i:02d}" for i in range(10)]
FAMILY = HashFamily(GEOM["num_hashes"], GEOM["num_bits"], GEOM["seed"])

#: Wire counters are 1 byte (quantised); worst-case half-step for the
#: counter magnitudes these tests produce (peaks <= 2C).
WIRE_ATOL = 2 * INITIAL / 255.0 * 0.51 + 1e-9


def fresh(backend: str, df: float = 0.0, time: float = 0.0):
    return make_relay_filter(
        backend,
        family=FAMILY,
        initial_value=INITIAL,
        decay_factor=df,
        time=time,
    )


def loaded(backend: str, keys=KEYS, df: float = 0.0):
    filt = fresh(backend, df=df)
    load_keys(filt, keys)
    return filt


@pytest.fixture(params=CONFORMANCE_MATRIX)
def backend(request):
    return request.param


def test_conformance_matrix_covers_registry():
    """Registry and conformance matrix must list the same backends."""
    assert tuple(registered_backends()) == CONFORMANCE_MATRIX
    assert set(FILTER_BACKENDS) == set(CONFORMANCE_MATRIX)


class TestEmptyAndLoad:
    def test_fresh_is_empty(self, backend):
        filt = fresh(backend)
        assert filt.is_empty()
        assert len(filt) == 0
        assert not any(filt.query_batch(KEYS))
        assert filt.min_counter(KEYS[0]) == 0.0

    def test_loaded_queries_true(self, backend):
        filt = loaded(backend)
        assert all(filt.query_batch(KEYS))
        assert all(filt.query(k) for k in KEYS)
        assert not filt.is_empty()
        assert len(filt) > 0
        for key in KEYS:
            assert filt.min_counter(key) >= INITIAL - 1e-9

    def test_fill_ratio_observable(self, backend):
        filt = loaded(backend)
        ratios = (
            filt.fill_ratios()
            if hasattr(filt, "fill_ratios")
            else [filt.fill_ratio()]
        )
        assert ratios
        for ratio in ratios:
            assert 0.0 <= ratio <= 1.0
        assert sum(ratios) > 0.0


class TestBatchEqualsScalar:
    def test_query_batch(self, backend):
        filt = loaded(backend, HALF_A)
        mixed = HALF_A + PROBES + HALF_B
        batch = filt.query_batch(mixed)
        scalar = [filt.query(k) for k in mixed]
        assert [bool(b) for b in batch] == scalar

    def test_min_counter_batch(self, backend):
        filt = loaded(backend, HALF_A)
        mixed = HALF_A + PROBES
        batch = filt.min_counter_batch(mixed)
        scalar = [filt.min_counter(k) for k in mixed]
        np.testing.assert_allclose(np.asarray(batch), scalar, rtol=0, atol=1e-12)

    def test_preference_batch(self, backend):
        mine = loaded(backend, KEYS)
        peer = loaded(backend, HALF_A)
        mixed = KEYS + PROBES
        batch = mine.preference_batch(mixed, peer)
        scalar = [mine.preference(k, peer) for k in mixed]
        np.testing.assert_allclose(np.asarray(batch), scalar, rtol=0, atol=1e-12)

    def test_preference_zero_rule(self, backend):
        """Sec. IV-A: b == 0 → preference is a, not a - 0 computed oddly."""
        mine = loaded(backend, KEYS)
        empty_peer = fresh(backend)
        for key in KEYS:
            assert mine.preference(key, empty_peer) == mine.min_counter(key)
        # Against itself every preference is exactly zero.
        np.testing.assert_allclose(
            np.asarray(mine.preference_batch(KEYS, mine)), 0.0, atol=1e-12
        )


class TestDecayLaws:
    def test_advance_decays_min_counters_linearly(self, backend):
        filt = loaded(backend, KEYS, df=0.1)
        before = np.asarray(filt.min_counter_batch(KEYS), dtype=float)
        filt.advance(100.0)  # 100 s at 0.1/s → counters shed exactly 10
        after = np.asarray(filt.min_counter_batch(KEYS), dtype=float)
        np.testing.assert_allclose(after, np.maximum(0.0, before - 10.0), atol=1e-9)

    def test_advance_far_empties(self, backend):
        filt = loaded(backend, KEYS, df=0.1)
        filt.advance(1e9)
        assert filt.is_empty()
        assert not any(filt.query_batch(KEYS))

    def test_advance_backwards_raises(self, backend):
        filt = loaded(backend, KEYS, df=0.1)
        filt.advance(500.0)
        with pytest.raises(ValueError):
            filt.advance(100.0)

    def test_zero_df_never_decays(self, backend):
        filt = loaded(backend, KEYS, df=0.0)
        filt.advance(1e9)
        assert all(filt.query_batch(KEYS))

    def test_controller_apply_retunes_decay(self, backend):
        """The Sec. VI-B controller can retarget any zoo relay's DF."""
        filt = loaded(backend, KEYS, df=0.0)
        controller = AdaptiveDecayController(
            AdaptiveDecayConfig(), initial_df_per_s=0.5
        )
        controller._apply(filt)
        assert filt.decay_factor == 0.5
        before = float(np.min(np.asarray(filt.min_counter_batch(KEYS))))
        filt.advance(10.0)  # 10 s at 0.5/s → shed 5
        after = float(np.min(np.asarray(filt.min_counter_batch(KEYS))))
        assert after == pytest.approx(max(0.0, before - 5.0), abs=1e-9)


class TestMergeLaws:
    def test_a_merge_unions_keys(self, backend):
        mine = loaded(backend, HALF_A)
        peer = loaded(backend, HALF_B)
        mine.a_merge(peer)
        assert all(mine.query_batch(KEYS))
        for key in HALF_B:
            assert mine.min_counter(key) >= INITIAL - 1e-9

    def test_a_merge_reinforces(self, backend):
        """Repeat announcements must not lower any counter (Sec. V-C)."""
        mine = loaded(backend, HALF_A)
        before = np.asarray(mine.min_counter_batch(HALF_A), dtype=float)
        mine.a_merge(loaded(backend, HALF_A))
        after = np.asarray(mine.min_counter_batch(HALF_A), dtype=float)
        assert (after >= before - 1e-9).all()

    def test_m_merge_never_decreases_counters(self, backend):
        mine = loaded(backend, HALF_A)
        peer = loaded(backend, KEYS)
        before = np.asarray(mine.min_counter_batch(KEYS), dtype=float)
        peer_minima = np.asarray(peer.min_counter_batch(KEYS), dtype=float)
        mine.m_merge(peer)
        after = np.asarray(mine.min_counter_batch(KEYS), dtype=float)
        assert (after >= before - 1e-9).all()
        # Max semantics: the merged view is at least as strong as the peer.
        assert (after >= peer_minima - 1e-9).all()

    def test_m_merge_self_copy_is_idempotent(self, backend):
        """Max-merging one's own snapshot changes nothing (Fig. 6 fix)."""
        mine = loaded(backend, KEYS)
        before = np.asarray(mine.min_counter_batch(KEYS), dtype=float)
        mine.m_merge(mine.copy())
        after = np.asarray(mine.min_counter_batch(KEYS), dtype=float)
        np.testing.assert_allclose(after, before, atol=1e-9)


class TestWireRoundTrip:
    def test_round_trip_preserves_queries_and_counters(self, backend):
        filt = loaded(backend, KEYS, df=0.25)
        frame = encode_filter(filt)
        assert isinstance(frame, bytes) and frame
        decoded = decode_filter(
            frame,
            family=FAMILY,
            initial_value=INITIAL,
            decay_factor=0.25,
            time=filt.time,
        )
        assert type(decoded) is type(filt)
        mixed = KEYS + PROBES
        assert [bool(b) for b in decoded.query_batch(mixed)] == [
            bool(b) for b in filt.query_batch(mixed)
        ]
        np.testing.assert_allclose(
            np.asarray(decoded.min_counter_batch(KEYS), dtype=float),
            np.asarray(filt.min_counter_batch(KEYS), dtype=float),
            atol=WIRE_ATOL,
        )

    def test_decoded_filter_keeps_decaying(self, backend):
        filt = loaded(backend, KEYS, df=0.1)
        decoded = decode_filter(
            encode_filter(filt),
            family=FAMILY,
            initial_value=INITIAL,
            decay_factor=0.1,
            time=filt.time,
        )
        decoded.advance(1e9)
        assert decoded.is_empty()

    def test_truncated_frame_raises(self, backend):
        frame = encode_filter(loaded(backend, KEYS))
        with pytest.raises(ValueError):
            decode_filter(frame[: max(1, len(frame) // 3)], family=FAMILY)


class TestCopySemantics:
    def test_copy_is_independent(self, backend):
        filt = loaded(backend, KEYS, df=0.1)
        clone = filt.copy()
        filt.advance(1e9)
        assert filt.is_empty()
        assert all(clone.query_batch(KEYS))
        assert clone.min_counter(KEYS[0]) >= INITIAL - 1e-9

    def test_copy_preserves_clock_and_df(self, backend):
        filt = loaded(backend, KEYS, df=0.25)
        filt.advance(40.0)
        clone = filt.copy()
        assert clone.time == filt.time
        assert clone.decay_factor == filt.decay_factor
        np.testing.assert_allclose(
            np.asarray(clone.min_counter_batch(KEYS), dtype=float),
            np.asarray(filt.min_counter_batch(KEYS), dtype=float),
            atol=1e-12,
        )
