"""Model-based testing of the filters against naive reference machines.

The production filters keep numpy stores with lazy decay and
vectorised batch paths (``arm_rows`` / ``query_rows`` / ``min_rows``);
the references below are the most literal possible readings of
Sec. III–IV — plain Python lists and sets with eager, per-position
updates.  Hypothesis drives random operation sequences against each
pair and checks they never diverge, on the scalar and the batch APIs,
with and without decay.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.bloom import BloomFilter
from repro.core.counting_bloom import CountingBloomFilter
from repro.core.hashing import HashFamily
from repro.core.tcbf import TemporalCountingBloomFilter

FAMILY = HashFamily(num_hashes=3, num_bits=48, seed=77)  # small m -> collisions
INITIAL = 20.0
KEYS = [f"key-{i}" for i in range(12)]


class NaiveTCBF:
    """Dense-array reference implementation (eager, no cleverness)."""

    def __init__(self):
        self.counts = [0.0] * FAMILY.num_bits

    def insert(self, key):
        for p in set(FAMILY.positions(key)):
            if self.counts[p] <= 0.0:
                self.counts[p] = INITIAL

    def refresh(self, key):
        for p in set(FAMILY.positions(key)):
            self.counts[p] = INITIAL

    def decay(self, amount):
        self.counts = [
            c - amount if c - amount > 0.0 else 0.0 for c in self.counts
        ]

    def _operand(self, keys, lag):
        """Counters of a fresh filter of *keys*, aged by *lag* on arrival."""
        value = INITIAL - lag
        other = [0.0] * FAMILY.num_bits
        if value > 0.0:
            for key in keys:
                for p in FAMILY.positions(key):
                    other[p] = value
        return other

    def a_merge(self, keys, lag=0.0):
        other = self._operand(keys, lag)
        self.counts = [a + b for a, b in zip(self.counts, other)]

    def m_merge(self, keys, lag=0.0):
        other = self._operand(keys, lag)
        self.counts = [max(a, b) for a, b in zip(self.counts, other)]

    def query(self, key):
        return all(self.counts[p] > 0.0 for p in FAMILY.positions(key))

    def min_counter(self, key):
        return min(self.counts[p] for p in FAMILY.positions(key))

    def set_positions(self):
        return {p for p, c in enumerate(self.counts) if c > 0.0}


class TCBFMachine(RuleBasedStateMachine):
    DECAY_FACTOR = 0.0

    def __init__(self):
        super().__init__()
        self.real = TemporalCountingBloomFilter(
            family=FAMILY, initial_value=INITIAL, decay_factor=self.DECAY_FACTOR
        )
        self.model = NaiveTCBF()
        self.merged = False

    @rule(key=st.sampled_from(KEYS))
    def insert(self, key):
        if self.merged:
            with pytest.raises(RuntimeError):
                self.real.insert(key)
            return
        self.real.insert(key)
        self.model.insert(key)

    @rule(keys=st.lists(st.sampled_from(KEYS), max_size=6))
    def insert_batch(self, keys):
        if self.merged:
            with pytest.raises(RuntimeError):
                self.real.insert_batch(keys)
            return
        self.real.insert_batch(keys)
        for key in keys:
            self.model.insert(key)

    @rule(key=st.sampled_from(KEYS))
    def refresh(self, key):
        if self.merged:
            return
        self.real.refresh(key)
        self.model.refresh(key)

    @rule(amount=st.floats(0.0, 15.0))
    def decay(self, amount):
        self.real.decay(amount)
        self.model.decay(amount)

    @rule(keys=st.sets(st.sampled_from(KEYS), max_size=4))
    def a_merge(self, keys):
        operand = TemporalCountingBloomFilter.of(
            keys, family=FAMILY, initial_value=INITIAL, time=self.real.time
        )
        self.real.a_merge(operand)
        self.model.a_merge(keys)
        self.merged = True

    @rule(keys=st.sets(st.sampled_from(KEYS), max_size=4))
    def m_merge(self, keys):
        operand = TemporalCountingBloomFilter.of(
            keys, family=FAMILY, initial_value=INITIAL, time=self.real.time
        )
        self.real.m_merge(operand)
        self.model.m_merge(keys)
        self.merged = True

    @rule(dt=st.floats(0.0, 10.0))
    def advance(self, dt):
        """Lazy decay: moving the clock by dt decays by DF * dt (none at DF = 0)."""
        now = self.real.time + dt
        elapsed = now - self.real.time
        self.real.advance(now)
        self.model.decay(self.DECAY_FACTOR * elapsed)

    @invariant()
    def same_set_bits(self):
        assert set(self.real) == self.model.set_positions()

    @invariant()
    def same_counters(self):
        for position, value in self.real.items():
            assert value == pytest.approx(self.model.counts[position])

    @invariant()
    def same_query_answers(self):
        for key in KEYS:
            assert self.real.query(key) == self.model.query(key)
            assert self.real.min_counter(key) == pytest.approx(
                self.model.min_counter(key)
            )

    @invariant()
    def same_batch_answers(self):
        hits = self.real.query_batch(KEYS)
        mins = self.real.min_counter_batch(KEYS)
        assert hits.tolist() == [self.model.query(k) for k in KEYS]
        assert mins == pytest.approx(
            [self.model.min_counter(k) for k in KEYS]
        )


TestTCBFAgainstModel = TCBFMachine.TestCase
TestTCBFAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


class DecayingTCBFMachine(TCBFMachine):
    """DF > 0, plus merges of operands stamped off the filter's clock.

    An operand from the future first advances (and so decays) the
    filter to the operand's time; one from the past arrives aged by
    its own DF times the lag (Sec. IV-B).
    """

    DECAY_FACTOR = 1.0
    OPERAND_DF = 1.5

    @rule(
        keys=st.sets(st.sampled_from(KEYS), max_size=4),
        offset=st.floats(-10.0, 10.0),
        additive=st.booleans(),
    )
    def merge_off_clock(self, keys, offset, additive):
        stamped = self.real.time + offset
        operand = TemporalCountingBloomFilter.of(
            keys,
            family=FAMILY,
            initial_value=INITIAL,
            decay_factor=self.OPERAND_DF,
            time=stamped,
        )
        if stamped > self.real.time:
            self.model.decay(self.DECAY_FACTOR * (stamped - self.real.time))
            now = stamped
        else:
            now = self.real.time
        lag = self.OPERAND_DF * (now - stamped)
        if additive:
            self.real.a_merge(operand)
            self.model.a_merge(keys, lag)
        else:
            self.real.m_merge(operand)
            self.model.m_merge(keys, lag)
        self.merged = True

    @invariant()
    def same_merged_flag(self):
        assert self.real.merged == self.merged


TestDecayingTCBFAgainstModel = DecayingTCBFMachine.TestCase
TestDecayingTCBFAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


class NaiveCBF:
    """Reference counting BF: one int per position, eager add/delete."""

    def __init__(self):
        self.counts = [0] * FAMILY.num_bits

    def insert(self, key):
        for p in set(FAMILY.positions(key)):
            self.counts[p] += 1

    def delete(self, key):
        positions = set(FAMILY.positions(key))
        if any(self.counts[p] == 0 for p in positions):
            raise KeyError(key)
        for p in positions:
            self.counts[p] -= 1

    def query(self, key):
        return all(self.counts[p] > 0 for p in FAMILY.positions(key))

    def min_counter(self, key):
        return min(self.counts[p] for p in FAMILY.positions(key))

    def counters(self):
        return {p: c for p, c in enumerate(self.counts) if c > 0}


class CBFMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = CountingBloomFilter(family=FAMILY)
        self.model = NaiveCBF()

    @rule(key=st.sampled_from(KEYS))
    def insert(self, key):
        self.real.insert(key)
        self.model.insert(key)

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        try:
            self.model.delete(key)
        except KeyError:
            with pytest.raises(KeyError):
                self.real.delete(key)
        else:
            self.real.delete(key)

    @invariant()
    def same_counters(self):
        assert self.real.counters() == self.model.counters()
        assert len(self.real) == len(self.model.counters())

    @invariant()
    def same_query_answers(self):
        hits = self.real.query_batch(KEYS)
        mins = self.real.min_counter_batch(KEYS)
        for i, key in enumerate(KEYS):
            assert self.real.query(key) == bool(hits[i]) == self.model.query(key)
            assert (
                self.real.min_counter(key) == int(mins[i])
                == self.model.min_counter(key)
            )


TestCBFAgainstModel = CBFMachine.TestCase
TestCBFAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


class BFMachine(RuleBasedStateMachine):
    """Plain BF against a Python set of positions (insert / union)."""

    def __init__(self):
        super().__init__()
        self.real = BloomFilter(family=FAMILY)
        self.model = set()

    @rule(key=st.sampled_from(KEYS))
    def insert(self, key):
        self.real.insert(key)
        self.model.update(FAMILY.positions(key))

    @rule(keys=st.lists(st.sampled_from(KEYS), max_size=6))
    def insert_batch(self, keys):
        self.real.insert_batch(keys)
        for key in keys:
            self.model.update(FAMILY.positions(key))

    @rule(keys=st.lists(st.sampled_from(KEYS), max_size=6))
    def union(self, keys):
        self.real = self.real.union(BloomFilter.of(keys, family=FAMILY))
        for key in keys:
            self.model.update(FAMILY.positions(key))

    @invariant()
    def same_bits(self):
        assert self.real.set_bits == frozenset(self.model)

    @invariant()
    def same_query_answers(self):
        expected = [set(FAMILY.positions(k)) <= self.model for k in KEYS]
        assert self.real.query_batch(KEYS).tolist() == expected
        assert [self.real.query(k) for k in KEYS] == expected


TestBFAgainstModel = BFMachine.TestCase
TestBFAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
