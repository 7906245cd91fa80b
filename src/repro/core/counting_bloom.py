"""Counting Bloom filter (paper Sec. III, after [22] Fan et al.).

The CBF associates a counter with each bit so that keys can be deleted:
insertion increments the counters at the key's hashed positions,
deletion decrements them, and a bit counts as *set* while its counter is
positive.  The paper presents the CBF only as background for the TCBF —
the TCBF reuses the counter layout but gives the counters an entirely
different meaning (remaining lifetime rather than reference count).

Repeated hash positions for one key are counted once per insertion, so
insert/delete of the same key always round-trips even when ``k`` probes
collide.

Counters live in an integer numpy vector
(:class:`~repro.core.stores.ArrayCounterStore`) with vectorized batch
queries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .bloom import BloomFilter
from .hashing import DEFAULT_SEED, HashFamily
from .params import resolve_param
from .stores import ArrayCounterStore

__all__ = ["CountingBloomFilter"]


class CountingBloomFilter:
    """A counting Bloom filter supporting insert, delete, and query.

    ``m`` / ``k`` are keyword-only paper-notation aliases for
    ``num_bits`` / ``num_hashes``.
    """

    __slots__ = ("family", "_store")

    def __init__(
        self,
        num_bits: Optional[int] = None,
        num_hashes: Optional[int] = None,
        seed: int = DEFAULT_SEED,
        family: Optional[HashFamily] = None,
        *,
        m: Optional[int] = None,
        k: Optional[int] = None,
    ):
        num_bits = resolve_param("num_bits", num_bits, "m", m, 256)
        num_hashes = resolve_param("num_hashes", num_hashes, "k", k, 4)
        self.family = family if family is not None else HashFamily(
            num_hashes, num_bits, seed
        )
        self._store = ArrayCounterStore(self.family.num_bits, integer=True)

    @property
    def num_bits(self) -> int:
        return self.family.num_bits

    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    def counter(self, position: int) -> int:
        """The counter value at *position* (0 if never set)."""
        if not 0 <= position < self.num_bits:
            raise IndexError(f"bit position {position} out of range")
        return int(self._store.get(position))

    def bit(self, position: int) -> bool:
        """Whether the bit at *position* is set (counter > 0)."""
        return self.counter(position) > 0

    def fill_ratio(self) -> float:
        """Fraction of bits with positive counters."""
        return self._store.count() / self.num_bits

    def __len__(self) -> int:
        """Number of set bits."""
        return self._store.count()

    def is_empty(self) -> bool:
        return self._store.is_empty()

    # -- mutation ------------------------------------------------------------

    def insert(self, key: str) -> None:
        """Insert *key*: increment the counter of each distinct hashed bit."""
        self._store.add_at(self.family.distinct_positions(key), 1)

    def insert_all(self, keys: Iterable[str]) -> None:
        for key in keys:
            self.insert(key)

    def delete(self, key: str) -> None:
        """Delete one insertion of *key*.

        Raises
        ------
        KeyError
            If any of the key's bits already has a zero counter, i.e. the
            key is definitely not present.  (Deleting a key that was
            never inserted but happens to be a false positive silently
            corrupts a CBF; callers should query first — the classic CBF
            caveat.)
        """
        positions = self.family.distinct_positions(key)
        if not self._store.query(positions):
            raise KeyError(f"key {key!r} is not present in the filter")
        self._store.add_at(positions, -1)

    def clear(self) -> None:
        self._store.clear()

    # -- queries ---------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self.query(key)

    def query(self, key: str) -> bool:
        """Membership query (same FPR as the classic BF)."""
        return self._store.query(self.family.positions(key))

    def query_all(self, keys: Iterable[str]) -> List[str]:
        keys = list(keys)
        hits = self.query_batch(keys)
        return [key for key, hit in zip(keys, hits) if hit]

    def query_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Membership queries for many keys as one boolean vector."""
        return self._store.query_rows(self.family.positions_batch(list(keys)))

    def min_counter(self, key: str) -> int:
        """Minimum counter among *key*'s hashed bits.

        An upper bound on how many times *key* was inserted.
        """
        return int(self._store.min(self.family.positions(key)))

    def min_counter_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Minimum counters for many keys as one vector."""
        return self._store.min_rows(self.family.positions_batch(list(keys)))

    # -- conversion ---------------------------------------------------------------

    def to_bloom(self) -> BloomFilter:
        """The plain Bloom filter with the same set bits."""
        return BloomFilter.from_bits(self._store.positions(), self.family)

    @classmethod
    def of(
        cls,
        keys: Iterable[str],
        num_bits: int = 256,
        num_hashes: int = 4,
        seed: int = DEFAULT_SEED,
        family: Optional[HashFamily] = None,
    ) -> "CountingBloomFilter":
        cbf = cls(num_bits, num_hashes, seed, family=family)
        cbf.insert_all(keys)
        return cbf

    def copy(self) -> "CountingBloomFilter":
        clone = CountingBloomFilter(family=self.family)
        clone._store = self._store.copy()
        return clone

    def counters(self) -> Dict[int, int]:
        """A snapshot {position: count} of the set bits."""
        return {p: int(v) for p, v in self._store.as_dict().items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountingBloomFilter):
            return NotImplemented
        return self.family == other.family and self.counters() == other.counters()

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(m={self.num_bits}, k={self.num_hashes}, "
            f"set_bits={len(self)})"
        )
