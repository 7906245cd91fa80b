"""Classic Bloom filter (paper Sec. III).

A Bloom filter for a set of keys is an ``m``-bit vector; inserting a key
sets the ``k`` bits chosen by the hash family, and a membership query
checks that all ``k`` bits are set.  Queries for inserted keys always
return ``True``; queries for other keys return ``True`` with the
false-positive rate of Eq. 1.

In B-SUB the plain Bloom filter is the *wire format* for interest
exchange in producer/consumer meetings (Sec. V-D): the counters of a
TCBF are "ripped off" before transmission, leaving exactly this
structure.

Bits live in a dense boolean vector
(:class:`~repro.core.stores.ArrayBitStore`), and the batch APIs
(:meth:`BloomFilter.insert_batch`, :meth:`BloomFilter.query_batch`)
answer many keys per call — the hot path for broker message matching.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .hashing import DEFAULT_SEED, HashFamily
from .params import resolve_param
from .stores import ArrayBitStore

__all__ = ["BloomFilter"]


class BloomFilter:
    """A classic ``m``-bit Bloom filter with ``k`` hash functions.

    Parameters
    ----------
    num_bits:
        Length ``m`` of the bit-vector (paper default: 256).
    num_hashes:
        Number of hash functions ``k`` (paper default: 4).
    seed:
        Hash seed; all filters that interoperate must share it.
    family:
        Optionally pass an existing :class:`HashFamily` instead of
        ``num_bits``/``num_hashes``/``seed``.
    m, k:
        Keyword-only paper-notation aliases for ``num_bits`` /
        ``num_hashes``; passing both spellings is a ``TypeError``.
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
        self._store = ArrayBitStore(self.family.num_bits)

    # -- basic properties -------------------------------------------------

    @property
    def num_bits(self) -> int:
        """Length ``m`` of the bit-vector."""
        return self.family.num_bits

    @property
    def num_hashes(self) -> int:
        """Number of hash functions ``k``."""
        return self.family.num_hashes

    @property
    def set_bits(self) -> frozenset:
        """Positions of the currently set bits."""
        return frozenset(self._store.positions())

    def bit(self, position: int) -> bool:
        """Whether the bit at *position* is set."""
        if not 0 <= position < self.num_bits:
            raise IndexError(f"bit position {position} out of range")
        return self._store.contains(position)

    def fill_ratio(self) -> float:
        """Fill ratio FR = (# set bits) / m (paper Eq. 3's measured form)."""
        return self._store.count() / self.num_bits

    def is_empty(self) -> bool:
        """True if no bit is set."""
        return self._store.is_empty()

    def __len__(self) -> int:
        """Number of set bits."""
        return self._store.count()

    def __iter__(self) -> Iterator[int]:
        return iter(self._store.positions())

    # -- mutation ----------------------------------------------------------

    def insert(self, key: str) -> None:
        """Insert *key*, setting its ``k`` hashed bits."""
        self._store.add(self.family.positions(key))

    def insert_all(self, keys: Iterable[str]) -> None:
        """Insert every key in *keys*."""
        for key in keys:
            self.insert(key)

    def insert_batch(self, keys: Sequence[str]) -> None:
        """Insert many keys with one batched hash + bit-set pass."""
        keys = list(keys)
        if not keys:
            return
        self._store.add_rows(self.family.positions_batch(keys))

    def merge(self, other: "BloomFilter") -> None:
        """Bit-wise OR *other* into this filter (paper Sec. III)."""
        self._check_compatible(other)
        self._store.update_from(other._store)

    def clear(self) -> None:
        """Reset to the empty filter."""
        self._store.clear()

    # -- queries -----------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self.query(key)

    def query(self, key: str) -> bool:
        """Membership query: True iff all of *key*'s bits are set.

        Subject to false positives (Eq. 1); never false negatives.
        """
        return self._store.test_all(self.family.positions(key))

    def query_all(self, keys: Iterable[str]) -> List[str]:
        """The subset of *keys* for which :meth:`query` returns True."""
        keys = list(keys)
        hits = self.query_batch(keys)
        return [key for key, hit in zip(keys, hits) if hit]

    def query_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Membership queries for many keys as one boolean vector."""
        return self._store.test_rows(self.family.positions_batch(list(keys)))

    # -- construction helpers ----------------------------------------------

    @classmethod
    def of(
        cls,
        keys: Iterable[str],
        num_bits: Optional[int] = None,
        num_hashes: Optional[int] = None,
        seed: int = DEFAULT_SEED,
        family: Optional[HashFamily] = None,
        *,
        m: Optional[int] = None,
        k: Optional[int] = None,
    ) -> "BloomFilter":
        """Build a filter containing every key in *keys*."""
        bf = cls(num_bits, num_hashes, seed, family=family, m=m, k=k)
        bf.insert_batch(list(keys))
        return bf

    def copy(self) -> "BloomFilter":
        """An independent copy sharing the hash family."""
        clone = BloomFilter(family=self.family)
        clone._store = self._store.copy()
        return clone

    @classmethod
    def from_bits(
        cls,
        bits: Iterable[int],
        family: HashFamily,
    ) -> "BloomFilter":
        """Rebuild a filter from explicit set-bit positions.

        Used when decoding the compact wire format (Sec. VI-C).
        """
        bf = cls(family=family)
        positions = list(bits)
        for position in positions:
            if not 0 <= position < family.num_bits:
                raise ValueError(f"bit position {position} out of range")
        if positions:
            bf._store.add(positions)
        return bf

    # -- misc ----------------------------------------------------------------

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """A new filter equal to the merge of the two operands."""
        result = self.copy()
        result.merge(other)
        return result

    def _check_compatible(self, other: "BloomFilter") -> None:
        if not self.family.compatible_with(other.family):
            raise ValueError(
                "cannot combine filters with different hash families: "
                f"{self.family!r} vs {other.family!r}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.family == other.family and self.set_bits == other.set_bits

    def __repr__(self) -> str:
        return (
            f"BloomFilter(m={self.num_bits}, k={self.num_hashes}, "
            f"set_bits={len(self)})"
        )
