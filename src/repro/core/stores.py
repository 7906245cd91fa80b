"""Dense numpy storage behind the filter implementations.

The filter classes (:class:`~repro.core.bloom.BloomFilter`,
:class:`~repro.core.counting_bloom.CountingBloomFilter`,
:class:`~repro.core.tcbf.TemporalCountingBloomFilter`) describe the
paper's *semantics*; this module provides the one *storage* each of
them uses:

* :class:`ArrayCounterStore` — a dense vector of ``m`` counters (CBF
  integer counts, TCBF float lifetimes).  Decay is a single
  subtract-and-clip, merges are elementwise add/max, and the batch
  APIs answer many keys with one fancy-indexing pass over an
  ``(n_keys, k)`` position matrix.
* :class:`ArrayBitStore` — a dense boolean vector for the plain BF.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["ArrayCounterStore", "ArrayBitStore"]


class ArrayCounterStore:
    """Dense numpy counters; a bit is set while its counter is positive.

    The counter vector never holds negative values: decay clips at
    zero and only positive contributions are merged in.
    """

    __slots__ = ("num_bits", "_integer", "_array")

    def __init__(self, num_bits: int, integer: bool = False):
        self.num_bits = num_bits
        self._integer = integer
        self._array = np.zeros(
            num_bits, dtype=np.int64 if integer else np.float64
        )

    def _scalar(self, value) -> float:
        return int(value) if self._integer else float(value)

    # -- single-position access -------------------------------------------

    def get(self, position: int) -> float:
        return self._scalar(self._array[position])

    def set(self, position: int, value: float) -> None:
        self._array[position] = value if value > 0.0 else 0.0

    # -- bulk mutation ------------------------------------------------------

    def arm(self, positions: Sequence[int], value: float) -> None:
        """Set *value* at every position whose counter is not positive."""
        array = self._array
        index = np.asarray(positions, dtype=np.int64)
        unset = array[index] <= 0.0
        if unset.any():
            array[index[unset]] = value

    def arm_rows(self, rows: np.ndarray, value: float) -> None:
        array = self._array
        index = rows.reshape(-1)
        unset = array[index] <= 0.0
        if unset.any():
            array[index[unset]] = value

    def assign(self, positions: Sequence[int], value: float) -> None:
        """Unconditionally set *value* at every position (refresh)."""
        self._array[np.asarray(positions, dtype=np.int64)] = value

    def add_at(self, positions: Sequence[int], delta: float) -> None:
        """Add *delta* at every position (CBF insert/delete)."""
        np.add.at(self._array, np.asarray(positions, dtype=np.int64), delta)

    def decay(self, amount: float) -> None:
        array = self._array
        surviving = array > amount
        np.subtract(array, amount, out=array, where=surviving)
        array[~surviving] = 0.0

    def combine(
        self, other: "ArrayCounterStore", lag: float, additive: bool
    ) -> None:
        """Fold *other*'s counters (each reduced by *lag*) into self."""
        array = self._array
        theirs = other._array
        contribution = theirs - lag
        alive = (theirs > 0.0) & (contribution > 0.0)
        if additive:
            array[alive] += contribution[alive]
        else:
            array[alive] = np.maximum(array[alive], contribution[alive])

    def clear(self) -> None:
        self._array[:] = 0

    # -- queries ------------------------------------------------------------

    def query(self, positions: Sequence[int]) -> bool:
        return bool((self._array[positions] > 0.0).all())

    def min(self, positions: Sequence[int]) -> float:
        return self._scalar(self._array[positions].min())

    def query_rows(self, rows: np.ndarray) -> np.ndarray:
        return (self._array[rows] > 0.0).all(axis=1)

    def min_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._array[rows].min(axis=1)

    # -- introspection -----------------------------------------------------

    def nonzero_items(self) -> Iterable[Tuple[int, float]]:
        positions = np.flatnonzero(self._array > 0.0)
        values = self._array[positions]
        return [
            (int(p), self._scalar(v)) for p, v in zip(positions, values)
        ]

    def items(self) -> List[Tuple[int, float]]:
        return list(self.nonzero_items())  # flatnonzero is already sorted

    def as_dict(self) -> Dict[int, float]:
        return dict(self.nonzero_items())

    def positions(self) -> List[int]:
        return [int(p) for p in np.flatnonzero(self._array > 0.0)]

    def count(self) -> int:
        return int(np.count_nonzero(self._array > 0.0))

    def is_empty(self) -> bool:
        return not (self._array > 0.0).any()

    def copy(self) -> "ArrayCounterStore":
        clone = ArrayCounterStore(self.num_bits, integer=self._integer)
        clone._array = self._array.copy()
        return clone


class ArrayBitStore:
    """Dense boolean bit-vector with vectorized membership tests."""

    __slots__ = ("num_bits", "_mask")

    def __init__(self, num_bits: int):
        self.num_bits = num_bits
        self._mask = np.zeros(num_bits, dtype=bool)

    def add(self, positions: Sequence[int]) -> None:
        self._mask[np.asarray(positions, dtype=np.int64)] = True

    def add_rows(self, rows: np.ndarray) -> None:
        self._mask[rows.reshape(-1)] = True

    def contains(self, position: int) -> bool:
        return bool(self._mask[position])

    def test_all(self, positions: Sequence[int]) -> bool:
        return bool(self._mask[positions].all())

    def test_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._mask[rows].all(axis=1)

    def update_from(self, other: "ArrayBitStore") -> None:
        self._mask |= other._mask

    def positions(self) -> List[int]:
        return [int(p) for p in np.flatnonzero(self._mask)]

    def count(self) -> int:
        return int(np.count_nonzero(self._mask))

    def is_empty(self) -> bool:
        return not self._mask.any()

    def clear(self) -> None:
        self._mask[:] = False

    def copy(self) -> "ArrayBitStore":
        clone = ArrayBitStore(self.num_bits)
        clone._mask = self._mask.copy()
        return clone
