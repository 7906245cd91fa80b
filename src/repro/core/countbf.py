"""countBF-style two-dimensional counting filter (PAPERS.md: Nayak &
Patgiri, "countBF: A General-purpose High Accuracy and Space Efficient
Counting Bloom Filter").

Where the paper's TCBF hashes every key into one flat ``m``-bit vector,
countBF arranges the counters as a 2D grid and derives each cell from a
*pair* of independent hashes — one over the rows, one over the columns.
The resulting collision structure differs from the flat layout (two
keys collide in a cell only when both their row and column draws agree),
which is the accuracy-per-bit argument of the countBF paper.

:class:`CountBF2D` adapts that layout to B-SUB's relay-filter contract:

* **temporal semantics** — cells decay at the configured DF exactly like
  TCBF counters (lazy decay via :meth:`advance`);
* **counting semantics** — :meth:`insert` *adds* ``C`` to each cell and
  :meth:`delete` subtracts it (floored at zero, so counters can never
  underflow — a property test pins this), unlike the TCBF's arm-to-``C``
  insertion;
* **merge semantics** — :meth:`a_merge` sums cells, :meth:`m_merge`
  takes the maximum, with the same clock alignment and lag compensation
  as the TCBF;
* **announcements** — :meth:`announce` reinforces a consumer's keys
  additively, mirroring :class:`~repro.pubsub.exact.ExactInterestRelay`.

Cells live in the same dense
:class:`~repro.core.stores.ArrayCounterStore` as the TCBF's counters.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .analysis import filter_memory_bytes
from .hashing import DEFAULT_SEED, HashFamily
from .stores import ArrayCounterStore
from .tcbf import DEFAULT_INITIAL_VALUE

__all__ = ["CountBF2D", "DEFAULT_ROWS"]

#: Default row count: a 16x16 grid matches the paper's m = 256 budget.
DEFAULT_ROWS = 16

# Seed salts keeping the row/column hash draws independent of each
# other and of the network's flat-filter family.
_ROW_SALT = 0x2D11
_COL_SALT = 0x7A2F


class CountBF2D:
    """A temporal counting filter over a ``rows x cols`` cell grid.

    Parameters
    ----------
    num_bits:
        Total cell budget; the grid is ``rows x ceil(num_bits / rows)``
        cells (slightly more than *num_bits* when it does not divide
        evenly).
    num_hashes:
        Independent (row, column) draws per key.
    rows:
        Grid height (>= 2).
    seed:
        Base seed; the row and column hash families are salted variants
        so two nodes sharing a seed agree on every cell.
    initial_value, decay_factor, time:
        As for :class:`~repro.core.tcbf.TemporalCountingBloomFilter`.
    """

    __slots__ = (
        "rows",
        "cols",
        "num_hashes",
        "seed",
        "initial_value",
        "decay_factor",
        "version",
        "_row_family",
        "_col_family",
        "_store",
        "_time",
    )

    def __init__(
        self,
        num_bits: int = 256,
        num_hashes: int = 4,
        rows: int = DEFAULT_ROWS,
        seed: int = DEFAULT_SEED,
        initial_value: float = DEFAULT_INITIAL_VALUE,
        decay_factor: float = 0.0,
        time: float = 0.0,
    ):
        if rows < 2:
            raise ValueError(f"rows must be >= 2, got {rows}")
        if num_bits < 2 * rows:
            raise ValueError(
                f"num_bits={num_bits} leaves fewer than 2 columns for "
                f"rows={rows}"
            )
        if initial_value <= 0:
            raise ValueError(f"initial_value must be positive, got {initial_value}")
        if decay_factor < 0:
            raise ValueError(f"decay_factor must be >= 0, got {decay_factor}")
        self.rows = int(rows)
        self.cols = int(math.ceil(num_bits / rows))
        self.num_hashes = int(num_hashes)
        self.seed = int(seed)
        self.initial_value = float(initial_value)
        self.decay_factor = float(decay_factor)
        self._row_family = HashFamily(num_hashes, self.rows, seed ^ _ROW_SALT)
        self._col_family = HashFamily(num_hashes, self.cols, seed ^ _COL_SALT)
        self._store = ArrayCounterStore(self.num_cells)
        self._time = float(time)
        #: Mutation counter (wire-size memoisation, as on the TCBF).
        self.version = 0

    # -- geometry ----------------------------------------------------------

    @property
    def num_cells(self) -> int:
        """Total cells in the grid (``rows * cols``)."""
        return self.rows * self.cols

    @property
    def num_bits(self) -> int:
        """Alias for :attr:`num_cells` (uniform with the flat filters)."""
        return self.num_cells

    @property
    def time(self) -> float:
        """The filter's current synchronisation time."""
        return self._time

    def _cells(self, key: str) -> List[int]:
        """The distinct flat cell indices of *key*, sorted.

        Returned as a list: the array counter store indexes numpy with
        the sequence directly, and a tuple would be read as a
        multi-dimensional index.
        """
        rows = self._row_family.positions(key)
        cols = self._col_family.positions(key)
        return sorted({r * self.cols + c for r, c in zip(rows, cols)})

    def _cell_rows(self, keys: Sequence[str]) -> np.ndarray:
        """(n, k) flat cell matrix for many keys (duplicates possible)."""
        keys = list(keys)
        rows = self._row_family.positions_batch(keys)
        cols = self._col_family.positions_batch(keys)
        return rows * self.cols + cols

    # -- decay / clock -----------------------------------------------------

    def decay(self, amount: float) -> None:
        """Subtract *amount* from every set cell, clearing cells at 0."""
        if amount < 0:
            raise ValueError(f"decay amount must be >= 0, got {amount}")
        if amount == 0 or self._store.is_empty():
            return
        self.version += 1
        self._store.decay(amount)

    def advance(self, now: float) -> None:
        """Advance the clock to *now*, applying lazy decay."""
        if now < self._time:
            raise ValueError(
                f"cannot advance backwards: filter at t={self._time}, got {now}"
            )
        elapsed = now - self._time
        self._time = now
        if self.decay_factor > 0 and elapsed > 0:
            self.decay(self.decay_factor * elapsed)

    # -- mutation ----------------------------------------------------------

    def insert(self, key: str) -> None:
        """Add ``C`` to each of *key*'s cells (counting-filter insert)."""
        self.version += 1
        self._store.add_at(self._cells(key), self.initial_value)

    def insert_batch(self, keys: Sequence[str]) -> None:
        """Insert many keys (same additive semantics as :meth:`insert`)."""
        for key in keys:
            self.insert(key)

    def delete(self, key: str) -> None:
        """Subtract ``C`` from each of *key*'s cells, floored at zero.

        Raises
        ------
        KeyError
            If *key* is not (apparently) present — deleting an absent
            key is the classic counting-filter misuse and is refused
            rather than silently corrupting shared cells.
        """
        cells = self._cells(key)
        if self._store.min(cells) <= 0.0:
            raise KeyError(f"cannot delete absent key {key!r}")
        self.version += 1
        store = self._store
        for cell in cells:
            store.set(cell, max(0.0, store.get(cell) - self.initial_value))

    def announce(self, keys) -> None:
        """A-merge a consumer's interest announcement (cells += ``C``).

        The duck-typed announcement hook the protocol prefers over
        building a TCBF operand (countBF cells are not TCBF bits, so a
        cross-representation merge would be meaningless).
        """
        self.version += 1
        store = self._store
        for key in keys:
            store.add_at(self._cells(key), self.initial_value)

    # -- merging -----------------------------------------------------------

    def a_merge(self, other: "CountBF2D") -> None:
        """Additive merge: sum cells (consumer -> broker path)."""
        self._combine(other, additive=True)

    def m_merge(self, other: "CountBF2D") -> None:
        """Maximum merge: max cells (broker <-> broker path)."""
        self._combine(other, additive=False)

    def _combine(self, other: "CountBF2D", additive: bool) -> None:
        self._check_compatible(other)
        if other._time > self._time:
            self.advance(other._time)
        lag = other.decay_factor * (self._time - other._time)
        self.version += 1
        self._store.combine(other._store, lag, additive)

    def _check_compatible(self, other: "CountBF2D") -> None:
        if not isinstance(other, CountBF2D):
            raise TypeError(
                f"can only merge another CountBF2D, got {type(other).__name__}"
            )
        if (
            self.rows != other.rows
            or self.cols != other.cols
            or self.seed != other.seed
            or self.num_hashes != other.num_hashes
        ):
            raise ValueError(
                "cannot combine countBF grids with different geometry: "
                f"{self.rows}x{self.cols}/k={self.num_hashes} vs "
                f"{other.rows}x{other.cols}/k={other.num_hashes}"
            )

    # -- queries -----------------------------------------------------------

    def query(self, key: str) -> bool:
        """Existential query: every cell of *key* is positive."""
        return self._store.query(self._cells(key))

    def __contains__(self, key: str) -> bool:
        return self.query(key)

    def query_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Existential queries for many keys as one boolean vector."""
        return self._store.query_rows(self._cell_rows(keys))

    def min_counter(self, key: str) -> float:
        """Minimum cell value among *key*'s cells (0 if absent)."""
        return self._store.min(self._cells(key))

    def min_counter_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Minimum cell values for many keys as one float vector."""
        return self._store.min_rows(self._cell_rows(keys))

    def preference(self, key: str, other) -> float:
        """Preferential query with the Sec. IV-A zero-case rule."""
        a = self.min_counter(key)
        b = other.min_counter(key)
        return a if b == 0.0 else a - b

    def preference_batch(self, keys: Sequence[str], other) -> np.ndarray:
        """Batched preferential query against *other*."""
        keys = list(keys)
        a = self.min_counter_batch(keys)
        b = np.asarray(other.min_counter_batch(keys), dtype=np.float64)
        return np.where(b == 0.0, a, a - b)

    # -- introspection -----------------------------------------------------

    def fill_ratio(self) -> float:
        """Set cells / total cells (the Eq. 3 observable for the grid)."""
        return self._store.count() / self.num_cells

    def is_empty(self) -> bool:
        """True when no cell is positive."""
        return self._store.is_empty()

    def __len__(self) -> int:
        """Number of set (positive) cells."""
        return self._store.count()

    def items(self) -> List[Tuple[int, float]]:
        """(flat cell, value) pairs sorted by cell index."""
        return self._store.items()

    def counters(self) -> Dict[int, float]:
        """Snapshot {flat cell: value} of the set cells."""
        return self._store.as_dict()

    def positions(self) -> List[int]:
        """Sorted flat indices of the set cells."""
        return self._store.positions()

    def wire_bytes(self, with_counters: bool = True) -> float:
        """Sec. VI-C-style compact transmission size of the grid."""
        return filter_memory_bytes(
            self._store.count(),
            self.num_cells,
            counters="full" if with_counters else "none",
        )

    def copy(self) -> "CountBF2D":
        """An independent deep copy (same grid, cells, clock)."""
        clone = CountBF2D(
            num_bits=self.num_cells,
            num_hashes=self.num_hashes,
            rows=self.rows,
            seed=self.seed,
            initial_value=self.initial_value,
            decay_factor=self.decay_factor,
            time=self._time,
        )
        clone._store = self._store.copy()
        clone.version = self.version
        return clone

    def __repr__(self) -> str:
        return (
            f"CountBF2D({self.rows}x{self.cols}, k={self.num_hashes}, "
            f"C={self.initial_value}, DF={self.decay_factor}, "
            f"set_cells={len(self)}, t={self._time})"
        )
