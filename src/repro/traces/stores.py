"""Contact storage behind :class:`~repro.traces.model.ContactTrace`.

The trace model describes *what* a contact sequence is; this module
provides the storage, chosen by where the contact data lives:

* :class:`ColumnarContactStore` — every trace built in memory (the
  synthetic generators, the file loaders, ``ContactTrace(contacts)``):
  four parallel numpy vectors (``start``, ``duration``, ``a``, ``b``).
  Storage is 32 bytes per contact, time slicing is a zero-copy
  ``searchsorted`` view, and bulk consumers (the simulator's replay
  loop, trace statistics) operate on the columns directly.
  :class:`Contact` objects are materialised lazily, one at a time,
  only when somebody actually indexes or iterates the trace.
* :class:`MmapContactStore` — a trace dataset on disk, opened with
  :func:`repro.traces.loaders.open_trace_dataset`: the same columnar
  layout, memory-mapped from ``.npy`` sidecar files (one per column).
  The operating system pages contact data in on demand and may drop
  clean pages under pressure, so a trace far larger than RAM replays
  in bounded memory.  Time slices stay zero-copy (they are views into
  the same mapping), and the store remembers its ``source`` path so
  shard workers in other processes can re-open just their slice.

The mmap store *is* a columnar store (all column arithmetic is
inherited), so both hold the same contacts in the same order with the
same IEEE-754 start/duration values, and slices, statistics and full
simulation runs agree exactly.  To replay an in-memory trace out of
core, write it with :func:`~repro.traces.loaders.save_trace_dataset`
and open it again.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

__all__ = [
    "TRACE_COLUMN_NAMES",
    "store_from_arrays",
    "ColumnarContactStore",
    "MmapContactStore",
]

#: The four dataset columns, in canonical order.
TRACE_COLUMN_NAMES = ("start", "duration", "a", "b")

#: numpy dtypes per column (little-endian, fixed for the disk format).
TRACE_COLUMN_DTYPES = {
    "start": np.dtype("<f8"),
    "duration": np.dtype("<f8"),
    "a": np.dtype("<i8"),
    "b": np.dtype("<i8"),
}

#: Rows per block for chunked bulk scans (end_time, node_ids, __iter__)
#: so whole-column temporaries never materialise for mmap traces.
SCAN_CHUNK_ROWS = 1 << 20


def _as_columns(
    start, duration, a, b
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coerce the four column inputs to the canonical dtypes."""
    return (
        np.ascontiguousarray(start, dtype=np.float64),
        np.ascontiguousarray(duration, dtype=np.float64),
        np.ascontiguousarray(a, dtype=np.int64),
        np.ascontiguousarray(b, dtype=np.int64),
    )


class ColumnarContactStore:
    """Struct-of-arrays contact storage, sorted by start time.

    Rows are identified by position; a :class:`Contact` is only built
    when a row is individually addressed.  All four columns may be
    views into a parent store's arrays (time slices are zero-copy).
    """

    __slots__ = ("start", "duration", "a", "b")

    def __init__(
        self,
        start: np.ndarray,
        duration: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
    ):
        self.start, self.duration, self.a, self.b = _as_columns(
            start, duration, a, b
        )
        if not (
            len(self.start) == len(self.duration) == len(self.a) == len(self.b)
        ):
            raise ValueError("trace columns must have equal lengths")

    @classmethod
    def from_contacts(cls, contacts: List) -> "ColumnarContactStore":
        """Pack a pre-sorted :class:`Contact` list into columns."""
        n = len(contacts)
        return cls(
            np.fromiter((c.start for c in contacts), np.float64, count=n),
            np.fromiter((c.duration for c in contacts), np.float64, count=n),
            np.fromiter((c.a for c in contacts), np.int64, count=n),
            np.fromiter((c.b for c in contacts), np.int64, count=n),
        )

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def _materialise(self, i: int):
        from .model import Contact

        return Contact(
            float(self.start[i]),
            float(self.duration[i]),
            int(self.a[i]),
            int(self.b[i]),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialise(i) for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"contact index {index} out of range")
        return self._materialise(index)

    def __iter__(self) -> Iterator:
        from .model import Contact

        # Chunked so iterating an out-of-core trace never materialises
        # whole-column Python lists.
        for lo in range(0, len(self.start), SCAN_CHUNK_ROWS):
            hi = lo + SCAN_CHUNK_ROWS
            for row in zip(
                self.start[lo:hi].tolist(),
                self.duration[lo:hi].tolist(),
                self.a[lo:hi].tolist(),
                self.b[lo:hi].tolist(),
            ):
                yield Contact(*row)

    # -- bulk views ---------------------------------------------------------

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (start, duration, a, b) columns themselves (no copy)."""
        return (self.start, self.duration, self.a, self.b)

    def start_times(self) -> List[float]:
        return self.start.tolist()

    def end_time(self) -> float:
        n = len(self.start)
        if not n:
            return 0.0
        # Chunked max so no whole-column (start + duration) temporary
        # is built; float max is associative, so the result is
        # bit-identical to the single-pass expression.
        best = -np.inf
        for lo in range(0, n, SCAN_CHUNK_ROWS):
            hi = lo + SCAN_CHUNK_ROWS
            best = max(
                best, float(np.max(self.start[lo:hi] + self.duration[lo:hi]))
            )
        return best

    def node_ids(self) -> Set[int]:
        if not len(self.a):
            return set()
        seen: Set[int] = set()
        for lo in range(0, len(self.a), SCAN_CHUNK_ROWS):
            hi = lo + SCAN_CHUNK_ROWS
            seen.update(np.unique(self.a[lo:hi]).tolist())
            seen.update(np.unique(self.b[lo:hi]).tolist())
        return seen

    # -- transforms -----------------------------------------------------------

    def _view(self, lo: int, hi: int) -> "ColumnarContactStore":
        """Zero-copy row-range view; preserves the concrete store type."""
        clone = object.__new__(type(self))
        clone.start = self.start[lo:hi]
        clone.duration = self.duration[lo:hi]
        clone.a = self.a[lo:hi]
        clone.b = self.b[lo:hi]
        return clone

    def time_slice(self, start: float, end: float) -> "ColumnarContactStore":
        """Zero-copy view of the contacts *starting* within [start, end)."""
        lo = int(np.searchsorted(self.start, start, side="left"))
        hi = int(np.searchsorted(self.start, end, side="left"))
        return self._view(lo, hi)

    def upto(self, horizon: float) -> "ColumnarContactStore":
        hi = int(np.searchsorted(self.start, horizon, side="left"))
        return self._view(0, hi)

    def row_slice(self, lo: int, hi: int) -> "ColumnarContactStore":
        """Zero-copy view of rows [lo, hi) — the shard-window primitive."""
        n = len(self.start)
        lo = max(0, min(int(lo), n))
        hi = max(lo, min(int(hi), n))
        return self._view(lo, hi)

    def shifted(self, offset: float) -> "ColumnarContactStore":
        return ColumnarContactStore(
            self.start + offset, self.duration, self.a, self.b
        )

    # -- per-node views -------------------------------------------------------

    def contacts_of(self, node: int) -> List:
        mask = (self.a == node) | (self.b == node)
        indices = np.flatnonzero(mask)
        return [self._materialise(int(i)) for i in indices]

    def neighbour_ids(self, node: int) -> Set[int]:
        peers = np.concatenate(
            (self.b[self.a == node], self.a[self.b == node])
        )
        return set(np.unique(peers).tolist())

    def pair_counts(self) -> Dict[Tuple[int, int], int]:
        if not len(self.a):
            return {}
        pairs = np.stack((self.a, self.b), axis=1)
        unique, counts = np.unique(pairs, axis=0, return_counts=True)
        return {
            (int(pa), int(pb)): int(count)
            for (pa, pb), count in zip(unique.tolist(), counts.tolist())
        }


class MmapContactStore(ColumnarContactStore):
    """Columnar storage memory-mapped from ``.npy`` sidecar files.

    Behaviourally identical to :class:`ColumnarContactStore` (it *is*
    one — all the column arithmetic is inherited); the only difference
    is that the four columns are read-only ``np.memmap`` views, so the
    resident set is whatever the OS chooses to keep paged in, not the
    trace size.  ``source`` records the dataset directory the store
    was opened from (``None`` for a partial view), which lets shard
    workers re-open just their row range.

    Zero-copy transforms (``time_slice`` / ``upto`` / ``row_slice``)
    stay mmap-backed; ``shifted`` materialises a new start column and
    therefore returns a plain in-memory columnar store.
    """

    __slots__ = ("source",)

    def __init__(self, start, duration, a, b, source: Optional[str] = None):
        super().__init__(start, duration, a, b)
        self.source = source

    def _view(self, lo: int, hi: int) -> "MmapContactStore":
        clone = super()._view(lo, hi)
        # ``source`` promises "re-opening this path yields these exact
        # rows" (shard workers rely on it); only a full-range view can
        # keep that promise.
        clone.source = (
            self.source if (lo, hi) == (0, len(self)) else None
        )
        return clone

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> "MmapContactStore":
        """Open the column files under *path*, optionally a row range.

        The mapping is read-only; opening costs four small reads (the
        ``.npy`` headers), never the trace size.
        """
        path = Path(path)
        columns = []
        for name in TRACE_COLUMN_NAMES:
            column_path = path / f"{name}.npy"
            if not column_path.is_file():
                raise FileNotFoundError(
                    f"{path} is not a trace dataset: missing {name}.npy"
                )
            column = np.load(column_path, mmap_mode="r")
            expected = TRACE_COLUMN_DTYPES[name]
            if column.dtype != expected or column.ndim != 1:
                raise ValueError(
                    f"{column_path}: expected 1-D {expected}, "
                    f"got {column.dtype} with shape {column.shape}"
                )
            columns.append(column)
        store = cls(*columns, source=str(path))
        if lo or hi is not None:
            store = store.row_slice(lo, len(store) if hi is None else hi)
        return store


def store_from_arrays(
    start: Sequence[float],
    duration: Sequence[float],
    a: Sequence[int],
    b: Sequence[int],
    validate: bool = True,
    assume_sorted: bool = False,
) -> ColumnarContactStore:
    """Build a store directly from columns, never touching Contact objects.

    ``validate`` applies the :meth:`Contact.make` rules vectorised:
    positive durations, distinct endpoints, canonical (min, max) node
    order.  ``assume_sorted`` skips the stable sort by start time.
    """
    start, duration, a, b = _as_columns(start, duration, a, b)
    if not (len(start) == len(duration) == len(a) == len(b)):
        raise ValueError("trace columns must have equal lengths")
    if validate and len(start):
        if not (duration > 0).all():
            bad = float(duration[np.argmin(duration)])
            raise ValueError(f"contact duration must be > 0, got {bad}")
        equal = a == b
        if equal.any():
            node = int(a[np.argmax(equal)])
            raise ValueError(
                f"contact endpoints must differ, got {node} == {node}"
            )
        swap = a > b
        if swap.any():
            a, b = np.where(swap, b, a), np.where(swap, a, b)
    if not assume_sorted and len(start):
        order = np.argsort(start, kind="stable")
        start = start[order]
        duration = duration[order]
        a = a[order]
        b = b[order]
    return ColumnarContactStore(start, duration, a, b)
