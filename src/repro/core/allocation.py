"""Dynamic TCBF allocation for optimal FPR (paper Sec. VI-D).

When a single TCBF fills up its false-positive rate explodes, so B-SUB
can spread interests over a *collection* of filters: a new TCBF is
allocated whenever the fill ratio of the current one exceeds a
threshold ``F_t``.  Sec. VI-D derives the optimal number of filters
``h`` under a memory bound ``M_max`` (Eq. 9–10): the joint FPR is
monotone decreasing in ``h`` while the memory is monotone increasing,
so the optimum is the *largest* ``h`` whose memory fits — found by
binary search.  The fill-ratio threshold is then the Eq. 3 fill ratio
at ``n / h`` keys per filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import analysis
from .hashing import DEFAULT_SEED, HashFamily
from .tcbf import DEFAULT_INITIAL_VALUE, TemporalCountingBloomFilter

__all__ = [
    "AllocationPlan",
    "plan_allocation",
    "plan_allocation_brute",
    "TCBFCollection",
]


@dataclass(frozen=True)
class AllocationPlan:
    """The outcome of the Eq. 9–10 optimisation.

    Attributes
    ----------
    num_filters:
        Optimal ``h``.
    fill_ratio_threshold:
        ``F_t`` — allocate a new filter once the current filter's FR
        exceeds this.
    keys_per_filter:
        Expected keys per filter at the optimum (``n / h``).
    joint_fpr:
        Eq. 7 joint FPR at the optimum.
    memory_bytes:
        Eq. 8 memory at the optimum (must be < the bound).
    """

    num_filters: int
    fill_ratio_threshold: float
    keys_per_filter: float
    joint_fpr: float
    memory_bytes: float


def plan_allocation(
    total_keys: float,
    memory_bound_bytes: float,
    num_bits: int = 256,
    num_hashes: int = 4,
    max_filters: int = 4096,
) -> AllocationPlan:
    """Solve Eq. 10: the largest ``h`` whose Eq. 8 memory fits the bound.

    Raises
    ------
    ValueError
        If even a single filter exceeds *memory_bound_bytes* — the
        constraint set of Eq. 9 is empty and no allocation exists.
    """
    if total_keys <= 0:
        raise ValueError(f"total_keys must be positive, got {total_keys}")
    if memory_bound_bytes <= 0:
        raise ValueError(
            f"memory_bound_bytes must be positive, got {memory_bound_bytes}"
        )

    def memory(h: int) -> float:
        return analysis.multi_filter_memory_bytes(
            h, total_keys, num_bits, num_hashes
        )

    if memory(1) >= memory_bound_bytes:
        raise ValueError(
            "memory bound too small: a single filter already needs "
            f"{memory(1):.1f} bytes >= {memory_bound_bytes} bytes"
        )

    # Memory is monotone increasing in h (each extra filter adds
    # fixed-cost set bits faster than the per-filter key count shrinks
    # them), so binary-search the largest feasible h.
    lo, hi = 1, max_filters
    if memory(hi) < memory_bound_bytes:
        best = hi
    else:
        best = 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if memory(mid) < memory_bound_bytes:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1

    keys_per_filter = total_keys / best
    return AllocationPlan(
        num_filters=best,
        fill_ratio_threshold=analysis.fill_ratio(
            keys_per_filter, num_bits, num_hashes
        ),
        keys_per_filter=keys_per_filter,
        joint_fpr=analysis.joint_false_positive_rate(
            [keys_per_filter] * best, num_bits, num_hashes
        ),
        memory_bytes=memory(best),
    )


def plan_allocation_brute(
    total_keys: float,
    memory_bound_bytes: float,
    num_bits: int = 256,
    num_hashes: int = 4,
    max_filters: int = 4096,
) -> AllocationPlan:
    """Solve Eq. 9 by exhaustive enumeration (validation oracle).

    Evaluates the Eq. 7 joint FPR at *every* feasible ``h`` in
    ``[1, max_filters]`` and picks the minimum (ties broken by lower
    memory, then smaller ``h``).  This is the brute-force ground truth
    the binary-search shortcut of :func:`plan_allocation` is checked
    against in the property-test suite — the two must agree because the
    joint FPR is monotone decreasing in ``h`` on the feasible set.

    Raises
    ------
    ValueError
        If no ``h`` fits *memory_bound_bytes* (same condition as
        :func:`plan_allocation`).
    """
    if total_keys <= 0:
        raise ValueError(f"total_keys must be positive, got {total_keys}")
    if memory_bound_bytes <= 0:
        raise ValueError(
            f"memory_bound_bytes must be positive, got {memory_bound_bytes}"
        )

    def memory(h: int) -> float:
        return analysis.multi_filter_memory_bytes(
            h, total_keys, num_bits, num_hashes
        )

    def joint_fpr(h: int) -> float:
        return analysis.joint_false_positive_rate(
            [total_keys / h] * h, num_bits, num_hashes
        )

    feasible = [
        h for h in range(1, max_filters + 1) if memory(h) < memory_bound_bytes
    ]
    if not feasible:
        raise ValueError(
            "memory bound too small: a single filter already needs "
            f"{memory(1):.1f} bytes >= {memory_bound_bytes} bytes"
        )
    best = min(feasible, key=lambda h: (joint_fpr(h), memory(h), h))
    keys_per_filter = total_keys / best
    return AllocationPlan(
        num_filters=best,
        fill_ratio_threshold=analysis.fill_ratio(
            keys_per_filter, num_bits, num_hashes
        ),
        keys_per_filter=keys_per_filter,
        joint_fpr=joint_fpr(best),
        memory_bytes=memory(best),
    )


class TCBFCollection:
    """A dynamically grown set of TCBFs sharing one hash family.

    Implements the Sec. VI-D strategy: keys are inserted into the most
    recent filter until its fill ratio exceeds ``fill_ratio_threshold``,
    at which point a fresh filter is allocated.  Queries consult every
    filter (hence the Eq. 7 joint FPR).
    """

    def __init__(
        self,
        fill_ratio_threshold: float,
        num_bits: int = 256,
        num_hashes: int = 4,
        seed: int = DEFAULT_SEED,
        family: Optional[HashFamily] = None,
        initial_value: float = DEFAULT_INITIAL_VALUE,
        decay_factor: float = 0.0,
        max_filters: Optional[int] = None,
    ):
        if not 0.0 < fill_ratio_threshold <= 1.0:
            raise ValueError(
                "fill_ratio_threshold must be in (0, 1], got "
                f"{fill_ratio_threshold}"
            )
        if max_filters is not None and max_filters < 1:
            raise ValueError(f"max_filters must be >= 1, got {max_filters}")
        self.family = family if family is not None else HashFamily(
            num_hashes, num_bits, seed
        )
        self.fill_ratio_threshold = fill_ratio_threshold
        self.initial_value = initial_value
        self.decay_factor = decay_factor
        self.max_filters = max_filters
        self._filters: List[TemporalCountingBloomFilter] = [self._fresh(0.0)]

    @classmethod
    def from_plan(
        cls,
        plan: AllocationPlan,
        num_bits: int = 256,
        num_hashes: int = 4,
        **kwargs,
    ) -> "TCBFCollection":
        """Build a collection enforcing a :func:`plan_allocation` result."""
        return cls(
            fill_ratio_threshold=plan.fill_ratio_threshold,
            num_bits=num_bits,
            num_hashes=num_hashes,
            max_filters=plan.num_filters,
            **kwargs,
        )

    def _fresh(self, time: float) -> TemporalCountingBloomFilter:
        return TemporalCountingBloomFilter(
            family=self.family,
            initial_value=self.initial_value,
            decay_factor=self.decay_factor,
            time=time,
        )

    @property
    def filters(self) -> List[TemporalCountingBloomFilter]:
        """The live filters, oldest first (do not mutate)."""
        return list(self._filters)

    @property
    def num_filters(self) -> int:
        return len(self._filters)

    def insert(self, key: str) -> None:
        """Insert *key* into the current filter, allocating if it is full.

        If the key is already present in *any* filter this is a no-op —
        spreading duplicates across filters would inflate the joint FPR
        for no benefit.
        """
        if self.query(key):
            return
        current = self._filters[-1]
        if current.fill_ratio() > self.fill_ratio_threshold:
            if self.max_filters is None or len(self._filters) < self.max_filters:
                current = self._fresh(current.time)
                self._filters.append(current)
        current.insert(key)

    def insert_all(self, keys: Iterable[str]) -> None:
        for key in keys:
            self.insert(key)

    # -- merge interface (lets a collection stand in for a relay filter) ----

    @property
    def time(self) -> float:
        """The collection's clock (all filters advance together)."""
        return self._filters[-1].time

    def a_merge(self, other) -> None:
        """A-merge an announcement into the current filter.

        Implements the Sec. VI-D growth rule for the merge path: when
        the current filter's fill ratio exceeds the threshold, a fresh
        filter is allocated and receives the announcement instead.
        Accepts another collection too (each constituent is merged in
        turn).
        """
        if isinstance(other, TCBFCollection):
            for filt in other.filters:
                if not filt.is_empty():
                    self.a_merge(filt)
            return
        current = self._filters[-1]
        if current.fill_ratio() > self.fill_ratio_threshold and (
            self.max_filters is None or len(self._filters) < self.max_filters
        ):
            current = self._fresh(current.time)
            self._filters.append(current)
        current.a_merge(other)

    def m_merge(self, other) -> None:
        """M-merge a peer's relay state (single filter or collection).

        Each incoming filter is M-merged into the local filter sharing
        the most set bits with it (ties favour the newest), so related
        interest sets stay co-located; if every local filter is over
        the threshold and capacity remains, a fresh filter takes it.
        """
        incoming = (
            other.filters
            if isinstance(other, TCBFCollection)
            else [other]
        )
        for filt in incoming:
            if filt.is_empty():
                continue
            self._m_merge_one(filt)

    def _m_merge_one(self, incoming: TemporalCountingBloomFilter) -> None:
        incoming_bits = set(incoming)
        best, best_overlap = None, -1
        for candidate in self._filters:
            overlap = len(incoming_bits & set(candidate))
            if overlap >= best_overlap:
                best, best_overlap = candidate, overlap
        if (
            best_overlap == 0
            and best.fill_ratio() > self.fill_ratio_threshold
            and (self.max_filters is None or len(self._filters) < self.max_filters)
        ):
            best = self._fresh(self._filters[-1].time)
            self._filters.append(best)
        best.m_merge(incoming)

    def preference(self, key: str, other) -> float:
        """Preferential query of the collection against *other*.

        Uses the collection-wide minimum counters (the best evidence
        either side holds for the key), matching the single-filter
        semantics of Sec. IV-A.
        """
        a = self.min_counter(key)
        b = other.min_counter(key)
        return a if b == 0.0 else a - b

    def is_empty(self) -> bool:
        return all(f.is_empty() for f in self._filters)

    def copy(self) -> "TCBFCollection":
        clone = TCBFCollection(
            fill_ratio_threshold=self.fill_ratio_threshold,
            family=self.family,
            initial_value=self.initial_value,
            decay_factor=self.decay_factor,
            max_filters=self.max_filters,
        )
        clone._filters = [f.copy() for f in self._filters]
        return clone

    def query(self, key: str) -> bool:
        """Existential query across all filters (joint FPR per Eq. 7)."""
        return any(f.query(key) for f in self._filters)

    def __contains__(self, key: str) -> bool:
        return self.query(key)

    def query_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Existential queries for many keys across all filters."""
        keys = list(keys)
        hits = self._filters[0].query_batch(keys)
        for filt in self._filters[1:]:
            hits = hits | filt.query_batch(keys)
        return hits

    def min_counter(self, key: str) -> float:
        """Largest per-filter minimum counter for *key* (0 if absent)."""
        return max(f.min_counter(key) for f in self._filters)

    def min_counter_batch(self, keys: Sequence[str]) -> np.ndarray:
        """Collection-wide minimum counters for many keys (see
        :meth:`min_counter`) as one float vector."""
        keys = list(keys)
        minima = self._filters[0].min_counter_batch(keys)
        for filt in self._filters[1:]:
            minima = np.maximum(minima, filt.min_counter_batch(keys))
        return minima

    def preference_batch(self, keys: Sequence[str], other) -> np.ndarray:
        """Batched preferential query of the collection against *other*."""
        keys = list(keys)
        a = self.min_counter_batch(keys)
        b = np.asarray(other.min_counter_batch(keys), dtype=np.float64)
        return np.where(b == 0.0, a, a - b)

    def advance(self, now: float) -> None:
        """Advance every filter's clock, dropping emptied extras."""
        for f in self._filters:
            f.advance(now)
        live = [f for f in self._filters if not f.is_empty()]
        # Always keep at least the newest filter as the insert target.
        self._filters = live if live else [self._fresh(now)]

    def fill_ratios(self) -> List[float]:
        return [f.fill_ratio() for f in self._filters]

    def memory_bytes(self) -> float:
        """Sec. VI-C compact size of the whole collection."""
        return sum(
            analysis.filter_memory_bytes(len(f), f.num_bits, counters="full")
            for f in self._filters
        )

    def __len__(self) -> int:
        """Total set bits across filters."""
        return sum(len(f) for f in self._filters)

    def __repr__(self) -> str:
        return (
            f"TCBFCollection(filters={len(self._filters)}, "
            f"threshold={self.fill_ratio_threshold:.3f}, "
            f"set_bits={len(self)})"
        )
