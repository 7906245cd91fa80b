"""Synthetic human-contact trace generation.

The paper evaluates on two CRAWDAD traces (Haggle Infocom'06 and MIT
Reality Mining) that cannot be redistributed, so this module provides a
seeded generator that reproduces the *properties B-SUB's mechanisms
depend on*:

* **heterogeneous node activity** — a lognormal activity level per node
  creates the socially-active hubs the broker election is designed to
  find;
* **community structure** — intra-community contact rates are boosted,
  so contact patterns "directly represent people's activity in a social
  group" (Sec. I);
* **recurrent pairwise meetings** — per-pair Poisson contact processes
  make counter reinforcement/decay meaningful;
* **diurnal rhythm** — conference-session or campus-day activity
  profiles shape inter-contact times.

Two presets are calibrated to the published aggregate statistics of
Table I: :func:`haggle_like` (79 nodes, 3 days, ≈67,360 contacts,
conference rhythm) and :func:`mit_reality_like` (97 nodes, a 3-day
active-period slice, campus rhythm, markedly sparser — the paper's only
cross-trace claims are that MIT is sparser with lower contact
frequency, which the preset preserves).

Generation is *columnar*: per-pair contact intervals are coalesced
with vectorised cummax/reduceat arithmetic and accumulated as numpy
column chunks, so a million-contact trace never builds a Python object
per row.  The RNG call sequence and every floating-point operation
match the original per-contact implementation exactly, so seeds keep
producing byte-identical traces (the golden digests in ``tests/obs``
pin this).

For populations far beyond the paper's scale (ROADMAP item 2: city
scale, ≥10⁶ nodes and ≥10⁸ contacts) the per-pair process above is
infeasible — a million-node population has ~5×10¹¹ pairs before a
single contact is drawn.  :func:`generate_city_trace` switches to a
*window-Poisson* process: contacts are drawn per hour window with
activity-weighted endpoint sampling and community-biased partner
choice, then streamed straight to an on-disk trace dataset through
:class:`~repro.traces.loaders.ChunkedTraceWriter`.  Peak memory is one
window of contacts, never the trace.

Real CRAWDAD files, if the user has them, load through
:mod:`repro.traces.loaders` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from .loaders import ChunkedTraceWriter, open_trace_dataset
from .model import ContactTrace

__all__ = [
    "DiurnalProfile",
    "SyntheticTraceConfig",
    "CityTraceConfig",
    "generate_trace",
    "generate_city_trace",
    "haggle_like",
    "mit_reality_like",
    "CONFERENCE_PROFILE",
    "CAMPUS_PROFILE",
    "FLAT_PROFILE",
]


@dataclass(frozen=True)
class DiurnalProfile:
    """Hour-of-day activity weights (24 values, arbitrary scale).

    Contact instants are drawn from the normalised piecewise-constant
    density these weights define, repeated across days.
    """

    hourly_weights: Tuple[float, ...]

    def __post_init__(self):
        if len(self.hourly_weights) != 24:
            raise ValueError(
                f"need 24 hourly weights, got {len(self.hourly_weights)}"
            )
        if min(self.hourly_weights) < 0 or sum(self.hourly_weights) <= 0:
            raise ValueError("hourly weights must be non-negative, not all zero")

    def sample_times(
        self, count: int, duration_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw *count* timestamps in [0, duration_s) from the profile."""
        if count == 0:
            return np.empty(0)
        cdf = self._hourly_cdf(duration_s)
        # Inverse-CDF sampling over hour bins.  This is exactly what
        # ``rng.choice(num_hours, size=count, p=probabilities)`` does
        # internally — same single ``rng.random(count)`` draw, same
        # searchsorted — but against a memoised cdf, because a
        # generator run re-enters here once per active node pair and
        # rebuilding the density each time dominated generation cost.
        hours = cdf.searchsorted(rng.random(count), side="right")
        offsets = rng.random(count) * 3600.0
        times = hours * 3600.0 + offsets
        return np.minimum(times, duration_s - 1e-6)

    def _hourly_cdf(self, duration_s: float) -> np.ndarray:
        """The hour-bin sampling cdf for a trace of *duration_s*.

        Pure arithmetic — no RNG draws — so memoising it cannot change
        any generated trace (the golden digests in ``tests/obs`` pin
        this).
        """
        key = (self.hourly_weights, duration_s)
        cached = _CDF_CACHE.get(key)
        if cached is not None:
            return cached
        weights = np.asarray(self.hourly_weights, dtype=float)
        # Density over a full day, tiled across the trace duration and
        # truncated at the end; hour bins of 3600 s.
        num_hours = int(np.ceil(duration_s / 3600.0))
        tiled = np.tile(weights, (num_hours + 23) // 24)[:num_hours].copy()
        # Partial final hour contributes proportionally.
        last_fraction = duration_s / 3600.0 - (num_hours - 1)
        tiled[-1] *= last_fraction
        probabilities = tiled / tiled.sum()
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        if len(_CDF_CACHE) >= _CDF_CACHE_LIMIT:
            _CDF_CACHE.clear()
        _CDF_CACHE[key] = cdf
        return cdf


#: (hourly_weights, duration_s) -> sampling cdf; bounded so
#: pathological many-duration workloads cannot grow it without limit.
_CDF_CACHE: dict = {}
_CDF_CACHE_LIMIT = 64


CONFERENCE_PROFILE = DiurnalProfile(
    # Infocom-style: sessions 9:00-18:00, social evening, quiet nights.
    hourly_weights=(
        0.02, 0.02, 0.02, 0.02, 0.02, 0.02,   # 0-5
        0.05, 0.15, 0.60, 1.00, 1.00, 1.00,   # 6-11
        0.80, 1.00, 1.00, 1.00, 1.00, 0.90,   # 12-17
        0.50, 0.40, 0.30, 0.20, 0.10, 0.05,   # 18-23
    )
)

CAMPUS_PROFILE = DiurnalProfile(
    # Reality-Mining-style: classes/office hours, lunch peak, evenings.
    hourly_weights=(
        0.02, 0.02, 0.02, 0.02, 0.02, 0.03,
        0.08, 0.25, 0.60, 0.80, 0.90, 1.00,
        1.00, 0.90, 0.85, 0.80, 0.70, 0.55,
        0.40, 0.30, 0.20, 0.12, 0.06, 0.03,
    )
)

FLAT_PROFILE = DiurnalProfile(hourly_weights=(1.0,) * 24)


@dataclass
class SyntheticTraceConfig:
    """Parameters of the synthetic contact process.

    Attributes
    ----------
    num_nodes:
        Population size.
    duration_days:
        Trace length.
    target_contacts:
        Expected total contact count; the base rate is calibrated so
        the Poisson totals match this in expectation.
    num_communities:
        Number of (roughly equal) communities nodes are split into.
    intra_community_boost:
        Multiplier on the contact rate of same-community pairs.
    activity_sigma:
        σ of the lognormal node-activity distribution (0 = homogeneous).
    mean_contact_duration_s:
        Mean of the exponential contact-duration distribution.
    min_contact_duration_s:
        Hard floor on contact durations (Bluetooth discovery takes a
        few seconds).
    profile:
        Diurnal activity profile.
    seed:
        RNG seed; identical configs generate identical traces.
    name:
        Trace label.
    """

    num_nodes: int
    duration_days: float
    target_contacts: int
    num_communities: int = 4
    intra_community_boost: float = 3.0
    activity_sigma: float = 0.6
    mean_contact_duration_s: float = 240.0
    min_contact_duration_s: float = 10.0
    profile: DiurnalProfile = field(default_factory=lambda: FLAT_PROFILE)
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError(f"need >= 2 nodes, got {self.num_nodes}")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.target_contacts < 0:
            raise ValueError("target_contacts must be >= 0")
        if self.num_communities < 1:
            raise ValueError("num_communities must be >= 1")
        if self.intra_community_boost < 1.0:
            raise ValueError("intra_community_boost must be >= 1")
        if self.mean_contact_duration_s <= 0:
            raise ValueError("mean_contact_duration_s must be positive")


def _merge_pair_intervals(
    starts: np.ndarray, durations: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Coalesce one pair's overlapping intervals, vectorised.

    Two devices cannot be "in contact twice at once"; overlapping draws
    from the Poisson process are merged into a single longer contact,
    exactly as a Bluetooth logger would record them.

    Returns the merged ``(start, duration)`` columns, sorted by start.
    The result is element-for-element identical to the sequential
    running-max merge: once intervals are sorted by start, every
    element of a group that begins after the running maximum end also
    begins after *all* earlier ends (each end exceeds its own start,
    and starts are non-decreasing), so the global cumulative maximum of
    ends equals the within-group running maximum — the merge condition
    ``s <= current_end`` becomes a single vector comparison against the
    shifted cummax.
    """
    order = np.argsort(starts)
    s = starts[order]
    e = s + durations[order]
    cummax_e = np.maximum.accumulate(e)
    new_group = np.empty(len(s), dtype=bool)
    new_group[0] = True
    new_group[1:] = s[1:] > cummax_e[:-1]
    heads = np.flatnonzero(new_group)
    merged_start = s[heads]
    merged_end = np.maximum.reduceat(e, heads)
    return merged_start, merged_end - merged_start


def generate_trace(config: SyntheticTraceConfig) -> ContactTrace:
    """Generate a contact trace from *config* (deterministic per seed)."""
    rng = np.random.default_rng(config.seed)
    n = config.num_nodes
    duration_s = config.duration_days * 86_400.0

    communities = rng.integers(0, config.num_communities, size=n)
    activity = rng.lognormal(mean=0.0, sigma=config.activity_sigma, size=n)

    # Pairwise rate weights: activity product with community boost.
    # triu_indices walks (i, j) pairs in the same row-major order as
    # the nested ``for i … for j > i`` loops this replaces.
    iu, ju = np.triu_indices(n, k=1)
    weights = (
        activity[iu]
        * activity[ju]
        * np.where(
            communities[iu] == communities[ju],
            config.intra_community_boost,
            1.0,
        )
    )
    total_weight = weights.sum()
    if total_weight <= 0 or config.target_contacts == 0:
        return ContactTrace([], nodes=range(n), name=config.name)
    expected_per_pair = weights / total_weight * config.target_contacts

    counts = rng.poisson(expected_per_pair)
    start_chunks: List[np.ndarray] = []
    duration_chunks: List[np.ndarray] = []
    a_chunks: List[np.ndarray] = []
    b_chunks: List[np.ndarray] = []
    # The per-pair loop must stay a loop: each active pair consumes its
    # own profile.sample_times + exponential draws, and the RNG stream
    # order is part of the trace's seeded identity.
    nonzero = np.flatnonzero(counts)
    iu_list = iu.tolist()
    ju_list = ju.tolist()
    counts_list = counts.tolist()
    sample_times = config.profile.sample_times
    for k in nonzero.tolist():
        count = counts_list[k]
        starts = sample_times(int(count), duration_s, rng)
        durations = np.maximum(
            rng.exponential(config.mean_contact_duration_s, size=int(count)),
            config.min_contact_duration_s,
        )
        m_start, m_duration = _merge_pair_intervals(starts, durations)
        start_chunks.append(m_start)
        duration_chunks.append(m_duration)
        a_chunks.append(np.full(len(m_start), iu_list[k], dtype=np.int64))
        b_chunks.append(np.full(len(m_start), ju_list[k], dtype=np.int64))

    if not start_chunks:
        return ContactTrace([], nodes=range(n), name=config.name)
    # Chunks arrive in pair order with each chunk internally sorted;
    # from_arrays applies the final stable start-time sort, matching
    # the original sorted(contacts) tie-breaking exactly.
    return ContactTrace.from_arrays(
        np.concatenate(start_chunks),
        np.concatenate(duration_chunks),
        np.concatenate(a_chunks),
        np.concatenate(b_chunks),
        nodes=range(n),
        name=config.name,
        validate=False,
    )


@dataclass
class CityTraceConfig:
    """Parameters of the out-of-core window-Poisson city generator.

    The statistical knobs mirror :class:`SyntheticTraceConfig`
    (lognormal activity, communities, diurnal profile) but the process
    is per *hour window* rather than per pair: each window draws a
    Poisson number of contacts, endpoint ``a`` activity-weighted,
    partner ``b`` from ``a``'s community with probability
    ``intra_community_p`` (uniform otherwise).  Repeat pairwise
    meetings emerge from the community bias instead of explicit
    per-pair processes, which is what makes ≥10⁶-node populations
    tractable.
    """

    num_nodes: int = 1_000_000
    duration_days: float = 7.0
    target_contacts: int = 100_000_000
    num_communities: int = 20_000
    intra_community_p: float = 0.7
    activity_sigma: float = 0.9
    mean_contact_duration_s: float = 180.0
    min_contact_duration_s: float = 10.0
    profile: DiurnalProfile = field(default_factory=lambda: CAMPUS_PROFILE)
    seed: int = 0
    name: str = "city"

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError(f"need >= 2 nodes, got {self.num_nodes}")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.target_contacts < 0:
            raise ValueError("target_contacts must be >= 0")
        if not 1 <= self.num_communities <= self.num_nodes:
            raise ValueError("num_communities must be in [1, num_nodes]")
        if not 0.0 <= self.intra_community_p <= 1.0:
            raise ValueError("intra_community_p must be in [0, 1]")
        if self.mean_contact_duration_s <= 0:
            raise ValueError("mean_contact_duration_s must be positive")


def generate_city_trace(
    config: CityTraceConfig,
    path: Union[str, Path],
    max_window_rows: int = 4 << 20,
) -> ContactTrace:
    """Stream a city-scale trace to the dataset directory at *path*.

    Returns the generated trace memory-mapped from *path*, so the
    call is usable exactly like :func:`generate_trace` but never holds
    more than one hour window (capped at *max_window_rows* rows) of
    contacts in memory.  Deterministic per seed.
    """
    rng = np.random.default_rng(config.seed)
    n = config.num_nodes
    duration_s = config.duration_days * 86_400.0
    num_hours = int(np.ceil(duration_s / 3600.0))

    activity = rng.lognormal(mean=0.0, sigma=config.activity_sigma, size=n)
    activity_cdf = np.cumsum(activity)
    activity_cdf /= activity_cdf[-1]
    communities = rng.integers(0, config.num_communities, size=n)
    # Community membership as one argsorted index array + offsets:
    # members of community k are comm_order[comm_offsets[k] :
    # comm_offsets[k + 1]].  Empty communities fall back to uniform.
    comm_order = np.argsort(communities, kind="stable").astype(np.int64)
    comm_sizes = np.bincount(communities, minlength=config.num_communities)
    comm_offsets = np.zeros(config.num_communities + 1, dtype=np.int64)
    np.cumsum(comm_sizes, out=comm_offsets[1:])

    # Expected contacts per hour window follow the diurnal profile.
    weights = np.asarray(config.profile.hourly_weights, dtype=float)
    tiled = np.tile(weights, (num_hours + 23) // 24)[:num_hours].copy()
    tiled[-1] *= duration_s / 3600.0 - (num_hours - 1)
    window_mean = tiled / tiled.sum() * config.target_contacts
    window_counts = rng.poisson(window_mean)

    writer = ChunkedTraceWriter(
        path, nodes=n, name=config.name, validate=False
    )
    with writer:
        for hour in range(num_hours):
            total = int(window_counts[hour])
            window_start = hour * 3600.0
            done = 0
            while done < total:
                count = min(total - done, max_window_rows)
                # Oversized windows emit several chunks; each covers a
                # count-proportional sub-interval of the hour so the
                # stream stays globally sorted and the union is still
                # uniform over the window.
                t0 = window_start + 3600.0 * (done / total)
                t1 = window_start + 3600.0 * ((done + count) / total)
                done += count
                a = np.searchsorted(
                    activity_cdf, rng.random(count), side="right"
                ).astype(np.int64)
                intra = rng.random(count) < config.intra_community_p
                b = rng.integers(0, n, size=count, dtype=np.int64)
                if intra.any():
                    ka = communities[a[intra]]
                    sizes = comm_sizes[ka]
                    member = (
                        comm_offsets[ka]
                        + (rng.random(int(intra.sum())) * sizes).astype(
                            np.int64
                        )
                    )
                    picked = comm_order[np.minimum(member, len(comm_order) - 1)]
                    # Singleton/empty communities keep the uniform draw.
                    b[intra] = np.where(sizes > 1, picked, b[intra])
                # Self-contacts get the deterministic next node.
                self_hit = a == b
                if self_hit.any():
                    b[self_hit] = (b[self_hit] + 1) % n
                lo_node = np.minimum(a, b)
                hi_node = np.maximum(a, b)
                starts = np.minimum(
                    t0 + rng.random(count) * (t1 - t0),
                    duration_s - 1e-6,
                )
                durations = np.maximum(
                    rng.exponential(
                        config.mean_contact_duration_s, size=count
                    ),
                    config.min_contact_duration_s,
                )
                order = np.argsort(starts, kind="stable")
                writer.append(
                    starts[order], durations[order],
                    lo_node[order], hi_node[order],
                )
    return open_trace_dataset(path, name=config.name)


def haggle_like(seed: int = 0, scale: float = 1.0) -> ContactTrace:
    """A Haggle (Infocom'06)-like trace (Table I row 1).

    79 iMote-carrying conference attendees over 3 days with ≈67,360
    contacts.  *scale* < 1 shrinks the contact count proportionally for
    fast tests and benchmarks while keeping population, duration, and
    structure fixed.
    """
    config = SyntheticTraceConfig(
        num_nodes=79,
        duration_days=3.0,
        target_contacts=round(67_360 * scale),
        num_communities=5,
        intra_community_boost=2.5,
        activity_sigma=0.55,
        mean_contact_duration_s=230.0,
        profile=CONFERENCE_PROFILE,
        seed=seed,
        name="haggle-infocom06-like" if scale == 1.0 else
        f"haggle-infocom06-like@{scale:g}",
    )
    return generate_trace(config)


def mit_reality_like(seed: int = 0, scale: float = 1.0) -> ContactTrace:
    """An MIT-Reality-like 3-day active-period slice (Table I row 2).

    97 phone-carrying subjects.  The full published trace spans 246
    days with 54,667 contacts; the paper simulates a 3-day slice.  We
    synthesise a 3-day *active-term* slice of ≈18,000 contacts —
    markedly sparser and more community-bound than the conference
    trace, which reproduces the paper's cross-trace observations
    (lower delivery ratio, higher delay on MIT).
    """
    config = SyntheticTraceConfig(
        num_nodes=97,
        duration_days=3.0,
        target_contacts=round(18_000 * scale),
        num_communities=8,
        intra_community_boost=6.0,
        activity_sigma=0.75,
        mean_contact_duration_s=300.0,
        profile=CAMPUS_PROFILE,
        seed=seed,
        name="mit-reality-like" if scale == 1.0 else
        f"mit-reality-like@{scale:g}",
    )
    return generate_trace(config)
