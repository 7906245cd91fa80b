"""Micro-benchmarks of the TCBF primitives.

The paper's efficiency argument (Sec. V-A): "the operations performed
are only hashing and table lookup" — insert, query, merge, and decay
must all be cheap enough to run on every contact of a human network.
These are real timed benchmarks (multiple rounds), not one-shot runs.

The second half times the batch operations at broker scale (m = 4096,
thousands of keys) and writes the measurements to
``benchmarks/results/BENCH_tcbf.json`` so regressions can be checked
mechanically.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.bloom import BloomFilter
from repro.core.hashing import HashFamily
from repro.core.tcbf import TemporalCountingBloomFilter
from repro.obs import NULL_RECORDER
from repro.workload.keys import twitter_trends_2009

FAMILY = HashFamily(4, 256)
KEYS = twitter_trends_2009().keys


@pytest.fixture
def loaded_tcbf():
    return TemporalCountingBloomFilter.of(KEYS, family=FAMILY, initial_value=50)


def test_bench_insert_38_keys(benchmark):
    def build():
        t = TemporalCountingBloomFilter(family=FAMILY, initial_value=50)
        t.insert_all(KEYS)
        return t

    result = benchmark(build)
    assert len(result) > 0


def test_bench_existential_query(benchmark, loaded_tcbf):
    result = benchmark(lambda: loaded_tcbf.query("NewMoon"))
    assert result is True


def test_bench_query_uncached_keys(benchmark, loaded_tcbf):
    """Query cost including the blake2b hash (cache misses)."""
    counter = iter(range(10**9))

    def probe():
        return loaded_tcbf.query(f"probe-{next(counter)}")

    benchmark(probe)


def test_bench_preferential_query(benchmark, loaded_tcbf):
    other = TemporalCountingBloomFilter.of(
        KEYS[:10], family=FAMILY, initial_value=30
    )
    value = benchmark(lambda: loaded_tcbf.preference("NewMoon", other))
    assert value != 0.0


def test_bench_m_merge(benchmark, loaded_tcbf):
    other = TemporalCountingBloomFilter.of(KEYS[:19], family=FAMILY)

    def merge():
        target = loaded_tcbf.copy()
        target.m_merge(other)
        return target

    benchmark(merge)


def test_bench_a_merge(benchmark, loaded_tcbf):
    other = TemporalCountingBloomFilter.of(KEYS[:19], family=FAMILY)

    def merge():
        target = loaded_tcbf.copy()
        target.a_merge(other)
        return target

    benchmark(merge)


def test_bench_decay_full_filter(benchmark, loaded_tcbf):
    def decay():
        target = loaded_tcbf.copy()
        target.decay(1.0)
        return target

    benchmark(decay)


def test_bench_bloom_query_baseline(benchmark):
    bf = BloomFilter.of(KEYS, family=FAMILY)
    benchmark(lambda: bf.query("NewMoon"))


# ---------------------------------------------------------------------------
# Batch kernels at broker scale
# ---------------------------------------------------------------------------

#: Broker-scale geometry for the batch kernels: a large filter (the
#: Sec. VI-D collections grow towards this) and thousands of keys per
#: batch call, which is where vectorization pays.
BATCH_M = 4096
BATCH_KEYS = [f"topic-{i}" for i in range(2000)]
BATCH_PROBES = [f"probe-{i}" for i in range(2000)]
BATCH_FAMILY = HashFamily(4, BATCH_M, seed=17)

RESULTS_DIR = Path(__file__).parent / "results"


def _loaded() -> TemporalCountingBloomFilter:
    tcbf = TemporalCountingBloomFilter(
        family=BATCH_FAMILY, initial_value=50.0, decay_factor=1.0
    )
    tcbf.insert_batch(BATCH_KEYS)
    return tcbf


def _best_seconds(fn, rounds: int = 30) -> float:
    """Minimum wall time over *rounds* calls (noise-resistant)."""
    fn()  # warm-up (hash cache, allocator)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _batch_timings() -> dict:
    """Best-of-N seconds of every batch kernel."""
    filt, operand = _loaded(), _loaded()
    # Pre-warm the hash cache so the timings isolate the counter store.
    BATCH_FAMILY.positions_batch(BATCH_KEYS)
    BATCH_FAMILY.positions_batch(BATCH_PROBES)
    ops = {
        "query_batch": lambda: filt.query_batch(BATCH_PROBES),
        "min_counter_batch": lambda: filt.min_counter_batch(BATCH_PROBES),
        "preference_batch": lambda: filt.preference_batch(
            BATCH_PROBES, operand
        ),
        "decay": lambda: filt.copy().decay(1.0),
        "a_merge": lambda: filt.copy().a_merge(operand),
        "m_merge": lambda: filt.copy().m_merge(operand),
        "insert_batch": lambda: TemporalCountingBloomFilter(
            family=BATCH_FAMILY, initial_value=50.0
        ).insert_batch(BATCH_KEYS),
    }
    return {name: _best_seconds(fn) for name, fn in ops.items()}


def test_bench_batch_kernels_json():
    """Record the batch-kernel timings to BENCH_tcbf.json."""
    report = {
        "geometry": {
            "num_bits": BATCH_M,
            "num_hashes": BATCH_FAMILY.num_hashes,
            "loaded_keys": len(BATCH_KEYS),
            "batch_size": len(BATCH_PROBES),
        },
        "host": {"cpu_count": os.cpu_count()},
        "seconds": _batch_timings(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_tcbf.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(report["seconds"], indent=2, sort_keys=True))
    assert all(seconds > 0 for seconds in report["seconds"].values())


def test_bench_batch_query(benchmark):
    filt = _loaded()
    BATCH_FAMILY.positions_batch(BATCH_PROBES)
    hits = benchmark(lambda: filt.query_batch(BATCH_PROBES))
    assert len(hits) == len(BATCH_PROBES)


def test_bench_batch_decay(benchmark):
    filt = _loaded()

    def decay():
        target = filt.copy()
        target.decay(1.0)
        return target

    benchmark(decay)


def test_bench_batch_m_merge(benchmark):
    filt, operand = _loaded(), _loaded()

    def merge():
        target = filt.copy()
        target.m_merge(operand)
        return target

    benchmark(merge)


# ---------------------------------------------------------------------------
# Filter zoo: the same kernels across every registered backend
# ---------------------------------------------------------------------------

from repro.core.filter_zoo import (  # noqa: E402
    load_keys,
    make_relay_filter,
    registered_backends,
)

from .conftest import zoo_bench_specs  # noqa: E402


def _zoo_loaded(backend: str):
    filt = make_relay_filter(
        zoo_bench_specs()[backend], family=BATCH_FAMILY
    )
    load_keys(filt, BATCH_KEYS)
    return filt


def test_zoo_bench_specs_cover_registry():
    """Registering filter #6 must extend the micro-benchmarks too."""
    assert set(zoo_bench_specs()) == set(registered_backends())


@pytest.mark.parametrize("backend", registered_backends())
def test_bench_zoo_announce_by_backend(benchmark, backend):
    spec = zoo_bench_specs()[backend]
    BATCH_FAMILY.positions_batch(BATCH_KEYS)

    def announce():
        filt = make_relay_filter(spec, family=BATCH_FAMILY)
        load_keys(filt, BATCH_KEYS)
        return filt

    filt = benchmark(announce)
    assert filt.query(BATCH_KEYS[0])


@pytest.mark.parametrize("backend", registered_backends())
def test_bench_zoo_query_batch_by_backend(benchmark, backend):
    filt = _zoo_loaded(backend)
    BATCH_FAMILY.positions_batch(BATCH_PROBES)
    hits = benchmark(lambda: filt.query_batch(BATCH_PROBES))
    assert len(hits) == len(BATCH_PROBES)


# ---------------------------------------------------------------------------
# Observability: disabled instrumentation must be (near) free
# ---------------------------------------------------------------------------

#: Maximum tolerated slowdown of the kernels under the disabled
#: `if recorder.enabled:` guard pattern protocol.py wraps them in.
NULL_RECORDER_OVERHEAD_LIMIT = 1.05


def test_bench_null_recorder_guard_overhead():
    """With tracing disabled, the guard pattern costs < 5% on the kernels.

    This times the same merge/decay/query kernel sequence the contact
    procedure runs, bare versus wrapped in the exact ``if
    recorder.enabled:`` guards used in ``repro.pubsub.protocol`` —
    asserting the observability layer is effectively free when off.
    Best-of-N minimum times with retries keep scheduler noise from
    producing false failures.
    """
    recorder = NULL_RECORDER
    filt, operand = _loaded(), _loaded()
    BATCH_FAMILY.positions_batch(BATCH_PROBES)

    def plain():
        target = filt.copy()
        target.m_merge(operand)
        target.a_merge(operand)
        target.decay(1.0)
        target.query_batch(BATCH_PROBES)

    def guarded():
        target = filt.copy()
        if recorder.enabled:
            recorder.emit("m_merge", t=0.0, node=0, peer=1)
        target.m_merge(operand)
        if recorder.enabled:
            recorder.emit("a_merge", t=0.0, node=0, src=1, kind="consumer")
        target.a_merge(operand)
        if recorder.enabled:
            recorder.emit("decay_tick", t=0.0, node=0, dt=1.0)
        target.decay(1.0)
        if recorder.enabled:
            recorder.emit("forward", t=0.0, msg=0, src=0, dst=1)
        target.query_batch(BATCH_PROBES)

    ratio = float("inf")
    for _attempt in range(5):
        baseline = _best_seconds(plain, rounds=50)
        instrumented = _best_seconds(guarded, rounds=50)
        ratio = min(ratio, instrumented / baseline)
        if ratio <= NULL_RECORDER_OVERHEAD_LIMIT:
            break
    print(f"null-recorder guard overhead: {(ratio - 1) * 100:.2f}%")
    assert ratio <= NULL_RECORDER_OVERHEAD_LIMIT, (
        f"disabled instrumentation slows the kernels by "
        f"{(ratio - 1) * 100:.1f}% (limit 5%)"
    )
