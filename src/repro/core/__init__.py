"""Core data structures: Bloom filter family and the TCBF.

This package implements the paper's primary contribution — the Temporal
Counting Bloom Filter (Sec. IV) — together with its classic BF/CBF
background (Sec. III), the closed-form analysis (Sec. III, VI), the
optimal multi-filter allocation (Sec. VI-D), and the compact wire
encoding (Sec. VI-C).
"""

from .analysis import (
    expected_min_collisions,
    expected_set_bits,
    expected_unique_keys,
    false_positive_rate,
    fill_ratio,
    filter_memory_bytes,
    joint_false_positive_rate,
    keys_from_fill_ratio,
    multi_filter_memory_bytes,
    raw_string_memory_bytes,
    recommended_decay_factor,
)
from .allocation import (
    AllocationPlan,
    TCBFCollection,
    plan_allocation,
    plan_allocation_brute,
)
from .bloom import BloomFilter
from .counting_bloom import CountingBloomFilter
from .countbf import CountBF2D
from .filter_zoo import (
    FILTER_BACKENDS,
    FilterBackendSpec,
    decode_filter,
    encode_filter,
    load_keys,
    make_relay_filter,
    parse_filter_spec,
    registered_backends,
)
from .hashing import DEFAULT_SEED, HashFamily
from .retouched import RetouchedTCBF, RetouchPlan, plan_retouch
from .serialization import (
    decode_bloom,
    decode_tcbf,
    encode_bloom,
    encode_tcbf,
    encoded_bloom_size,
    encoded_tcbf_size,
)
from .tcbf import DEFAULT_INITIAL_VALUE, TemporalCountingBloomFilter

__all__ = [
    "AllocationPlan",
    "BloomFilter",
    "CountBF2D",
    "CountingBloomFilter",
    "DEFAULT_INITIAL_VALUE",
    "DEFAULT_SEED",
    "FILTER_BACKENDS",
    "FilterBackendSpec",
    "HashFamily",
    "RetouchPlan",
    "RetouchedTCBF",
    "TCBFCollection",
    "TemporalCountingBloomFilter",
    "decode_bloom",
    "decode_filter",
    "decode_tcbf",
    "encode_bloom",
    "encode_filter",
    "encode_tcbf",
    "encoded_bloom_size",
    "encoded_tcbf_size",
    "expected_min_collisions",
    "expected_set_bits",
    "expected_unique_keys",
    "false_positive_rate",
    "fill_ratio",
    "filter_memory_bytes",
    "joint_false_positive_rate",
    "keys_from_fill_ratio",
    "load_keys",
    "make_relay_filter",
    "multi_filter_memory_bytes",
    "parse_filter_spec",
    "plan_allocation",
    "plan_allocation_brute",
    "plan_retouch",
    "raw_string_memory_bytes",
    "recommended_decay_factor",
    "registered_backends",
]
