"""Compact wire encoding for BF/TCBF exchange (paper Sec. VI-C).

Because the fill ratio is usually low, a filter is cheaper to transmit
as a list of set-bit *locations* (⌈log2 m⌉ bits each; exactly one byte
for the paper's m = 256) than as the raw m-bit vector.  Counters are
1 byte each and can be elided in two ways the paper calls out:

* all counters identical (a freshly inserted genuine filter) — send one
  shared counter value;
* counters not needed by the receiver (a broker requesting messages
  from a producer) — strip them entirely, leaving a plain BF.

The encoder picks the compact form unless the raw bit-vector is
smaller, mirroring the ``S·⌈log2 m⌉ < m`` condition.

Counters are floats internally (lazy decay) but 1 byte on the wire: the
encoder scales them by ``counter_scale`` — with the paper's 24-hour
maximum delay and C = 50 this gives the "5.6-minute granularity" noted
in Sec. VI-C.  Quantisation only affects transmitted copies; local
filters keep full precision.
"""

from __future__ import annotations

import math
import struct
from typing import Optional, Tuple

from .bloom import BloomFilter
from .hashing import HashFamily
from .tcbf import TemporalCountingBloomFilter

__all__ = [
    "encode_bloom",
    "decode_bloom",
    "encode_tcbf",
    "decode_tcbf",
    "encoded_bloom_size",
    "encoded_tcbf_size",
]

# Wire format tags.
_TAG_LOCATIONS = 0x01         # set-bit locations, no counters
_TAG_RAW_BITS = 0x02          # raw bit-vector
_TAG_FULL_COUNTERS = 0x03     # locations + per-bit quantised counter
_TAG_SHARED_COUNTER = 0x04    # locations + one shared quantised counter
_TAG_RAW_FULL_COUNTERS = 0x05  # raw bit-vector + counters in position order

_HEADER = struct.Struct("<BHH")  # tag, num_bits, num_set_bits
_SCALE = struct.Struct("<f")


def _location_bytes(num_bits: int) -> int:
    """Whole bytes used per location on the wire (ceil of ⌈log2 m⌉/8)."""
    return max(1, math.ceil(math.ceil(math.log2(num_bits)) / 8))


def _pack_locations(positions, width: int) -> bytes:
    return b"".join(p.to_bytes(width, "little") for p in sorted(positions))


def _unpack_locations(data: bytes, count: int, width: int) -> Tuple[int, ...]:
    return tuple(
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(count)
    )


def _pack_raw_bits(positions, num_bits: int) -> bytes:
    vector = bytearray((num_bits + 7) // 8)
    for p in positions:
        vector[p // 8] |= 1 << (p % 8)
    return bytes(vector)


def _unpack_raw_bits(data: bytes, num_bits: int) -> Tuple[int, ...]:
    return tuple(
        p for p in range(num_bits) if data[p // 8] & (1 << (p % 8))
    )


def encode_bloom(bf: BloomFilter) -> bytes:
    """Encode a plain BF: locations if compact, raw bits otherwise."""
    width = _location_bytes(bf.num_bits)
    positions = bf.set_bits
    compact_size = len(positions) * width
    raw_size = (bf.num_bits + 7) // 8
    if compact_size <= raw_size:
        header = _HEADER.pack(_TAG_LOCATIONS, bf.num_bits, len(positions))
        return header + _pack_locations(positions, width)
    header = _HEADER.pack(_TAG_RAW_BITS, bf.num_bits, len(positions))
    return header + _pack_raw_bits(positions, bf.num_bits)


def _checked_header(data: bytes, family: HashFamily) -> Tuple[int, int, int]:
    """Parse and sanity-check the common filter header.

    Raises ``ValueError`` (never struct/index errors) on short input,
    geometry mismatch, or a set-bit count exceeding the filter size —
    the defences a receiver of corrupted bytes needs before trusting
    any length derived from the header.
    """
    if len(data) < _HEADER.size:
        raise ValueError(
            f"filter header needs {_HEADER.size} bytes, got {len(data)}"
        )
    tag, num_bits, count = _HEADER.unpack_from(data)
    if num_bits != family.num_bits:
        raise ValueError(
            f"encoded filter has m={num_bits}, family expects {family.num_bits}"
        )
    if count > num_bits:
        raise ValueError(f"claims {count} set bits in an m={num_bits} filter")
    return tag, num_bits, count


def _require(body: bytes, needed: int, what: str) -> None:
    if len(body) < needed:
        raise ValueError(f"truncated filter body: {what} needs {needed} bytes, "
                         f"got {len(body)}")


def _checked_locations(
    body: bytes, count: int, width: int, num_bits: int
) -> Tuple[int, ...]:
    positions = _unpack_locations(body, count, width)
    for position in positions:
        if position >= num_bits:
            raise ValueError(
                f"bit location {position} out of range for m={num_bits}"
            )
    return positions


def decode_bloom(data: bytes, family: HashFamily) -> BloomFilter:
    """Decode :func:`encode_bloom` output against a known hash family.

    Raises ``ValueError`` on any malformed input — short buffers,
    geometry mismatches, impossible counts, out-of-range locations —
    and never reads past the supplied bytes.
    """
    tag, num_bits, count = _checked_header(data, family)
    body = data[_HEADER.size :]
    if tag == _TAG_LOCATIONS:
        width = _location_bytes(num_bits)
        _require(body, count * width, f"{count} locations")
        positions = _checked_locations(body, count, width, num_bits)
    elif tag == _TAG_RAW_BITS:
        _require(body, (num_bits + 7) // 8, "the raw bit-vector")
        positions = _unpack_raw_bits(body, num_bits)
    else:
        raise ValueError(f"unexpected wire tag {tag:#x} for a plain BF")
    return BloomFilter.from_bits(positions, family)


def _quantise(value: float, scale: float) -> int:
    """Map a positive counter onto 1..255 (0 is reserved for 'unset')."""
    return max(1, min(255, round(value / scale)))


def encode_tcbf(
    tcbf: TemporalCountingBloomFilter,
    counters: str = "full",
    counter_scale: Optional[float] = None,
) -> bytes:
    """Encode a TCBF for transmission.

    Parameters
    ----------
    counters:
        ``"full"`` (per-bit counters), ``"identical"`` (one shared
        value — valid only when all counters are equal, e.g. a freshly
        inserted genuine filter), or ``"none"`` (strip counters; the
        receiver gets a plain BF).
    counter_scale:
        Counter units per quantisation step.  Defaults to
        ``max(largest counter, C) / 255`` so the full byte range covers
        the filter — A-merge reinforcement pushes counters well above
        the initial value, and clipping them would erase exactly the
        relationship the preferential query compares.  The scale is
        carried in the frame, so receivers adapt automatically.
    """
    items = tcbf.items()
    if counter_scale is not None:
        scale = counter_scale
    else:
        peak = max((v for _, v in items), default=tcbf.initial_value)
        scale = max(peak, tcbf.initial_value, 1e-9) / 255.0
    width = _location_bytes(tcbf.num_bits)

    if counters == "none":
        return encode_bloom(tcbf.to_bloom())

    if counters == "identical":
        values = {q for _, v in items for q in (_quantise(v, scale),)}
        if len(values) > 1:
            raise ValueError(
                "counters='identical' requires all counters equal "
                f"(after quantisation); found {len(values)} distinct values"
            )
        shared = values.pop() if values else _quantise(tcbf.initial_value, scale)
        header = _HEADER.pack(_TAG_SHARED_COUNTER, tcbf.num_bits, len(items))
        body = _pack_locations((p for p, _ in items), width)
        return header + _SCALE.pack(scale) + bytes([shared]) + body

    if counters != "full":
        raise ValueError(
            f"counters must be 'full', 'identical' or 'none', got {counters!r}"
        )
    values = bytes(_quantise(v, scale) for _, v in items)
    # The Sec. VI-C fallback: once the filter is dense enough that the
    # location list outgrows the raw m-bit vector, send the vector and
    # the counters in ascending-position order.
    if len(items) * width > (tcbf.num_bits + 7) // 8:
        header = _HEADER.pack(_TAG_RAW_FULL_COUNTERS, tcbf.num_bits, len(items))
        bits = _pack_raw_bits((p for p, _ in items), tcbf.num_bits)
        return header + _SCALE.pack(scale) + bits + values
    header = _HEADER.pack(_TAG_FULL_COUNTERS, tcbf.num_bits, len(items))
    locations = _pack_locations((p for p, _ in items), width)
    return header + _SCALE.pack(scale) + locations + values


def decode_tcbf(
    data: bytes,
    family: HashFamily,
    initial_value: float,
    decay_factor: float = 0.0,
    time: float = 0.0,
) -> TemporalCountingBloomFilter:
    """Decode :func:`encode_tcbf` output (``full`` or ``identical`` forms).

    The resulting filter is marked *merged* — a received filter is never
    an insertion target (Sec. IV-A), only a merge operand.

    Raises ``ValueError`` on any malformed input — short buffers,
    impossible counts, out-of-range locations, or a non-finite /
    non-positive counter scale — and never reads past the supplied
    bytes.
    """
    tag, num_bits, count = _checked_header(data, family)
    width = _location_bytes(num_bits)
    body = data[_HEADER.size :]
    tcbf = TemporalCountingBloomFilter(
        family=family,
        initial_value=initial_value,
        decay_factor=decay_factor,
        time=time,
    )
    if tag not in (_TAG_FULL_COUNTERS, _TAG_RAW_FULL_COUNTERS, _TAG_SHARED_COUNTER):
        raise ValueError(
            f"unexpected wire tag {tag:#x} for a TCBF (use decode_bloom "
            "for counter-stripped filters)"
        )
    _require(body, _SCALE.size, "the counter scale")
    (scale,) = _SCALE.unpack_from(body)
    if not math.isfinite(scale) or scale <= 0.0:
        raise ValueError(f"counter scale must be finite and positive, got {scale}")
    body = body[_SCALE.size :]
    if tag == _TAG_FULL_COUNTERS:
        expected = count * width + count
        _require(body, expected, f"{count} locations + counters")
        positions = _checked_locations(body, count, width, num_bits)
        values = body[count * width : count * width + count]
        for position, raw in zip(positions, values):
            tcbf._set_counter(position, raw * scale)
    elif tag == _TAG_RAW_FULL_COUNTERS:
        vector_len = (num_bits + 7) // 8
        expected = vector_len + count
        _require(body, expected, "the bit-vector + counters")
        positions = _unpack_raw_bits(body[:vector_len], num_bits)
        if len(positions) != count:
            raise ValueError(
                f"bit-vector has {len(positions)} set bits but header "
                f"claims {count}"
            )
        values = body[vector_len : vector_len + count]
        for position, raw in zip(positions, values):  # ascending order
            tcbf._set_counter(position, raw * scale)
    else:  # _TAG_SHARED_COUNTER
        expected = 1 + count * width
        _require(body, expected, "the shared counter + locations")
        shared = body[0]
        positions = _checked_locations(body[1:], count, width, num_bits)
        for position in positions:
            tcbf._set_counter(position, shared * scale)
    if len(body) != expected:
        raise ValueError(
            f"TCBF frame has {len(body) - expected} trailing bytes"
        )
    tcbf._merged = True
    return tcbf


def encoded_bloom_size(bf: BloomFilter) -> int:
    """Wire size of :func:`encode_bloom` output, in bytes."""
    return len(encode_bloom(bf))


def encoded_tcbf_size(
    tcbf: TemporalCountingBloomFilter, counters: str = "full"
) -> int:
    """Wire size of :func:`encode_tcbf` output, in bytes."""
    return len(encode_tcbf(tcbf, counters=counters))
