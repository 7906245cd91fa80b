"""Metric names, units and how they are computed from a workload run.

``BENCHMARK.json`` lists the same names; ``tests/test_contract.py``
keeps the two in step.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Tuple

from layers import BENCH_LAYERS, BROKER_LAYERS, SIM_LAYERS
from stats import percentile, percentile_of_counts

__all__ = [
    "END_TO_END", "PER_LAYER", "RECORDED_LATENCIES", "end_to_end", "per_layer",
]

#: (name, unit, better).  Every workload reports every metric.
#: ``throughput_per_s`` is contacts ÷ wall time of ``Simulation.run`` on
#: sim-* (the median replay), deliveries written ÷ publish-phase wall
#: time on broker-fanout, and deliveries decoded ÷ the broker process's
#: CPU time on broker-loopback-traced (an open loop, whose delivery
#: rate is the offered rate).  ``setup_s`` is the median of the run's
#: identical set-ups (each after a garbage collection).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Printed and recorded beside :data:`END_TO_END`, not gated.  They
#: time one contact's ``on_contact`` on sim-*, a delivery from its
#: publish's bytes reaching the broker to the write to that recipient
#: on broker-fanout, and a publish from its due time to its decode at
#: the subscriber on broker-loopback-traced, over every sample of the
#: run.  On a shared host they follow the host's stalls more than the
#: program: the loopback p50 went from 1.1 ms to 1.9-2.6 ms for minutes
#: at a time, with the generator's own lag p99 from 1.3 ms to 7-12 ms.
RECORDED_LATENCIES = (
    ("latency_p50_ms", 0.50), ("latency_p90_ms", 0.90),
    ("latency_p99_ms", 0.99),
)

ALL_LAYERS = SIM_LAYERS + BROKER_LAYERS + BENCH_LAYERS

#: (name, unit) of every metric the traced run reports.  Time spent in
#: a layer is reported as its share of the traced phase's wall time
#: (``.share``; the seconds are in the run record): a layer a workload
#: never enters then reads 0 as a ratio, not as a constant time, and the
#: share is the ceiling on what speeding that layer up can gain.  The
#: event-loop and generator lag percentiles exist only on the broker
#: workloads, so they are printed and recorded, not listed here.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((f"{layer}.share", "ratio") for layer in ALL_LAYERS)
    + (
        ("unattributed_share", "ratio"),
        ("trace_overhead_s", "s"),
        ("trace_overhead_frac", "ratio"),
        ("core.hashing.positions_batch.share", "ratio"),
        ("core.hashing.positions_batch.calls", "count"),
        ("core.hashing.keys_per_call", "ratio"),
        ("core.tcbf.advance.share", "ratio"),
        ("core.tcbf.merge.share", "ratio"),
        ("core.tcbf.query.share", "ratio"),
        ("core.tcbf.copy.share", "ratio"),
        ("pubsub.broker_allocation.on_contact.share", "ratio"),
        ("pubsub.node.purge_expired.share", "ratio"),
        ("pubsub.node.carry.share", "ratio"),
        ("pubsub.node.produce.share", "ratio"),
        ("pubsub.node.carry.calls", "count"),
        ("pubsub.metrics.calls", "count"),
        ("pubsub.protocol.on_contact.share", "ratio"),
        ("pubsub.protocol.on_message_created.share", "ratio"),
        ("dtn.simulator.run.share", "ratio"),
        ("pubsub.protocol.delivery_ratio", "ratio"),
        ("pubsub.protocol.forwardings_per_delivery", "ratio"),
        ("pubsub.protocol.useful_injection_ratio", "ratio"),
        ("serve.dispatcher.publish.share", "ratio"),
        ("serve.dispatcher.subscribe.share", "ratio"),
        ("serve.dispatcher.hello.share", "ratio"),
        ("serve.dispatcher.fanout_mean", "ratio"),
        ("pubsub.wire.encode.share", "ratio"),
        ("pubsub.wire.encode.calls_per_delivery", "ratio"),
        ("obs.registry.calls_per_delivery", "ratio"),
        ("obs.recorder.emit.share", "ratio"),
        ("obs.recorder.events_per_delivery", "ratio"),
        ("pubsub.wire.decode.share", "ratio"),
        ("pubsub.wire.decode.bytes", "bytes"),
        ("serve.broker.write.share", "ratio"),
        ("serve.broker.drain.wait_share", "ratio"),
    )
)

#: Per-name metrics measured in the set-up window, not the timed one.
_SETUP_NAMES = ("serve.dispatcher.subscribe", "serve.dispatcher.hello")


def _latency_percentile(out: Dict, q: float):
    """From the run's samples, or from its microsecond histogram."""
    if "latency_counts" in out:
        return percentile_of_counts(
            out["latency_counts"], q, out["latency_unit_s"]
        )
    return percentile(out["latency_samples_s"], q)


def end_to_end(out: Dict, rss_mb: float) -> Dict[str, float]:
    """The end-to-end values, and the recorded latency percentiles: a
    percentile without ten samples beyond it is left out (``None``)."""
    values = {
        "throughput_per_s": out["throughput_per_s"],
        "setup_s": statistics.median(out["setup_samples_s"]),
        "peak_rss_mb": rss_mb,
    }
    for name, q in RECORDED_LATENCIES:
        value = _latency_percentile(out, q)
        values[name] = value * 1000.0 if value is not None else None
    return values


def per_layer(out: Dict) -> Tuple[Dict[str, float], Dict]:
    """Per-layer values for the traced run, plus the full span table."""
    rec = out["recorder"]
    window = out["window"]
    wall = window[1] - window[0]
    table = rec.summarize(window)
    values: Dict[str, float] = defaultdict(float)
    by_layer: Dict[str, float] = defaultdict(float)
    for name, row in table.items():
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.calls"] = row["calls"]
        by_layer[row["layer"]] += row["self_s"]
    if "setup_window" in out:
        setup_table = rec.summarize(out["setup_window"])
        for name in _SETUP_NAMES:
            if name in setup_table:
                values[f"{name}.self_s"] = setup_table[name]["self_s"]
    for layer in ALL_LAYERS:
        values[f"{layer}.self_s"] = by_layer[layer]
    attributed = sum(by_layer.values())
    values["unattributed_s"] = wall - attributed
    values["traced_wall_s"] = wall

    cost = out.get("traced_cost_s", wall)
    baseline = out["untraced_unit_s"] * out["traced_units"]
    values["trace_overhead_s"] = cost - baseline
    values["trace_overhead_frac"] = (cost - baseline) / baseline

    batch = values["core.hashing.positions_batch.calls"]
    if batch:
        values["core.hashing.keys_per_call"] = (
            rec.totals.get("core.hashing.positions_batch", 0.0) / batch
        )
    deliveries = out.get("deliveries", 0)
    if deliveries:
        values["pubsub.wire.encode.calls_per_delivery"] = (
            values["pubsub.wire.encode.calls"] / deliveries
        )
        values["obs.registry.calls_per_delivery"] = (
            values["obs.registry.calls"] / deliveries
        )
        values["obs.recorder.events_per_delivery"] = (
            values["obs.recorder.emit.calls"] / deliveries
        )
    values["pubsub.metrics.calls"] = sum(
        row["calls"] for row in table.values()
        if row["layer"] == "pubsub.metrics"
    )
    values["pubsub.wire.decode.bytes"] = rec.totals.get("pubsub.wire.decode", 0.0)
    values["serve.broker.drain.wait_s"] = rec.totals.get("serve.broker.drain", 0.0)
    values["serve.broker.write_backlog_max_bytes"] = rec.maxima.get(
        "serve.broker.write", 0.0
    )
    lag = percentile(out.get("loop_lags_s", ()), 0.99)
    if lag is not None:
        values["serve.broker.loop_lag_p99_ms"] = lag * 1000.0
    values.update(out.get("layer", {}))
    # Shares: subscribe/hello of the set-up window, the rest of the
    # timed one.
    setup = out.get("setup_window")
    setup_wall = setup[1] - setup[0] if setup else 0.0
    for key in [k for k in values if k.endswith(".self_s")]:
        base = key[: -len(".self_s")]
        span = setup_wall if base in _SETUP_NAMES else wall
        values[f"{base}.share"] = values[key] / span if span else 0.0
    values["unattributed_share"] = values["unattributed_s"] / wall
    values["serve.broker.drain.wait_share"] = (
        values["serve.broker.drain.wait_s"] / wall
    )
    detail = {
        "window_s": wall,
        "spans": len(rec),
        "layer_sum_ok": -1e-9 <= attributed <= wall * (1 + 1e-9),
        "missing_wraps": out.get("missing", []),
        "table": table,
    }
    return dict(values), detail
