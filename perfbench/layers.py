"""Which public functions the traced run wraps, layer by layer.

Each plan calls :meth:`SpanRecorder.wrap` on the names the program's
callers look up.  A name that no longer exists is skipped and listed,
so a renamed function shows up as a missing layer rather than a crash.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import List

from spans import SpanRecorder

__all__ = [
    "SIM_LAYERS", "BROKER_LAYERS", "BENCH_LAYERS", "LoopLagMonitor",
    "wrap_simulator", "wrap_broker",
]

SIM_LAYERS = (
    "dtn.simulator",
    "pubsub.protocol",
    "pubsub.broker_allocation",
    "pubsub.node",
    "pubsub.metrics",
    "core.tcbf",
    "core.bloom",
    "core.hashing",
)
BROKER_LAYERS = (
    "pubsub.wire",
    "serve.dispatcher",
    "serve.broker",
    "obs.registry",
    "obs.recorder",
)
#: The benchmark's own client work done inside the traced process.
BENCH_LAYERS = ("bench.client",)

#: core.tcbf span name -> the TemporalCountingBloomFilter methods it covers.
_TCBF_GROUPS = {
    "advance": ("advance", "decay"),
    "merge": ("a_merge", "m_merge", "a_merged", "m_merged"),
    "query": (
        "query", "query_all", "query_batch", "min_counter",
        "min_counter_batch", "preference", "preference_batch",
    ),
    "copy": ("copy",),
    "insert": ("insert", "insert_all", "insert_batch", "refresh"),
}
_METRICS_METHODS = (
    "register_message", "record_forwarding", "record_injection",
    "record_delivery", "was_delivered_to", "is_intended",
    "num_intended_recipients", "message_index",
)


def _wrap(rec: SpanRecorder, missing: List[str], owner, attr: str,
          name: str, layer: str, **hooks) -> None:
    if getattr(owner, attr, None) is None:
        missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    rec.wrap(owner, attr, name, layer, **hooks)


def wrap_simulator(rec: SpanRecorder) -> List[str]:
    """Wrap the simulator's layers; returns names that were missing.

    Spans started by a contact carry the contact's index as request
    id; those started by a message creation carry the message id.
    """
    from repro.core.bloom import BloomFilter
    from repro.core.hashing import HashFamily
    from repro.core.tcbf import TemporalCountingBloomFilter
    from repro.dtn.simulator import Simulation
    from repro.pubsub.broker_allocation import BrokerElection
    from repro.pubsub.metrics import MetricsCollector
    from repro.pubsub.node import BsubNodeState
    from repro.pubsub.protocol import BsubProtocol

    missing: List[str] = []
    contact_index = itertools.count()
    _wrap(rec, missing, Simulation, "run", "dtn.simulator.run",
          "dtn.simulator")
    _wrap(rec, missing, BsubProtocol, "on_contact",
          "pubsub.protocol.on_contact", "pubsub.protocol",
          request=lambda args: next(contact_index))
    _wrap(rec, missing, BsubProtocol, "on_message_created",
          "pubsub.protocol.on_message_created", "pubsub.protocol",
          request=lambda args: args[2].id)
    _wrap(rec, missing, BrokerElection, "on_contact",
          "pubsub.broker_allocation.on_contact", "pubsub.broker_allocation")
    for method in ("purge_expired", "carry", "produce"):
        _wrap(rec, missing, BsubNodeState, method, f"pubsub.node.{method}",
              "pubsub.node")
    for method in _METRICS_METHODS:
        _wrap(rec, missing, MetricsCollector, method,
              f"pubsub.metrics.{method}", "pubsub.metrics")
    for group, methods in _TCBF_GROUPS.items():
        for method in methods:
            _wrap(rec, missing, TemporalCountingBloomFilter, method,
                  f"core.tcbf.{group}", "core.tcbf")
    for method in ("query", "query_batch"):
        _wrap(rec, missing, BloomFilter, method, "core.bloom.query",
              "core.bloom")
    _wrap(rec, missing, HashFamily, "positions_batch",
          "core.hashing.positions_batch", "core.hashing",
          measure=lambda args: len(args[1]))
    _wrap(rec, missing, HashFamily, "positions", "core.hashing.positions",
          "core.hashing")
    return missing


def wrap_broker(rec: SpanRecorder, writer_cls) -> List[str]:
    """Wrap the broker's layers; returns names that were missing.

    *writer_cls* is the stream-writer class the broker writes to (the
    socket writer, or the benchmark's in-memory one).  Spans of a
    publish carry the broker message id it is about to mint.
    """
    from repro.obs.recorder import TraceRecorder
    from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
    from repro.pubsub.wire import MessageBundle, StreamDecoder
    from repro.serve import broker as broker_module
    from repro.serve.dispatcher import BrokerCore

    missing: List[str] = []

    def publish_request(args) -> int:
        core, frame = args[0], args[2]
        if not isinstance(frame, MessageBundle):
            return -1
        return getattr(core, "_published", -1)

    _wrap(rec, missing, StreamDecoder, "feed", "pubsub.wire.decode",
          "pubsub.wire", measure=lambda args: len(args[1]))
    _wrap(rec, missing, broker_module, "encode_frame", "pubsub.wire.encode",
          "pubsub.wire")
    _wrap(rec, missing, BrokerCore, "handle_frame",
          "serve.dispatcher.handle_frame", "serve.dispatcher",
          request=publish_request)
    for method, name in (
        ("on_publish", "publish"), ("on_subscribe", "subscribe"),
        ("on_hello", "hello"), ("connect", "session"),
        ("disconnect", "session"),
    ):
        _wrap(rec, missing, BrokerCore, method, f"serve.dispatcher.{name}",
              "serve.dispatcher")
    for cls, method in (
        (MetricsRegistry, "counter"), (MetricsRegistry, "gauge"),
        (MetricsRegistry, "histogram"), (Counter, "inc"), (Gauge, "set"),
        (Histogram, "observe"),
    ):
        _wrap(rec, missing, cls, method, "obs.registry", "obs.registry")
    _wrap(rec, missing, TraceRecorder, "emit", "obs.recorder.emit",
          "obs.recorder")

    def backlog(args) -> float:
        transport = getattr(args[0], "transport", None)
        return float(transport.get_write_buffer_size()) if transport else 0.0

    _wrap(rec, missing, writer_cls, "write", "serve.broker.write",
          "serve.broker", after=backlog)
    _wrap_drain(rec, writer_cls)
    return missing


def _wrap_drain(rec: SpanRecorder, writer_cls) -> None:
    """Sum the time the broker waits in ``drain()``.  Waiting overlaps
    other tasks' work, so it is a total, not a span."""
    original = writer_cls.drain

    async def drain(self):
        if not rec.active:
            return await original(self)
        begin = time.perf_counter()
        try:
            return await original(self)
        finally:
            rec.totals["serve.broker.drain"] = (
                rec.totals.get("serve.broker.drain", 0.0)
                + time.perf_counter() - begin
            )

    rec.patch(writer_cls, "drain", drain)


class LoopLagMonitor:
    """Measures how late the event loop wakes a task that sleeps
    :attr:`INTERVAL_S` at a time: a direct reading of loop stalls."""

    INTERVAL_S = 0.001

    def __init__(self):
        self.lags_s: List[float] = []
        self._task = None

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())

    async def _run(self) -> None:
        while True:
            due = time.perf_counter() + self.INTERVAL_S
            await asyncio.sleep(self.INTERVAL_S)
            self.lags_s.append(max(0.0, time.perf_counter() - due))

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
