"""``broker-fanout``: the real ``BrokerServer`` session path, no sockets.

The benchmark hands :class:`~repro.serve.broker.BrokerServer`
in-memory reader/writer pairs through the accept callback it registers
with ``asyncio.start_server``.  2,000 sessions each subscribe to two
Table II interests; the load is closed-loop: a seeded random publisher
(one of a fixed 200) sends one 1-key publish with a 140 B payload, and
the next is sent once the broker has written the publish to its last
recipient.  Mean fan-out is about 217, so most of the work is
per-delivery dispatch, counting and encoding.  Broker tracing is off.
Latency is per delivery: from the publish's bytes reaching the broker
to the broker's write to that recipient.

Set-up (timed as ``setup_s``) is broker start plus every session's
``Hello`` and ``Subscribe``: the subscription writes.  The timed phase
is the publish loop: the reads.
"""

from __future__ import annotations

import asyncio
import gc
import struct
import time
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from gates import DeliveryTally, check_fanout
from layers import LoopLagMonitor, wrap_broker
from spans import SpanRecorder

__all__ = ["run_fanout", "MemoryWriter", "FrameCounter"]

SESSIONS = 2000
#: Publishes come from a fixed random tenth of the sessions.  The
#: broker keeps each session's last fan-out alive until that session's
#: next frame, so with every session publishing, peak RSS would keep
#: growing for as long as new publishers appear — faster code would
#: read as more memory.  With 200 publishers it plateaus within ~2 s.
PUBLISHERS = 200
INTERESTS_PER_SESSION = 2
PUBLISH_BATCH = 1024
PAYLOAD_BYTES = 140
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 15
#: A publish whose recipients are not all written within this long
#: counts its missing deliveries as failed and the loop moves on.
PUBLISH_TIMEOUT_S = 5.0
#: Delivery latencies are counted in buckets of one microsecond up to
#: one second (the last bucket holds anything slower), so the memory
#: they take does not grow with the number of deliveries.
LATENCY_UNIT_S = 1e-6
LATENCY_BUCKETS = 1_000_000

_FRAME_HEADER = struct.Struct("<BI")
_MESSAGE_HEADER = struct.Struct("<QIddBH")
_HELLO = 0x10
_BUNDLE = 0x14


class FrameCounter:
    """The benchmark's client side: splits each session's byte stream
    into frames, counts broker ``Hello`` replies, records the message
    ids of delivered bundles and counts each delivery's latency since
    :attr:`sent`, without building message objects."""

    def __init__(self, sessions: int):
        self.buffers: List[bytes] = [b""] * sessions
        self.hellos = 0
        self.decode_errors = 0
        #: (session, message id) pairs delivered since the last reset.
        self.delivered: List[tuple] = []
        self.expected_count = 0
        self.done: Optional[asyncio.Future] = None
        #: When the publish being delivered reached the broker.
        self.sent = 0.0
        self.latency_counts = array("I", [0]) * LATENCY_BUCKETS

    def feed(self, session: int, data: bytes) -> None:
        now = time.perf_counter()
        buf = self.buffers[session] + data if self.buffers[session] else data
        offset, size = 0, len(buf)
        while size - offset >= _FRAME_HEADER.size:
            kind, length = _FRAME_HEADER.unpack_from(buf, offset)
            body = offset + _FRAME_HEADER.size
            end = body + length
            if end > size:
                break
            if kind == _BUNDLE:
                self._bundle(session, buf, body, end, now)
            elif kind == _HELLO:
                self.hellos += 1
            else:
                self.decode_errors += 1
            offset = end
        self.buffers[session] = buf[offset:]

    def _bundle(self, session: int, buf: bytes, offset: int, end: int,
                now: float) -> None:
        count = int.from_bytes(buf[offset:offset + 2], "little")
        offset += 2
        bucket = min(int((now - self.sent) / LATENCY_UNIT_S),
                     LATENCY_BUCKETS - 1)
        for _ in range(count):
            if offset + _MESSAGE_HEADER.size > end:
                self.decode_errors += 1
                return
            msg_id, _, _, _, num_keys, payload = _MESSAGE_HEADER.unpack_from(
                buf, offset
            )
            offset += _MESSAGE_HEADER.size
            for _ in range(num_keys):
                offset += 1 + buf[offset]
            offset += payload
            self.delivered.append((session, msg_id))
            self.latency_counts[bucket] += 1
        if offset != end:
            self.decode_errors += 1
        if len(self.delivered) >= self.expected_count and self.done is not None:
            if not self.done.done():
                self.done.set_result(None)


class MemoryWriter:
    """The ``asyncio.StreamWriter`` surface the broker uses, backed by
    a :class:`FrameCounter` instead of a socket."""

    transport = None

    def __init__(self, reader: asyncio.StreamReader, session: int,
                 client: FrameCounter):
        self._reader = reader
        self._session = session
        self._client = client
        self._closing = False

    def write(self, data: bytes) -> None:
        self._client.feed(self._session, data)

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        if not self._closing:
            self._closing = True
            self._reader.feed_eof()

    def is_closing(self) -> bool:
        return self._closing

    async def wait_closed(self) -> None:
        return None

    def get_extra_info(self, name: str, default=None):
        return ("memory", self._session) if name == "peername" else default


class _Listener:
    """Stands in for the ``asyncio.Server`` the broker would own."""

    sockets = ()

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


async def _start_in_memory(server):
    """Start *server*, capturing the accept callback it registers."""
    captured = []

    async def start_server(callback, *args, **kwargs):
        captured.append(callback)
        return _Listener()

    real = asyncio.start_server
    asyncio.start_server = start_server
    try:
        await server.start()
    finally:
        asyncio.start_server = real
    return captured[0]


class _Setup:
    """One broker with every session connected and subscribed."""

    def __init__(self, interests: List[tuple]):
        self.interests = interests
        self.client = FrameCounter(len(interests))
        self.server = None
        self.readers: List[asyncio.StreamReader] = []
        self.tasks: List[asyncio.Task] = []

    async def start(self) -> float:
        from repro.pubsub.wire import Hello, Subscribe, encode_frame
        from repro.serve.broker import BrokerServer
        from repro.serve.spec import ServeSpec

        begin = time.perf_counter()
        self.server = BrokerServer(ServeSpec(port=0, idle_timeout_s=3600.0))
        accept = await _start_in_memory(self.server)
        for session, keys in enumerate(self.interests):
            reader = asyncio.StreamReader()
            writer = MemoryWriter(reader, session, self.client)
            self.readers.append(reader)
            self.tasks.append(asyncio.ensure_future(accept(reader, writer)))
            reader.feed_data(
                encode_frame(Hello(node_id=session + 1, is_broker=False,
                                   degree=0, time=0.0))
                + encode_frame(Subscribe(keys))
            )
        while self.client.hellos < len(self.interests):
            await asyncio.sleep(0)
        return time.perf_counter() - begin

    async def stop(self) -> None:
        await self.server.stop()
        await asyncio.gather(*self.tasks, return_exceptions=True)


def _interests(rng) -> List[tuple]:
    """Each session's interests, drawn by Table II weight."""
    from repro.workload.keys import twitter_trends_2009

    distribution = twitter_trends_2009()
    return [
        tuple(sorted(set(distribution.sample_many(rng, INTERESTS_PER_SESSION))))
        for _ in range(SESSIONS)
    ]


def _publishes(rng) -> Iterator[Tuple[int, str]]:
    """The endless seeded publish stream: (publisher session, key)
    pairs, drawn :data:`PUBLISH_BATCH` at a time so it is never held
    whole."""
    from repro.workload.keys import twitter_trends_2009

    distribution = twitter_trends_2009()
    pool = rng.choice(SESSIONS, size=PUBLISHERS, replace=False)
    while True:
        publishers = pool[
            rng.integers(0, PUBLISHERS, size=PUBLISH_BATCH)
        ].tolist()
        yield from zip(publishers,
                       distribution.sample_many(rng, PUBLISH_BATCH))


def _subscribers(interests: List[tuple]) -> Dict[str, List[int]]:
    index: Dict[str, List[int]] = {}
    for session, keys in enumerate(interests):
        for key in keys:
            index.setdefault(key, []).append(session)
    return index


async def _publish_phase(setup: _Setup, publishes, subscribers,
                         seconds: float):
    from repro.pubsub.messages import Message
    from repro.pubsub.wire import MessageBundle, encode_frame

    client = setup.client
    loop = asyncio.get_running_loop()
    payload = bytes(PAYLOAD_BYTES)
    tally = DeliveryTally()
    published = 0
    begin = time.perf_counter()
    deadline = begin + seconds
    for publisher, key in publishes:
        if time.perf_counter() >= deadline:
            break
        message = Message.create(
            keys=(key,), source=publisher + 1, created_at=0.0, ttl_s=3600.0,
            size_bytes=PAYLOAD_BYTES,
        )
        expected = [
            (s, message.id) for s in subscribers.get(key, ()) if s != publisher
        ]
        frame = encode_frame(MessageBundle((message,), (payload,)))
        client.delivered = []
        client.expected_count = len(expected)
        client.done = loop.create_future()
        if not expected:
            client.done.set_result(None)
        client.sent = time.perf_counter()
        setup.readers[publisher].feed_data(frame)
        try:
            await asyncio.wait_for(client.done, PUBLISH_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        tally.add(expected, client.delivered)
        published += 1
    end = time.perf_counter()
    wall = end - begin
    client.done = None
    tally.decode_errors = client.decode_errors
    return {
        "window": (begin, end),
        "wall_s": wall,
        "published": published,
        "tally": tally,
        "latency_counts": client.latency_counts,
    }


async def _measure(seed, seconds, setups, rec=None):
    rng = np.random.default_rng(seed)
    interests = _interests(rng)
    subscribers = _subscribers(interests)
    setup_times = []
    for i in range(setups):
        setup = _Setup(interests)
        gc.collect()
        if rec is not None:
            rec.active = True
        setup_begin = time.perf_counter()
        setup_times.append(await setup.start())
        setup_window = (setup_begin, time.perf_counter())
        if i < setups - 1:
            await setup.stop()
    lag = LoopLagMonitor() if rec is not None else None
    if lag is not None:
        lag.start()
    phase = await _publish_phase(setup, _publishes(rng), subscribers, seconds)
    if lag is not None:
        await lag.stop()
        phase["loop_lags_s"] = lag.lags_s
    if rec is not None:
        rec.active = False
    phase["deliveries_total"] = setup.server.registry.counter(
        "serve_deliveries_total"
    ).value
    await setup.stop()
    phase["setup_times"] = setup_times
    phase["setup_window"] = setup_window
    return phase


def run_fanout(seed: int, seconds: float, traced: bool) -> Dict:
    untraced = asyncio.run(_measure(seed, seconds, SETUPS))
    tally = untraced["tally"]
    verdict = check_fanout(tally, untraced["deliveries_total"])
    deliveries = tally.received
    out = {
        "params": {
            "sessions": SESSIONS, "publishers": PUBLISHERS,
            "interests_per_session":
            INTERESTS_PER_SESSION, "payload_bytes": PAYLOAD_BYTES,
            "keys_per_publish": 1, "loop": "closed", "transport": "memory",
            "broker_trace": False, "setups": SETUPS,
        },
        "work": {
            "publishes": untraced["published"],
            "deliveries": deliveries,
            "fanout_mean": deliveries / max(1, untraced["published"]),
            "publish_wall_s": untraced["wall_s"],
        },
        "throughput_per_s": deliveries / untraced["wall_s"],
        "latency_counts": untraced["latency_counts"],
        "latency_unit_s": LATENCY_UNIT_S,
        "setup_samples_s": untraced["setup_times"],
        "layer": {},
    }
    if traced:
        rec = SpanRecorder()
        try:
            out["missing"] = wrap_broker(rec, MemoryWriter)
            rec.wrap(FrameCounter, "feed", "bench.client.feed", "bench.client")
            phase = asyncio.run(_measure(seed, seconds, 1, rec))
        finally:
            rec.restore()
        t_tally = phase["tally"]
        verdict.absorb(check_fanout(t_tally, phase["deliveries_total"]))
        out.update(
            recorder=rec,
            window=phase["window"],
            setup_window=phase["setup_window"],
            traced_units=t_tally.received,
            traced_cost_s=phase["wall_s"],
            untraced_unit_s=untraced["wall_s"] / max(1, deliveries),
            deliveries=t_tally.received,
            loop_lags_s=phase["loop_lags_s"],
        )
        out["layer"]["serve.dispatcher.fanout_mean"] = (
            t_tally.received / max(1, phase["published"])
        )
    out["verdict"] = verdict
    return out
