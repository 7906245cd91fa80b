#!/usr/bin/env python3
"""Open-loop load generator for ``broker-loopback-traced``.

One process, two TCP sessions, all load from one thread.  Each says
``Hello``, subscribes to all 38 Table II keys, and then publishes on
its own seeded Poisson schedule, so every publish has exactly one
recipient: the other session.

Each publish is stamped with its **due** time, not its send time, and
latency runs from that due time to the decode at the subscriber.  A
stall anywhere — in the broker, or in this generator's own ``drain()``
— therefore delays every publish that falls due during it and shows up
in the latency.  How late the generator itself sent (send − due) is
reported separately as its lag.

Protocol with the parent (one line each, on stdin/stdout): the
generator prints ``ready`` once both sessions are subscribed; the
parent answers ``go`` (run the schedule) or ``quit``; after ``go`` the
generator prints one JSON result line and exits.

Run as ``python3 perfbench/loadgen.py --port P --seed N --seconds S``
from the root of a checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

SESSIONS = 2
#: Publishes per second over both sessions: about a quarter of the
#: traced broker's saturation (about 5k publishes/s on a 2-CPU x86-64
#: host), so the run measures service time, not queueing: at half,
#: swings in a shared host's speed pushed the broker into queueing.
OFFERED_RATE_PER_S = 1250.0
#: Node ids of the two sessions (any ids the broker has not seen).
NODE_BASE = 1
PAYLOAD_BYTES = 140
#: How long to wait for the last deliveries after the schedule ends.
DRAIN_S = 5.0


def schedule(
    seed: int, rate_per_s: float, seconds: float, keys: List[str],
    weights: List[float],
) -> List[List[Tuple[float, str]]]:
    """Each session's (due time, key) publishes: Poisson arrivals at
    ``rate_per_s / SESSIONS`` per session over ``[0, seconds)``, keys
    drawn by Table II weight.  The same seed gives the same schedule."""
    rng = np.random.default_rng(seed)
    per_session = rate_per_s / SESSIONS
    plans = []
    for _ in range(SESSIONS):
        # Draw enough gaps to cover the window with overwhelming odds.
        count = int(per_session * seconds + 10 * (per_session * seconds) ** 0.5 + 10)
        due = np.cumsum(rng.exponential(1.0 / per_session, size=count))
        due = due[due < seconds]
        chosen = rng.choice(len(keys), size=len(due), p=weights)
        plans.append([(float(t), keys[i]) for t, i in zip(due, chosen)])
    return plans


class _Session:
    def __init__(self, index: int, family, initial_value: float):
        from repro.pubsub.wire import StreamDecoder

        self.index = index
        self.node_id = NODE_BASE + index
        self.decoder = StreamDecoder(family, initial_value)
        self.reader = None
        self.writer = None
        self.hello = asyncio.Event()
        #: (message id, decode seconds since t0) per delivered message.
        self.received: List[Tuple[int, float]] = []
        self.decode_errors = 0


async def _consume(session: _Session, t0_box: List[float]) -> None:
    from repro.pubsub.wire import Hello, MessageBundle

    clock = time.perf_counter
    while True:
        chunk = await session.reader.read(1 << 16)
        if not chunk:
            return
        result = session.decoder.feed(chunk)
        now = clock() - t0_box[0]
        for frame in result.frames:
            if isinstance(frame, MessageBundle):
                for message in frame.messages:
                    session.received.append((message.id, now))
            elif isinstance(frame, Hello):
                session.hello.set()
        if result.error is not None:
            session.decode_errors += 1
            return


async def _publish(session: _Session, plan, t0: float, ids: List[int],
                   lags: List[float], ttl_s: float) -> None:
    from repro.pubsub.messages import Message
    from repro.pubsub.wire import MessageBundle, encode_frame

    clock = time.perf_counter
    payload = bytes(PAYLOAD_BYTES)
    writer = session.writer
    i, n = 0, len(plan)
    while i < n:
        wait = t0 + plan[i][0] - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        now = clock() - t0
        frames = []
        while i < n and plan[i][0] <= now:
            due, key = plan[i]
            message = Message.create(
                keys=(key,), source=session.node_id, created_at=due,
                ttl_s=ttl_s, size_bytes=PAYLOAD_BYTES,
            )
            ids.append(message.id)
            frames.append(encode_frame(MessageBundle((message,), (payload,))))
            lags.append(now - due)
            i += 1
        writer.write(b"".join(frames))
        await writer.drain()


async def _main(args) -> int:
    from repro.core.hashing import HashFamily
    from repro.pubsub.wire import Hello, Subscribe, encode_frame
    from repro.workload.keys import twitter_trends_2009

    distribution = twitter_trends_2009()
    keys = list(distribution.keys)
    plans = schedule(args.seed, OFFERED_RATE_PER_S, args.seconds, keys,
                     list(distribution.weights))
    family = HashFamily(num_hashes=4, num_bits=256)
    sessions = [_Session(i, family, 50.0) for i in range(SESSIONS)]
    t0_box = [time.perf_counter()]
    connect_failures = 0
    consumers = []
    for session in sessions:
        try:
            session.reader, session.writer = await asyncio.open_connection(
                "127.0.0.1", args.port
            )
        except OSError:
            connect_failures += 1
            continue
        consumers.append(asyncio.ensure_future(_consume(session, t0_box)))
        session.writer.write(
            encode_frame(Hello(node_id=session.node_id, is_broker=False,
                               degree=0, time=0.0))
            + encode_frame(Subscribe(tuple(sorted(keys))))
        )
        await session.writer.drain()
    live = [s for s in sessions if s.writer is not None]
    await asyncio.wait_for(
        asyncio.gather(*(s.hello.wait() for s in live)), timeout=30.0
    )
    print("ready", flush=True)
    loop = asyncio.get_running_loop()
    command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
    result: Dict = {"connect_failures": connect_failures}
    if command == "go":
        published: List[List[int]] = [[] for _ in sessions]
        lags: List[float] = []
        t0 = t0_box[0] = time.perf_counter()
        await asyncio.gather(*(
            _publish(s, plans[s.index], t0, published[s.index], lags,
                     args.seconds + 60.0)
            for s in live
        ))
        expected = sum(len(p) for p in published) if len(live) == SESSIONS else 0
        deadline = time.perf_counter() + DRAIN_S
        while (sum(len(s.received) for s in live) < expected
               and time.perf_counter() < deadline):
            await asyncio.sleep(0.01)
        last = max((t for s in live for _, t in s.received), default=0.0)
        due = {}
        for s in live:
            for msg_id, (t, _) in zip(published[s.index], plans[s.index]):
                due[msg_id] = t
        latencies = [
            t - due[msg_id]
            for s in live for msg_id, t in s.received if msg_id in due
        ]
        result.update(
            published=published,
            received=[
                [[msg_id, t] for msg_id, t in s.received] for s in sessions
            ],
            latencies_s=latencies,
            lags_s=lags,
            wall_s=max(last, args.seconds),
            decode_errors=sum(s.decode_errors for s in sessions),
        )
    for s in live:
        s.writer.close()
    for task in consumers:
        task.cancel()
    await asyncio.gather(*consumers, return_exceptions=True)
    for s in live:
        try:
            await s.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if command == "go":
        print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    return asyncio.run(_main(args))


if __name__ == "__main__":
    sys.exit(main())
