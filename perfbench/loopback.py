"""``broker-loopback-traced``: a traced broker over real TCP.

A :class:`~repro.serve.broker.BrokerServer` with
``ServeSpec(trace_path=…)`` streams its schema-v2 trace while one
generator process (``loadgen.py``) drives it over 2 TCP connections,
open-loop on a seeded Poisson schedule at the fixed offered rate
``loadgen.OFFERED_RATE_PER_S``.  Every session subscribes to all 38
keys, so fan-out is 1 and the run measures the per-message cost of
socket read/decode, write/drain and trace emit.

Set-up (``setup_s``) is broker start plus spawning the generator
until both its sessions are subscribed.  The timed phase is the
generator's schedule; latency runs from each publish's due time to its
decode at the subscriber.
Throughput is deliveries per CPU-second of the broker process: in an
open loop the delivery rate is the offered rate, so the broker's CPU
time is what moves with its per-message cost.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from gates import DeliveryTally, check_loopback
from layers import LoopLagMonitor, wrap_broker
from loadgen import OFFERED_RATE_PER_S
from spans import SpanRecorder
from stats import percentile

__all__ = ["run_loopback"]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 15
#: A run whose generator sent its p99 publish later than this after
#: it fell due is invalid: the offered load was not the stated one.
LAG_LIMIT_MS = 50.0
#: The generator's result is one JSON line listing every message id.
_RESULT_LINE_LIMIT = 1 << 28
_LOADGEN = Path(__file__).resolve().parent / "loadgen.py"


class _Setup:
    """One traced broker plus a subscribed, waiting generator."""

    def __init__(self, seed: int, seconds: float, trace_path: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace_path = trace_path
        self.server = None
        self.proc: Optional[asyncio.subprocess.Process] = None

    async def start(self) -> float:
        from repro.serve.broker import BrokerServer
        from repro.serve.spec import ServeSpec

        begin = time.perf_counter()
        self.server = BrokerServer(ServeSpec(
            port=0, trace_path=str(self.trace_path),
            idle_timeout_s=self.seconds + 120.0,
        ))
        await self.server.start()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(_LOADGEN), "--port", str(self.server.port),
            "--seed", str(self.seed), "--seconds", str(self.seconds),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            limit=_RESULT_LINE_LIMIT,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60.0)
        if line.strip() != b"ready":
            raise RuntimeError(f"load generator did not start: {line!r}")
        return time.perf_counter() - begin

    async def command(self, word: str) -> bytes:
        """Send ``go`` (returns the generator's JSON result line) or
        ``quit``."""
        self.proc.stdin.write(word.encode() + b"\n")
        await self.proc.stdin.drain()
        line = b""
        if word == "go":
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), self.seconds + 60.0
            )
        await asyncio.wait_for(self.proc.wait(), 30.0)
        return line

    async def stop(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        if self.server is not None:
            await self.server.stop()


async def _measure(seed, seconds, trace_path, setups, rec=None):
    setup_times: List[float] = []
    for i in range(setups):
        setup = _Setup(seed, seconds, trace_path)
        gc.collect()
        try:
            setup_times.append(await setup.start())
        except BaseException:
            await setup.stop()
            raise
        if i < setups - 1:
            await setup.command("quit")
            await setup.stop()
    lag = LoopLagMonitor() if rec is not None else None
    try:
        if lag is not None:
            lag.start()
            rec.active = True
        cpu = time.process_time()
        begin = time.perf_counter()
        line = await setup.command("go")
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        if rec is not None:
            rec.active = False
            await lag.stop()
        parity = setup.server.core.parity_counters()
    finally:
        await setup.stop()
    return {
        "result": json.loads(line),
        "parity": parity,
        "setup_times": setup_times,
        "window": (begin, end),
        "cpu_s": cpu,
        "loop_lags_s": lag.lags_s if lag is not None else [],
    }


def _judge(phase: Dict, trace_path: Path, problems: List[str]):
    """Gate one measured phase; returns (verdict, deliveries)."""
    from repro.obs.analyze import analyze_trace

    result = phase["result"]
    tally = DeliveryTally(decode_errors=result["decode_errors"])
    published = result["published"]
    expected = [
        (1 - publisher, msg_id)
        for publisher, ids in enumerate(published) for msg_id in ids
    ]
    delivered = [
        (subscriber, msg_id)
        for subscriber, rows in enumerate(result["received"])
        for msg_id, _ in rows
    ]
    tally.add(expected, delivered)
    analysis = analyze_trace(str(trace_path))
    verdict = check_loopback(
        tally, phase["parity"],
        {"messages": analysis.messages, "forwards": analysis.forwards,
         "deliveries": analysis.deliveries},
        connect_failures=result["connect_failures"],
    )
    lag_p99 = percentile(result["lags_s"], 0.99)
    if lag_p99 is not None and lag_p99 * 1000.0 > LAG_LIMIT_MS:
        problems.append(
            f"generator fell behind: lag p99 {lag_p99 * 1000.0:.1f} ms > "
            f"{LAG_LIMIT_MS} ms, so the offered rate was not met"
        )
    return verdict, tally.received, lag_p99


def run_loopback(seed: int, seconds: float, traced: bool, out_dir: Path) -> Dict:
    trace_path = out_dir / "broker-loopback-traced.trace.jsonl"
    problems: List[str] = []
    untraced = asyncio.run(_measure(seed, seconds, trace_path, SETUPS))
    verdict, deliveries, lag_p99 = _judge(untraced, trace_path, problems)
    result = untraced["result"]
    out = {
        "params": {
            "sessions": 2, "keys_per_session": 38, "payload_bytes": 140,
            "loop": "open", "arrivals": "poisson",
            "offered_rate_per_s": OFFERED_RATE_PER_S, "transport": "tcp",
            "broker_trace": True, "setups": SETUPS,
            "lag_limit_ms": LAG_LIMIT_MS,
        },
        "work": {
            "publishes": sum(len(ids) for ids in result["published"]),
            "deliveries": deliveries,
            "generator_wall_s": result["wall_s"],
            "generator_lag_p99_ms": (
                lag_p99 * 1000.0 if lag_p99 is not None else None
            ),
            "broker_cpu_s": untraced["cpu_s"],
        },
        "throughput_per_s": deliveries / untraced["cpu_s"],
        "latency_samples_s": result["latencies_s"],
        "setup_samples_s": untraced["setup_times"],
        "layer": {},
    }
    if traced:
        rec = SpanRecorder()
        try:
            out["missing"] = wrap_broker(rec, asyncio.StreamWriter)
            phase = asyncio.run(_measure(seed, seconds, trace_path, 1, rec))
        finally:
            rec.restore()
        t_verdict, t_deliveries, t_lag = _judge(phase, trace_path, problems)
        verdict.absorb(t_verdict)
        out.update(
            recorder=rec,
            window=phase["window"],
            traced_units=t_deliveries,
            traced_cost_s=phase["cpu_s"],
            untraced_unit_s=untraced["cpu_s"] / max(1, deliveries),
            deliveries=t_deliveries,
            loop_lags_s=phase["loop_lags_s"],
        )
        if t_lag is not None:
            out["layer"]["bench.generator.lag_p99_ms"] = t_lag * 1000.0
        out["layer"]["serve.dispatcher.fanout_mean"] = (
            t_deliveries / max(1, phase["parity"]["messages_created"])
        )
    verdict.problems += problems
    out["verdict"] = verdict
    return out
