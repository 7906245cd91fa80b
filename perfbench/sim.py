"""The two simulator workloads: B-SUB on full-scale synthetic traces.

``sim-bsub-haggle`` replays ``haggle_like(seed)`` (62,572 contacts,
about 12.4k messages): contact-heavy, so filter writes dominate.
``sim-bsub-mit`` replays ``mit_reality_like(seed)`` (17,398 contacts,
about 35.5k messages): message-heavy, so buffers and matching dominate.
Both run ``ExperimentSpec(ttl_min=300)`` through ``repro.api.run``.

Set-up is trace generation plus the run's own ``setup`` phase
(interests, workload, Eq. 5 decay factor, protocol state).  The timed
phase is ``Simulation.run``, replayed at least four times on the same
inputs; each contact's ``on_contact`` call is timed for the latency
percentiles.
"""

from __future__ import annotations

import gc
import statistics
import time
from array import array
from typing import Callable, Dict, List

from gates import check_sim
from layers import wrap_simulator
from spans import SpanRecorder

__all__ = ["run_sim"]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Replays per run at least.  ``throughput_per_s`` is the median
#: replay's: all do identical work, and on a shared host an occasional
#: replay runs in a spell far faster than the usual, which the fastest
#: replay would report.
MIN_REPLAYS = 4

#: ``MetricsSummary`` of each workload at the default seed (0).
PINNED: Dict[str, Dict[str, object]] = {
    "sim-bsub-haggle": dict(
        protocol="B-SUB", num_messages=12443, num_intended_pairs=64627,
        num_deliveries=46029, num_intended_deliveries=46029,
        num_false_deliveries=0, num_forwardings=132589,
        num_injections=26390, num_false_injections=0,
        num_useless_injections=82, delivery_ratio=0.7122255404088075,
        mean_delay_s=5160.426379928695, median_delay_s=3481.3751588012383,
        forwardings_per_delivered=2.880553564057442,
        false_positive_ratio=0.0, false_injection_ratio=0.0,
        useless_injection_ratio=0.003107237589996211,
    ),
    "sim-bsub-mit": dict(
        protocol="B-SUB", num_messages=35541, num_intended_pairs=220777,
        num_deliveries=93685, num_intended_deliveries=93685,
        num_false_deliveries=0, num_forwardings=320508,
        num_injections=67188, num_false_injections=0,
        num_useless_injections=95, delivery_ratio=0.4243422095598726,
        mean_delay_s=7838.435743473801, median_delay_s=7177.047579708014,
        forwardings_per_delivered=3.421123979292309,
        false_positive_ratio=0.0, false_injection_ratio=0.0,
        useless_injection_ratio=0.0014139429660058344,
    ),
}
DEFAULT_SEED = 0


def _trace_factory(workload: str) -> Callable:
    from repro.traces.synthetic import haggle_like, mit_reality_like

    return haggle_like if workload == "sim-bsub-haggle" else mit_reality_like


class _StopAfterSetup(Exception):
    """Raised in place of ``Simulation.run`` for a set-up-only pass."""


def _run_once(trace, spec, simulate=True):
    """One ``repro.api.run``; returns (result or None, timers)."""
    from repro.api import run
    from repro.dtn.simulator import Simulation
    from repro.obs import Observability
    from repro.obs.timers import PhaseTimers

    timers = PhaseTimers()
    obs = Observability(timers=timers)
    if simulate:
        return run(trace, spec, obs=obs), timers

    def stop(self):
        raise _StopAfterSetup

    original = Simulation.__dict__["run"]
    Simulation.run = stop
    try:
        run(trace, spec, obs=obs)
    except _StopAfterSetup:
        pass
    finally:
        Simulation.run = original
    return None, timers


def _timed_contacts(samples: array):
    """Patch ``BsubProtocol.on_contact`` to append each call's seconds
    to *samples*; returns the undo."""
    from repro.pubsub.protocol import BsubProtocol

    original = BsubProtocol.__dict__["on_contact"]
    clock = time.perf_counter

    def on_contact(self, contact, channel, now):
        begin = clock()
        original(self, contact, channel, now)
        samples.append(clock() - begin)

    BsubProtocol.on_contact = on_contact
    return lambda: setattr(BsubProtocol, "on_contact", original)


def _protocol_ratios(summary) -> Dict[str, float]:
    injections = summary.num_injections
    useful = injections - summary.num_useless_injections - (
        summary.num_false_injections
    )
    return {
        "pubsub.protocol.delivery_ratio": summary.delivery_ratio,
        "pubsub.protocol.forwardings_per_delivery":
            summary.forwardings_per_delivered,
        "pubsub.protocol.useful_injection_ratio":
            useful / injections if injections else 0.0,
    }


def run_sim(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    from repro.api import ExperimentSpec

    make_trace = _trace_factory(workload)
    spec = ExperimentSpec(ttl_min=300)
    setups: List[float] = []
    summaries = []
    latencies = array("d")
    simulate_s = 0.0
    contacts = 0

    def generate():
        gc.collect()
        begin = time.perf_counter()
        trace = make_trace(seed)
        return trace, time.perf_counter() - begin

    # Each replay sets up too; top up to SETUPS with set-up-only passes.
    for _ in range(SETUPS - MIN_REPLAYS):
        trace, gen_s = generate()
        _, timers = _run_once(trace, spec, simulate=False)
        setups.append(gen_s + timers.elapsed("setup"))
    trace, gen_s = generate()
    replay_rates = []
    while len(summaries) < MIN_REPLAYS or simulate_s < seconds:
        gc.collect()
        undo = _timed_contacts(latencies)
        try:
            result, timers = _run_once(trace, spec)
        finally:
            undo()
        setups.append(gen_s + timers.elapsed("setup"))
        simulate_s += timers.elapsed("simulate")
        contacts += result.engine.num_contacts
        replay_rates.append(
            result.engine.num_contacts / timers.elapsed("simulate")
        )
        summaries.append(result.summary)

    out = {
        "params": {
            "trace": make_trace.__name__, "scale": 1.0, "ttl_min": 300,
            "protocol": "B-SUB", "setups": SETUPS,
            "min_replays": MIN_REPLAYS,
        },
        "work": {
            "replays": len(summaries),
            "contacts": contacts,
            "messages": summaries[0].num_messages,
            "simulate_s": simulate_s,
            "replay_contacts_per_s": replay_rates,
        },
        "throughput_per_s": statistics.median(replay_rates),
        "latency_samples_s": latencies,
        "setup_samples_s": setups,
    }
    layer: Dict[str, float] = {}
    if traced:
        rec = SpanRecorder()
        missing = wrap_simulator(rec)
        from repro.dtn.simulator import Simulation

        spanned_run = Simulation.run
        window = []

        def activating_run(self):
            rec.active = True
            window.append(time.perf_counter())
            try:
                return spanned_run(self)
            finally:
                window.append(time.perf_counter())
                rec.active = False

        rec.patch(Simulation, "run", activating_run)
        try:
            traced_result, _ = _run_once(trace, spec)
        finally:
            rec.restore()
        summaries.append(traced_result.summary)
        out["recorder"] = rec
        out["window"] = tuple(window)
        out["missing"] = missing
        out["traced_units"] = traced_result.engine.num_contacts
        out["untraced_unit_s"] = simulate_s / contacts
        layer.update(_protocol_ratios(traced_result.summary))
    out["layer"] = layer
    out["verdict"] = check_sim(
        summaries, contacts,
        PINNED[workload] if seed == DEFAULT_SEED else None,
    )
    return out
