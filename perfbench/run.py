#!/usr/bin/env python3
"""The B-SUB benchmark: one command, four workloads (two listed).

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-bsub-haggle --seed 0 \\
        --seconds 20 --trace 0

Workloads (each in its own process, so peak RSS is per workload):

* ``sim-bsub-haggle`` — B-SUB on full-scale ``haggle_like(seed)``;
  contact-heavy, so filter writes (hashing, decay, merges, election)
  dominate.
* ``sim-bsub-mit`` — B-SUB on full-scale ``mit_reality_like(seed)``;
  message-heavy, so per-message buffer and matching work dominates.
  Runnable for its traced per-layer table; not listed in
  ``BENCHMARK.json`` (see ``UNLISTED``).
* ``broker-fanout`` — ``BrokerServer`` over in-memory streams, 2,000
  sessions, closed-loop 1-key publishes with mean fan-out about 217.
  Runnable for its end-to-end figures and traced per-layer table; not
  listed in ``BENCHMARK.json`` (see ``UNLISTED``).
* ``broker-loopback-traced`` — ``BrokerServer`` writing its trace,
  2 TCP sessions driven open-loop on a Poisson schedule by a separate
  generator process (``loadgen.py``).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` repeats that measurement, then runs the same workload
again with every layer's public functions wrapped by the span recorder
and reports per-layer self times, counts and ratios, the layer-sum
check and the tracing overhead.

Every run checks the program's outputs (see ``gates.py``), prints each
metric by name and unit, writes its full record under
``perfbench/out/``, and prints one JSON object as its last line.  The
exit code is 1 when a correctness gate fails and 2 when the program to
measure (``src/repro``) is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The workloads ``BENCHMARK.json`` lists.
WORKLOADS = (
    "sim-bsub-haggle",
    "broker-loopback-traced",
)
#: Runnable, and each has a traced baseline, but not listed: on a shared
#: host their times did not hold still from run to run.
#: ``sim-bsub-mit`` is the message-heavy contrast to ``sim-bsub-haggle``;
#: its peak RSS also moves with the seed's message count.
#: ``broker-fanout`` is pure-Python dispatch, the most sensitive of the
#: four to the host's speed; ``broker-loopback-traced`` measures every
#: broker layer it does.
UNLISTED = ("sim-bsub-mit", "broker-fanout")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_workload(name: str, seed: int, seconds: float, traced: bool):
    if name.startswith("sim-"):
        from sim import run_sim

        return run_sim(name, seed, seconds, traced)
    if name == "broker-fanout":
        from fanout import run_fanout

        return run_fanout(seed, seconds, traced)
    from loopback import run_loopback

    return run_loopback(seed, seconds, traced, OUT)


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program to measure is missing "
            f"({ROOT / 'src' / 'repro'} not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from host import host_record, peak_rss_mb
    from metrics import (
        END_TO_END, PER_LAYER, RECORDED_LATENCIES, end_to_end, per_layer,
    )

    OUT.mkdir(exist_ok=True)
    traced = bool(args.trace)
    out = _run_workload(args.workload, args.seed, args.seconds, traced)
    verdict = out["verdict"]
    problems = list(verdict.problems)
    e2e = end_to_end(out, peak_rss_mb())
    record = {
        "host": host_record(ROOT, args.workload, args.seed, out["params"]),
        "seconds": args.seconds,
        "trace": args.trace,
        "work": out["work"],
        "setup_samples_s": out["setup_samples_s"],
        "end_to_end": e2e,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failed_frac": verdict.failed / verdict.attempted,
        "problems": problems,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        layer, detail = per_layer(out)
        if not detail["layer_sum_ok"]:
            problems.append("layer self times exceed the traced wall time")
        record["per_layer"] = layer
        record["per_layer_detail"] = detail
        out["recorder"].save(str(OUT / f"{stem}-spans.npz"))
        metrics = {
            name: {"value": _finite(layer.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": _finite(e2e[name]), "unit": unit}
            for name, unit, _ in END_TO_END
        }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} "
          f"({record['host']['cpu_count']} CPUs, "
          f"affinity {record['host']['sched_affinity']}, "
          f"python {record['host']['python']}, "
          f"{record['host']['event_loop']}, "
          f"commit {record['host']['git_commit'][:12]})")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<24} {e2e[name]:>14.4f} {unit}")
    for name, _ in RECORDED_LATENCIES:
        shown = "n/a" if e2e[name] is None else f"{e2e[name]:.4f}"
        print(f"  {name:<24} {shown:>14} ms (recorded, not gated)")
    print(f"  {'failed_frac':<24} {record['failed_frac']:>14.4f} ratio "
          f"({verdict.failed} of {verdict.attempted})")
    if traced:
        for name, unit in PER_LAYER:
            print(f"  {name:<44} {metrics[name]['value']:>14.6f} {unit}")
        for name, unit in (("traced_wall_s", "s"),
                           ("serve.broker.write_backlog_max_bytes", "bytes"),
                           ("serve.broker.loop_lag_p99_ms", "ms"),
                           ("bench.generator.lag_p99_ms", "ms")):
            if name in layer:
                print(f"  {name:<44} {layer[name]:>14.6f} {unit} (recorded)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed if correct else max(1, verdict.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
