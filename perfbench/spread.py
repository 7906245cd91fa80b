#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

For every workload given, runs ``perfbench/run.py`` once per seed, one
run at a time, and reports each metric's median, quartiles and spread
(``(q3 - q1) / median``, with quartiles as
``statistics.quantiles(values, n=4)`` gives them)::

    python3 perfbench/spread.py --workloads broker-fanout \\
        --seeds 1 2 3 4 5 --seconds 20 [--json out.json]

The JSON output keeps every run's metrics and wall time, so a baseline
can be re-derived from it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return {**json.loads(lines[-1]), "wall_s": time.perf_counter() - begin}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", help="write every run and summary here")
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed} ({result['wall_s']:.1f} s): "
                  + ", ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name, first in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            s = summary[name] = {"unit": first["unit"], **quartiles(values)}
            print(f"  {name:<20} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
