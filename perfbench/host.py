"""The host and run record attached to every benchmark result."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict

__all__ = ["host_record", "peak_rss_mb"]


def _git_commit(root: Path) -> str:
    """HEAD's commit id, or ``"unknown"`` outside a git checkout.

    The ceiling keeps git from searching the directories above *root*.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record(root: Path, workload: str, seed: int, params: Dict) -> Dict:
    """Everything needed to compare two results fairly."""
    from repro.serve.eventloop import event_loop_name

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": affinity,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "event_loop": event_loop_name(),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
        "params": params,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
