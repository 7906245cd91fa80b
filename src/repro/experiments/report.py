"""Plain-text rendering of experiment results.

Benches print the same rows/series the paper's tables and figures
report; these helpers keep the formatting in one place.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

from .runner import RunResult

__all__ = [
    "format_table",
    "series_table",
    "metric_series",
    "figure_series",
    "ascii_chart",
    "format_observability",
]


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}" if abs(value) >= 1000 else str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def metric_series(results: Sequence[RunResult], metric: str) -> List[float]:
    """Extract one metric from a result list.

    Supported metrics: ``delivery_ratio``, ``delay_min``,
    ``forwardings``, ``fpr``.
    """
    extractors = {
        "delivery_ratio": lambda r: r.summary.delivery_ratio,
        "delay_min": lambda r: r.summary.mean_delay_min,
        "forwardings": lambda r: r.summary.forwardings_per_delivered,
        "fpr": lambda r: r.summary.false_positive_ratio,
        "false_injection": lambda r: r.summary.false_injection_ratio,
        "useless_injection": lambda r: r.summary.useless_injection_ratio,
    }
    if metric not in extractors:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of {sorted(extractors)}"
        )
    return [extractors[metric](r) for r in results]


def series_table(
    x_label: str,
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
) -> str:
    """Render a figure as a table: one x column plus one column per series."""
    names = list(series)
    for name in names:
        if len(series[name]) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(series[name])} points for "
                f"{len(x_values)} x values"
            )
    headers = [x_label] + names
    rows = [
        [x] + [series[name][i] for name in names]
        for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title)


def figure_series(
    sweep: Mapping[str, Sequence[RunResult]], metric: str
) -> Dict[str, List[float]]:
    """protocol -> metric series, for feeding :func:`series_table`."""
    return {name: metric_series(results, metric) for name, results in sweep.items()}


def format_observability(obs) -> str:
    """Human-readable summary of one run's observability bundle.

    Three stacked tables — event counts by type, phase wall-clock, and
    the registry's headline counters — each omitted when its component
    was not enabled on the :class:`~repro.obs.Observability` bundle.
    """
    sections = []
    tracer = getattr(obs, "tracer", None)
    if tracer is not None and getattr(tracer, "enabled", False):
        counts = tracer.counts()
        rows = [[name, counts[name]] for name in sorted(counts)]
        rows.append(["total", len(tracer)])
        sections.append(
            format_table(["event type", "count"], rows, title="Event trace")
        )
    if obs.timers is not None and obs.timers.summary():
        total = obs.timers.total() or 1.0
        rows = [
            [name, round(seconds, 3), f"{seconds / total:.0%}", entries]
            for name, seconds, entries in obs.timers.summary()
        ]
        sections.append(
            format_table(
                ["phase", "seconds", "share", "entries"], rows,
                title="Phase timings",
            )
        )
    if obs.registry is not None:
        snapshot = obs.registry.to_dict()
        rows = [[name, value] for name, value in snapshot["counters"].items()]
        rows += [[name, value] for name, value in snapshot["gauges"].items()]
        if rows:
            sections.append(
                format_table(["metric", "value"], rows, title="Metrics registry")
            )
    return "\n\n".join(sections)


def ascii_chart(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    height: int = 10,
    title: str = "",
) -> str:
    """A terminal line chart for sweep results (no plotting library).

    Each series gets a marker letter (its name's initial, disambiguated
    by order); points sharing a cell show ``*``.  The y-axis is scaled
    to the pooled finite range of all series.
    """
    if height < 2:
        raise ValueError(f"height must be >= 2, got {height}")
    names = list(series)
    for name in names:
        if len(series[name]) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(series[name])} points for "
                f"{len(x_values)} x values"
            )
    pooled = [
        v for name in names for v in series[name] if not math.isnan(v)
    ]
    if not pooled:
        return (title + "\n" if title else "") + "(no finite data)"
    lo, hi = min(pooled), max(pooled)
    span = hi - lo or 1.0

    width = len(x_values)
    grid = [[" "] * width for _ in range(height)]
    markers: Dict[str, str] = {}
    used = set()
    for name in names:
        letter = next(
            (c.upper() for c in name if c.isalnum() and c.upper() not in used),
            "?",
        )
        used.add(letter)
        markers[name] = letter
    for name in names:
        for col, value in enumerate(series[name]):
            if math.isnan(value):
                continue
            row = height - 1 - round((value - lo) / span * (height - 1))
            cell = grid[row][col]
            grid[row][col] = markers[name] if cell == " " else "*"

    lines = []
    if title:
        lines.append(title)
    label_hi, label_lo = f"{hi:.3g}", f"{lo:.3g}"
    pad = max(len(label_hi), len(label_lo))
    for i, row in enumerate(grid):
        if i == 0:
            label = label_hi.rjust(pad)
        elif i == height - 1:
            label = label_lo.rjust(pad)
        else:
            label = " " * pad
        lines.append(f"{label} |{''.join(row)}|")
    axis = f"{' ' * pad}  {_format_cell(x_values[0])}..{_format_cell(x_values[-1])}"
    lines.append(axis)
    legend = "  ".join(f"{markers[name]}={name}" for name in names)
    lines.append(f"{' ' * pad}  {legend}  (*=overlap)")
    return "\n".join(lines)
