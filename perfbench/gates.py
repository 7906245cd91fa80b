"""Correctness gates: each turns a workload's outputs into a verdict.

Every gate returns a :class:`Verdict`: how many operations were
attempted, how many failed, and a readable line per problem.  The
benchmark exits non-zero when any gate reports a problem.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Verdict",
    "PARITY_KEYS",
    "DeliveryTally",
    "check_sim",
    "check_fanout",
    "check_loopback",
]

#: The six counters ``scripts/check_serve_parity.py`` gates, as
#: (parity-counter name, analysis section, analysis key).
PARITY_KEYS: Tuple[Tuple[str, str, str], ...] = (
    ("messages_created", "messages", "created"),
    ("intended_pairs", "messages", "intended_pairs"),
    ("forwards_direct", "forwards", "direct"),
    ("deliveries_total", "deliveries", "total"),
    ("deliveries_intended", "deliveries", "intended"),
    ("deliveries_false", "deliveries", "false"),
)


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def absorb(self, other: "Verdict") -> None:
        """Fold another run's verdict of the same workload into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _summary_dict(summary) -> Dict[str, object]:
    if isinstance(summary, Mapping):
        return dict(summary)
    return {f.name: getattr(summary, f.name) for f in fields(summary)}


def _same(a: object, b: object) -> bool:
    """Exact equality that also treats two NaNs as equal."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def check_sim(
    summaries: Sequence, contacts: int,
    pinned: Optional[Mapping[str, object]] = None,
) -> Verdict:
    """Gate a simulator workload's ``MetricsSummary`` values.

    *summaries* holds one summary per replay of the same inputs; all
    must be identical (determinism).  Each must satisfy intended +
    false deliveries = total deliveries.  When *pinned* is given (the
    default seed), the summary must equal it field for field.  A
    failing sim counts every contact as failed.
    """
    verdict = Verdict(attempted=contacts)
    first = _summary_dict(summaries[0])
    for i, summary in enumerate(summaries):
        values = _summary_dict(summary)
        total = values["num_intended_deliveries"] + values["num_false_deliveries"]
        if total != values["num_deliveries"]:
            verdict.problems.append(
                f"replay {i}: intended + false deliveries = {total}, "
                f"total = {values['num_deliveries']}"
            )
        if i and any(not _same(values[k], first[k]) for k in first):
            verdict.problems.append(f"replay {i} differs from replay 0")
    if pinned is not None:
        for key, want in pinned.items():
            got = first.get(key)
            if not _same(got, want):
                verdict.problems.append(
                    f"summary.{key} = {got!r}, pinned {want!r}"
                )
    if verdict.problems:
        verdict.failed = contacts
    return verdict


@dataclass
class DeliveryTally:
    """Exactly-once accounting of deliveries against expectations."""

    expected: int = 0
    received: int = 0
    missing: int = 0
    unexpected: int = 0
    duplicates: int = 0
    decode_errors: int = 0

    def add(self, expected: Iterable, delivered: Iterable) -> None:
        """Account one batch: *expected* items, each of which must
        appear exactly once among the *delivered* items."""
        expected = set(expected)
        counts = Counter(delivered)
        self.expected += len(expected)
        self.received += sum(counts.values())
        self.missing += len(expected - counts.keys())
        self.unexpected += sum(
            n for item, n in counts.items() if item not in expected
        )
        self.duplicates += sum(
            n - 1 for item, n in counts.items() if item in expected and n > 1
        )

    def judge(self, verdict: "Verdict", what: str) -> None:
        verdict.failed += (
            self.missing + self.unexpected + self.duplicates
            + self.decode_errors
        )
        for count, problem in (
            (self.missing, "never delivered"),
            (self.unexpected, "delivered but not intended"),
            (self.duplicates, "delivered more than once"),
            (self.decode_errors, "undecodable frames"),
        ):
            if count:
                verdict.problems.append(f"{count} {what} {problem}")


def check_fanout(tally: DeliveryTally, deliveries_total: int) -> Verdict:
    """``broker-fanout``: the delivered (session, message) pairs must
    equal intended ∩ connected, each exactly once, and their count must
    equal the broker's ``serve_deliveries_total``."""
    verdict = Verdict(attempted=max(1, tally.expected))
    tally.judge(verdict, "(session, message) pairs")
    if tally.received != deliveries_total:
        verdict.failed += abs(tally.received - deliveries_total)
        verdict.problems.append(
            f"{tally.received} deliveries written, serve_deliveries_total "
            f"= {deliveries_total}"
        )
    return verdict


def check_loopback(
    tally: DeliveryTally,
    parity: Mapping[str, int],
    analysis: Mapping[str, Mapping[str, int]],
    connect_failures: int = 0,
) -> Verdict:
    """``broker-loopback-traced``: every expected delivery decoded
    exactly once, and ``analyze_trace`` over the broker's trace equal
    to its live parity counters on the six gated counters."""
    verdict = Verdict(attempted=max(1, tally.expected + connect_failures))
    tally.judge(verdict, "(subscriber, message) pairs")
    for key, section, name in PARITY_KEYS:
        offline = analysis[section][name]
        if offline != parity[key]:
            verdict.failed += abs(offline - parity[key])
            verdict.problems.append(
                f"parity {key}: live {parity[key]}, trace {offline}"
            )
    if connect_failures:
        verdict.failed += connect_failures
        verdict.problems.append(f"{connect_failures} connect failures")
    return verdict
