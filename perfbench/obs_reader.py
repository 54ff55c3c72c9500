"""Folds a slumber-obs-v1 JSONL export into per-layer span statistics.

For every (cat, name) it reports the span count, the summed duration
and the summed *self* time: a span's duration minus the part of it that
its direct child spans on the same thread cover. Recursion frames nest,
so summed durations double-count; self times add up to the thread's
covered time exactly once. The footer (per-lane busy time, chunk
imbalance, frame count) is returned as parsed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

SCHEMA = "slumber-obs-v1"


@dataclass
class SpanStats:
    count: int = 0
    total_us: float = 0.0
    self_us: float = 0.0


@dataclass
class ObsReport:
    spans: dict[tuple[str, str], SpanStats] = field(default_factory=dict)
    footer: dict[str, Any] = field(default_factory=dict)

    def stats(self, cat: str, name: str) -> SpanStats:
        return self.spans.get((cat, name), SpanStats())

    def lane_busy_ms(self) -> float:
        return float(sum(lane["busy_ms"] for lane in self.footer["lanes"]))


@dataclass
class _Span:
    key: tuple[str, str]
    start: float
    end: float
    child_us: float = 0.0


def fold(lines: Iterable[str]) -> ObsReport:
    """Parses export lines; raises ValueError on a malformed export."""
    records = [json.loads(line) for line in lines if line.strip()]
    if not records or records[0].get("type") != "manifest":
        raise ValueError("export does not start with a manifest line")
    if records[0].get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {records[0].get('schema')!r}")
    if records[-1].get("type") != "footer":
        raise ValueError("export does not end with a footer line")

    per_tid: dict[int, list[_Span]] = defaultdict(list)
    for rec in records[1:-1]:
        if rec["type"] != "span":
            continue
        start = float(rec["ts_us"])
        key = (rec.get("cat", ""), rec["name"])
        span = _Span(key, start, start + float(rec["dur_us"]))
        per_tid[rec["tid"]].append(span)

    report = ObsReport(footer=records[-1])
    for spans in per_tid.values():
        # Parents sort before the children they contain: earlier start
        # first, longer span first on a tie.
        spans.sort(key=lambda s: (s.start, -s.end))
        stack: list[_Span] = []
        for span in spans:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack:
                stack[-1].child_us += span.end - span.start
            stack.append(span)
        for span in spans:
            stats = report.spans.setdefault(span.key, SpanStats())
            duration = span.end - span.start
            stats.count += 1
            stats.total_us += duration
            stats.self_us += max(0.0, duration - span.child_us)
    return report


def read(path: str) -> ObsReport:
    with open(path, encoding="utf-8") as handle:
        return fold(handle)
