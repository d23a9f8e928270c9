"""Log-pattern analysis: templates, occurrence variation, novelty.

Section III-B: "Log analysis has significant research history involving
techniques of abnormality detection and/or variation in occurrences of
log lines.  However, in production most log analysis involves detection
of well-known log lines ... new or infrequent events may be missed
until manual observation of events leads to identification of relevant
log lines to include in the scan."

This module provides both halves:

* the production idiom — :class:`KnownPatternScanner` with a list of
  well-known regexes;
* the research idiom — :func:`template_of` mines message *templates*
  (numbers/ids masked out), :class:`TemplateTracker` counts occurrences
  per template per time bucket, flags **novel** templates the known-
  pattern scan would have missed, and flags **rate anomalies** on known
  templates.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.events import Event
from .stats import mad

__all__ = [
    "KnownPattern",
    "KnownPatternScanner",
    "template_of",
    "TemplateTracker",
    "RateAnomaly",
]


@dataclass(frozen=True, slots=True)
class KnownPattern:
    """A well-known log line worth scanning for (the production idiom)."""

    name: str
    regex: str
    severity_hint: str = "warning"


DEFAULT_PATTERNS: tuple[KnownPattern, ...] = (
    KnownPattern("soft_lockup", r"soft lockup", "error"),
    KnownPattern("mce", r"machine check", "critical"),
    KnownPattern("link_failed", r"HSN link .* failed", "error"),
    KnownPattern("gpu_falloff", r"fallen off the bus", "critical"),
    KnownPattern("mount_stale", r"mount stale|connection to MDS lost",
                 "error"),
    KnownPattern("service_exit", r"main process exited", "error"),
    KnownPattern("slow_io", r"slow_io|request queue growing", "warning"),
)


class KnownPatternScanner:
    """Regex scan for well-known lines; counts hits per pattern."""

    def __init__(
        self, patterns: Sequence[KnownPattern] = DEFAULT_PATTERNS
    ) -> None:
        self.patterns = list(patterns)
        self._compiled = [(p, re.compile(p.regex)) for p in self.patterns]
        self.hits: Counter = Counter()

    def scan(self, events: Iterable[Event]) -> dict[str, list[Event]]:
        """Match events against every pattern; returns hits per pattern."""
        out: dict[str, list[Event]] = defaultdict(list)
        for ev in events:
            for p, rx in self._compiled:
                if rx.search(ev.message):
                    out[p.name].append(ev)
                    self.hits[p.name] += 1
        return dict(out)


_MASKS = (
    (re.compile(r"\b0x[0-9a-fA-F]+\b"), "<hex>"),
    (re.compile(r"\b\d+(\.\d+)?\b"), "<n>"),
    (re.compile(r"\bc\d+-\d+c\d+s\d+(n\d+)?(a0|g0)?\b"), "<cname>"),
    (re.compile(r"\bjob[= ]?<n>\b"), "job=<n>"),
)


def template_of(message: str) -> str:
    """Mask volatile tokens, leaving the message's stable shape.

    ``"job 4312 started on 64 nodes"`` and ``"job 99 started on 8
    nodes"`` share the template ``"job <n> started on <n> nodes"`` —
    the clustering that lets occurrence statistics work per message
    *type* instead of per literal string.
    """
    out = message
    for rx, repl in _MASKS:
        out = rx.sub(repl, out)
    return out


@dataclass(frozen=True, slots=True)
class RateAnomaly:
    template: str
    bucket_t: float
    count: int
    expected: float
    score: float


class TemplateTracker:
    """Per-template occurrence tracking, novelty, and rate variation."""

    def __init__(self, bucket_s: float = 300.0) -> None:
        self.bucket_s = float(bucket_s)
        # template -> {bucket_index: count}
        self._buckets: dict[str, Counter] = defaultdict(Counter)
        self._first_seen: dict[str, float] = {}

    def observe(self, events: Iterable[Event]) -> list[str]:
        """Ingest events; returns templates never seen before (novel)."""
        novel: list[str] = []
        for ev in events:
            tpl = template_of(ev.message)
            if tpl not in self._first_seen:
                self._first_seen[tpl] = ev.time
                novel.append(tpl)
            b = int(ev.time // self.bucket_s)
            self._buckets[tpl][b] += 1
        return novel

    def templates(self) -> list[str]:
        return sorted(self._buckets)

    def counts(self, template: str, t0: float, t1: float) -> np.ndarray:
        """Occurrences per bucket over [t0, t1), empty buckets included."""
        b0 = int(t0 // self.bucket_s)
        b1 = max(b0 + 1, int(np.ceil(t1 / self.bucket_s)))
        buckets = self._buckets.get(template, Counter())
        return np.array(
            [buckets.get(b, 0) for b in range(b0, b1)], dtype=np.int64
        )

    def rate_anomalies(
        self,
        t0: float,
        t1: float,
        z_threshold: float = 5.0,
        min_count: int = 5,
    ) -> list[RateAnomaly]:
        """Buckets where a template's rate deviates from its own history.

        A known message suddenly appearing 50x more often is as
        actionable as a novel one — the "variation in occurrences of
        log lines" technique.
        """
        out: list[RateAnomaly] = []
        for tpl in self.templates():
            counts = self.counts(tpl, t0, t1).astype(float)
            if len(counts) < 4:
                continue
            med = float(np.median(counts))
            sigma = mad(counts)
            if not np.isfinite(sigma) or sigma == 0:
                sigma = max(np.sqrt(med), 1.0)   # Poisson floor
            for i, c in enumerate(counts):
                if c < min_count:
                    continue
                z = (c - med) / sigma
                if z >= z_threshold:
                    out.append(
                        RateAnomaly(
                            template=tpl,
                            bucket_t=t0 + i * self.bucket_s,
                            count=int(c),
                            expected=med,
                            score=float(z),
                        )
                    )
        out.sort(key=lambda a: -a.score)
        return out
