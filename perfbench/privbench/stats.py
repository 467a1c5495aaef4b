"""Pure helpers of the benchmark: percentiles, span self time, failure
accounting.  Nothing here imports the program under test, so the
helpers are testable on their own."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the number of samples it was cut from."""

    value: float
    count: int


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``samples``.

    The smallest sample with at least ``q`` percent of the samples at or
    below it.  An empty sample set is an error: a percentile of nothing must
    not read as a latency of zero.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(ordered[rank - 1], len(ordered))


def windowed_percentile(windows: Sequence[Sequence[float]], q: float) -> Percentile:
    """Median over ``windows`` of each window's ``q``-th percentile.

    On a shared machine a slow stretch of a few seconds fills the tail of
    a percentile cut over the whole run with its samples.  Cutting the
    percentile per window of the run and taking the median across windows
    reports the tail at the machine's typical speed; a tail the program
    itself adds shows in every window.  The count is every sample.
    """
    cuts = [percentile(window, q).value for window in windows if window]
    if not cuts:
        raise ValueError("percentile of an empty sample set")
    return Percentile(median(cuts), sum(len(window) for window in windows))


def fastest_window_mean(windows: Sequence[Sequence[float]]) -> Tuple[float, int]:
    """The lowest of the ``windows``' means, and the count of every sample.

    The mean is the paper's figure (response time averaged over the query
    workload).  Unlike a median, it does not jump when the samples fall in
    two modes and their mix shifts a little.  A shared host slows whole
    stretches of a run by up to half, and how much of a run it slows
    differs from run to run; the fastest window (as ``timeit`` takes the
    fastest repeat) is the one least disturbed.  Every window holds
    hundreds of samples, so it is still a mean over the workload.
    """
    means = [sum(window) / len(window) for window in windows if window]
    if not means:
        raise ValueError("mean of an empty sample set")
    return min(means), sum(len(window) for window in windows)


def fastest_window_percentile(windows: Sequence[Sequence[float]], q: float) -> Percentile:
    """The lowest of the ``windows``' ``q``-th percentiles; the count is
    every sample.  See :func:`fastest_window_mean`."""
    cuts = [percentile(window, q).value for window in windows if window]
    if not cuts:
        raise ValueError("percentile of an empty sample set")
    return Percentile(min(cuts), sum(len(window) for window in windows))


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping children (calls made from two threads under one parent)
    are counted once, so a parent's self time never goes negative.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time of every span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def total_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed inclusive duration of every span name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


# ---------------------------------------------------------------------- #
# failure accounting
# ---------------------------------------------------------------------- #
@dataclass
class Tally:
    """Attempted and failed operations, by failure kind."""

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, kind: str, count: int = 1) -> None:
        """Mark ``count`` already-attempted operations as failed with ``kind``.

        Kinds are e.g. ``wrong_cost``, ``wrong_view``, ``wrong_bytes``,
        ``exception``, ``busy`` and ``error``.  A BUSY answer is a failure
        like any other: the request missed every latency limit.
        """
        self.failures[kind] = self.failures.get(kind, 0) + count
        if self.failed > self.attempted:
            raise ValueError("more failures than attempted operations")

    def merge(self, other: "Tally") -> None:
        self.attempt(other.attempted)
        for kind, count in other.failures.items():
            self.fail(kind, count)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
