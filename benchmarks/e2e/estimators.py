"""Sample arithmetic of the end-to-end benchmark.

Every number the benchmark reports is reduced from raw samples by one
of the functions here, so the harness self-test can check the
arithmetic on synthetic samples without starting a cluster.
"""

from __future__ import annotations

import math
import statistics
from statistics import median
from typing import List, Sequence

__all__ = ["percentile", "median", "windowed_percentile", "relative_iqr", "relative_gap"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), nearest-rank on sorted samples.

    Nearest-rank returns a value that was actually measured and needs
    no interpolation rule; with the thousands of samples a paced phase
    yields, it differs from an interpolated percentile by less than the
    timer resolution.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("q must be within 0..100")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_percentile(samples: Sequence[float], q: float, window: int) -> float:
    """Median over consecutive full windows of each window's ``q``-th
    percentile.

    A whole-run p99 is set by the one or two scheduler stalls a run
    happens to catch; the median of per-window p99s discards the
    windows a stall landed in and keeps what the tail looks like the
    rest of the time.  A trailing partial window is dropped; fewer
    samples than one window fall back to the plain percentile.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    full = len(samples) // window
    if full == 0:
        return percentile(samples, q)
    per_window: List[float] = [
        percentile(samples[i * window:(i + 1) * window], q) for i in range(full)
    ]
    return median(per_window)


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark's acceptance rule is written in
    (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def relative_gap(first: float, second: float) -> float:
    """How far two medians of the same metric lie apart, as a share of
    the first (the A/A tool's gap)."""
    return abs(second - first) / abs(first) if first else float("inf")
