"""The benchmark's own arithmetic: percentiles, span self time, error rate,
speed scaling.

Standard library only, so the self-tests run without numpy and the
runner can use it before the program under test is imported.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def min_samples_for(p: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose p-th percentile has `beyond` samples past it."""
    n = 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def highest_supported_percentile(
    n: int, candidates: Sequence[float] = (99.0, 95.0, 90.0, 75.0, 50.0), beyond: int = MIN_BEYOND
) -> float:
    """The highest candidate percentile with at least `beyond` samples past it,
    or 0.0 when even the lowest candidate is not supported."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= beyond:
            return p
    return 0.0


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        raise ValueError("quartile spread of a sample whose median is 0")
    return (q3 - q1) / abs(med)


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and the highest
    `cut` share of them (rounded down)."""
    if not values:
        raise ValueError("trimmed mean of an empty sample")
    k = int(cut * len(values))
    kept = sorted(values)[k:len(values) - k]
    return sum(kept) / len(kept)


def speed_factor(reference_s: Sequence[float], nominal_s: float) -> float:
    """Nominal over the 10%-trimmed mean reference time: times are
    multiplied by it and rates divided, which scales them to the nominal
    reference speed. A mean, unlike a median, moves in proportion to the
    share of the run the machine spent slow, as the run's own times do."""
    return nominal_s / trimmed_mean(reference_s, 0.1)


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; the base is every attempt,
    failures included."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


# A span is (name, start, end, parent_index); parent_index is -1 at the root.
Span = Tuple[str, float, float, int]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        out.append((end - start) - _covered(children.get(i, []), start, end))
    return out
