"""Summary statistics shared by the workloads, the set runner and the tests."""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
BEYOND = 10

#: The percentile of a run's samples that stands for the machine's fast state.
FAST_Q = 10.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above their nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float) -> int:
    """The fewest samples that leave :data:`BEYOND` of them above percentile ``q``."""
    n = 1
    while beyond(n, q) < BEYOND:
        n += 1
    return n


def fast_state(samples: list[float], higher_is_better: bool = False) -> float:
    """A run's value in the machine's fast state: the :data:`FAST_Q`
    percentile of its samples, or the mirror percentile for a rate.
    Zero when the run produced no sample (its operations all failed)."""
    if not samples:
        return 0.0
    return percentile(samples, 100.0 - FAST_Q if higher_is_better else FAST_Q)


def summary(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` gives them) and n."""
    if not values:
        raise ValueError("summary of no values")
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
