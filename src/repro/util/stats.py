"""Empirical statistics used throughout the analysis and reporting layers.

The paper reports most of its results either as fractions of a total or as
empirical CDFs (Figures 2-8).  :class:`Cdf` is the reproduction's common
currency for the latter; :func:`fraction_table` for the former.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Cdf",
    "Summary",
    "summarize",
    "fraction_table",
    "geometric_mean",
    "StreamingMoments",
    "P2Quantile",
]


class Cdf:
    """An empirical cumulative distribution function.

    Stores the sorted sample; evaluation is O(log n).  The ``n`` attribute
    mirrors the ``N=`` annotations in the paper's figure keys.
    """

    def __init__(self, samples: Iterable[float]) -> None:
        self._sorted = sorted(samples)
        self.n = len(self._sorted)

    def __len__(self) -> int:
        return self.n

    def __call__(self, x: float) -> float:
        """Return P(X <= x); 0.0 for an empty sample."""
        if not self.n:
            return 0.0
        return bisect.bisect_right(self._sorted, x) / self.n

    def quantile(self, q: float) -> float:
        """Return the q-th quantile (0 <= q <= 1) of the sample."""
        if not self.n:
            raise ValueError("quantile of empty CDF")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if q == 1.0:
            return self._sorted[-1]
        return self._sorted[int(q * self.n)]

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.quantile(0.5)

    @property
    def min(self) -> float:
        """Smallest sample."""
        if not self.n:
            raise ValueError("min of empty CDF")
        return self._sorted[0]

    @property
    def max(self) -> float:
        """Largest sample."""
        if not self.n:
            raise ValueError("max of empty CDF")
        return self._sorted[-1]

    def points(self, max_points: int = 200) -> list[tuple[float, float]]:
        """Return (x, F(x)) pairs suitable for plotting or text rendering.

        Downsamples evenly in rank space so huge samples stay printable.
        """
        if not self.n:
            return []
        step = max(self.n // max_points, 1)
        pts = [
            (self._sorted[i], (i + 1) / self.n)
            for i in range(0, self.n, step)
        ]
        if pts[-1][0] != self._sorted[-1]:
            pts.append((self._sorted[-1], 1.0))
        return pts

    def samples(self) -> Sequence[float]:
        """The sorted underlying sample (read-only view by convention)."""
        return self._sorted


@dataclass(frozen=True)
class Summary:
    """Five-number-plus-mean summary of a sample."""

    n: int
    mean: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float


def summarize(samples: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of ``samples`` (must be non-empty)."""
    cdf = Cdf(samples)
    if not cdf.n:
        raise ValueError("cannot summarize an empty sample")
    data = cdf.samples()
    return Summary(
        n=cdf.n,
        mean=sum(data) / cdf.n,
        minimum=cdf.min,
        p25=cdf.quantile(0.25),
        median=cdf.median,
        p75=cdf.quantile(0.75),
        maximum=cdf.max,
    )


def fraction_table(counts: Mapping[str, float]) -> dict[str, float]:
    """Normalize a {key: count} mapping into {key: fraction}.

    An all-zero (or empty) input yields all-zero fractions rather than
    raising, since empty traffic classes are routine in small traces.
    """
    total = sum(counts.values())
    if total <= 0:
        return {key: 0.0 for key in counts}
    return {key: value / total for key, value in counts.items()}


class StreamingMoments:
    """Single-pass count/mean/variance/min/max (Welford's algorithm).

    The single-pass engine's counterpart to :func:`summarize`: O(1) state,
    one update per observation, no sample retained.  ``merge`` combines
    two accumulators (Chan's parallel update), so per-window moments can
    be rolled up into per-trace ones without a second pass.
    """

    __slots__ = ("n", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, x: float) -> None:
        """Fold one observation into the running moments."""
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    @property
    def variance(self) -> float:
        """Population variance of everything seen so far (0.0 when n < 2)."""
        return self._m2 / self.n if self.n else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "StreamingMoments") -> None:
        """Fold ``other``'s observations into this accumulator."""
        if not other.n:
            return
        if not self.n:
            self.n = other.n
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.n + other.n
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / total
        self.mean += delta * other.n / total
        self.n = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def snapshot(self) -> dict:
        """Plain-data state for checkpointing."""
        return {
            "n": self.n,
            "mean": self.mean,
            "m2": self._m2,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def restore(cls, state: dict) -> "StreamingMoments":
        """Rebuild an accumulator from :meth:`snapshot` output."""
        moments = cls()
        moments.n = state["n"]
        moments.mean = state["mean"]
        moments._m2 = state["m2"]
        moments.minimum = state["min"]
        moments.maximum = state["max"]
        return moments


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac).

    Five markers, O(1) memory and update time; exact until five
    observations arrive, then a piecewise-parabolic estimate.  Good
    enough for operational readouts (median/p95 window throughput on a
    live stream) where sorting every sample would defeat the point of a
    single-pass engine.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_rate", "n")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile out of range: {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._rate = [0.0, q / 2, q, (1 + q) / 2, 1.0]
        self.n = 0

    def add(self, x: float) -> None:
        """Fold one observation into the estimate."""
        self.n += 1
        heights = self._heights
        if len(heights) < 5:
            bisect.insort(heights, x)
            return
        if x < heights[0]:
            heights[0] = x
            cell = 0
        elif x >= heights[4]:
            heights[4] = x
            cell = 3
        else:
            cell = next(i for i in range(4) if heights[i] <= x < heights[i + 1])
        for i in range(cell + 1, 5):
            self._positions[i] += 1
        for i in range(5):
            self._desired[i] += self._rate[i]
        for i in (1, 2, 3):
            delta = self._desired[i] - self._positions[i]
            below = self._positions[i] - self._positions[i - 1]
            above = self._positions[i + 1] - self._positions[i]
            if (delta >= 1 and above > 1) or (delta <= -1 and below > 1):
                step = 1 if delta >= 1 else -1
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:  # parabolic estimate escaped: fall back to linear
                    heights[i] += step * (heights[i + step] - heights[i]) / (
                        self._positions[i + step] - self._positions[i]
                    )
                self._positions[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, p = self._heights, self._positions
        return h[i] + step / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + step) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - step) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    @property
    def value(self) -> float:
        """The current estimate (0.0 before any observation)."""
        if not self._heights:
            return 0.0
        if len(self._heights) < 5:
            # Exact small-sample quantile, same convention as Cdf.quantile.
            index = min(int(self.q * len(self._heights)), len(self._heights) - 1)
            return self._heights[index]
        return self._heights[2]

    def snapshot(self) -> dict:
        """Plain-data state for checkpointing."""
        return {
            "q": self.q,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
            "n": self.n,
        }

    @classmethod
    def restore(cls, state: dict) -> "P2Quantile":
        """Rebuild an estimator from :meth:`snapshot` output."""
        estimator = cls(state["q"])
        estimator._heights = list(state["heights"])
        estimator._positions = list(state["positions"])
        estimator._desired = list(state["desired"])
        estimator.n = state["n"]
        return estimator


def geometric_mean(samples: Sequence[float]) -> float:
    """Geometric mean of strictly positive samples."""
    if not samples:
        raise ValueError("geometric mean of empty sample")
    if any(s <= 0 for s in samples):
        raise ValueError("geometric mean requires positive samples")
    return math.exp(sum(math.log(s) for s in samples) / len(samples))
