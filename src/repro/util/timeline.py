"""Time-binned byte counting for utilization analysis (Figure 9).

The paper computes per-trace utilization over 1 s, 10 s, and 60 s windows.
:class:`ByteTimeline` accumulates (timestamp, bytes) points into fixed-width
bins and derives peak/percentile utilization in Mbps.
"""

from __future__ import annotations

import math
from typing import Iterable

from .stats import Cdf, Summary, summarize

__all__ = ["ByteTimeline", "StreamingTimeline"]


class ByteTimeline:
    """Accumulates wire bytes into fixed-width time bins.

    Parameters
    ----------
    start, end:
        The trace's time span in seconds.  Bins outside the span are
        rejected, which catches timestamp bugs early.
    bin_seconds:
        Width of each bin.
    """

    def __init__(self, start: float, end: float, bin_seconds: float = 1.0) -> None:
        if end <= start:
            raise ValueError(f"empty time span: [{start}, {end}]")
        if bin_seconds <= 0:
            raise ValueError("bin width must be positive")
        self.start = start
        self.end = end
        self.bin_seconds = bin_seconds
        self._bins = [0] * (math.ceil((end - start) / bin_seconds) or 1)

    @property
    def num_bins(self) -> int:
        """Number of bins spanning the trace."""
        return len(self._bins)

    def add(self, timestamp: float, nbytes: int) -> None:
        """Record ``nbytes`` of wire traffic at ``timestamp``."""
        if not self.start <= timestamp <= self.end:
            raise ValueError(
                f"timestamp {timestamp} outside [{self.start}, {self.end}]"
            )
        index = min(
            int((timestamp - self.start) / self.bin_seconds), len(self._bins) - 1
        )
        self._bins[index] += nbytes

    def add_many(self, points: Iterable[tuple[float, int]]) -> None:
        """Record an iterable of (timestamp, bytes) points."""
        for timestamp, nbytes in points:
            self.add(timestamp, nbytes)

    def bins(self) -> list[int]:
        """Byte counts per bin (a copy)."""
        return list(self._bins)

    def mbps(self) -> list[float]:
        """Per-bin throughput in megabits per second."""
        scale = 8.0 / (self.bin_seconds * 1e6)
        return [count * scale for count in self._bins]

    def peak_mbps(self, window_seconds: float) -> float:
        """Peak throughput over any aligned window of ``window_seconds``.

        Matches the paper's "peak utilization over 1/10/60 second
        intervals": bins are grouped into consecutive windows and the
        busiest window's average rate is returned.
        """
        if window_seconds < self.bin_seconds:
            raise ValueError("window must be at least one bin wide")
        per_window = max(int(round(window_seconds / self.bin_seconds)), 1)
        best = 0
        for i in range(0, len(self._bins), per_window):
            best = max(best, sum(self._bins[i : i + per_window]))
        return best * 8.0 / (per_window * self.bin_seconds * 1e6)

    def utilization_cdf(self) -> Cdf:
        """CDF of per-bin Mbps (the 1-second curves in Figure 9(b))."""
        return Cdf(self.mbps())

    def utilization_summary(self) -> Summary:
        """Min/quartiles/max/mean of per-bin Mbps."""
        return summarize(self.mbps())


class StreamingTimeline:
    """Single-pass byte binning with memory bounded by trace duration.

    :class:`ByteTimeline` needs the trace's full time span up front, so
    filling one directly means buffering every (timestamp, bytes) point —
    O(packets) memory.  This accumulator instead anchors its 1-second bins at the
    *first* packet's timestamp and keeps a sparse ``{bin index: bytes}``
    dict, O(duration) memory, then :meth:`freeze`\\ s into a regular
    :class:`ByteTimeline` once the span is known.

    For time-sorted traces (everything the generator writes) the frozen
    bins are byte-identical to the batch path's.  A timestamp running
    *behind* the anchor (possible only on corrupted or re-ordered input)
    is clamped into the first bin, whereas the batch path re-anchors the
    whole span — the one documented divergence, and one that only occurs
    on input the tolerant policies already flag via the
    ``timestamp_regressions`` counter.
    """

    __slots__ = ("bin_seconds", "_anchor", "_bins")

    def __init__(self, bin_seconds: float = 1.0) -> None:
        if bin_seconds <= 0:
            raise ValueError("bin width must be positive")
        self.bin_seconds = bin_seconds
        self._anchor: float | None = None
        self._bins: dict[int, int] = {}

    def add(self, timestamp: float, nbytes: int) -> None:
        """Record ``nbytes`` of wire traffic at ``timestamp``."""
        anchor = self._anchor
        if anchor is None:
            anchor = self._anchor = timestamp
        index = int((timestamp - anchor) / self.bin_seconds)
        if index < 0:
            index = 0
        bins = self._bins
        bins[index] = bins.get(index, 0) + nbytes

    def freeze(self, start: float, end: float) -> ByteTimeline:
        """Materialize a :class:`ByteTimeline` over ``[start, end]``.

        Matches the batch path's clamp: bytes binned past the end of the
        span fold into the final bin.
        """
        timeline = ByteTimeline(start, end, self.bin_seconds)
        bins = timeline._bins
        last = len(bins) - 1
        for index, nbytes in self._bins.items():
            bins[min(index, last)] += nbytes
        return timeline

    def snapshot(self) -> dict:
        """Plain-data state for checkpointing."""
        return {
            "bin_seconds": self.bin_seconds,
            "anchor": self._anchor,
            "bins": dict(self._bins),
        }

    @classmethod
    def restore(cls, state: dict) -> "StreamingTimeline":
        """Rebuild an accumulator from :meth:`snapshot` output."""
        timeline = cls(state["bin_seconds"])
        timeline._anchor = state["anchor"]
        timeline._bins = {int(k): v for k, v in state["bins"].items()}
        return timeline
