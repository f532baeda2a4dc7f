"""Windowed online aggregates: what the stream looks like *right now*.

A study only reports after a whole dataset is ingested.  The
single-pass engine can do better: as packets flow through, a
:class:`WindowAggregator` maintains per-window byte/packet counts,
connection starts broken down by traffic category (the paper's §3-§4
application mix, via :func:`~repro.analysis.classify.classify_conn`),
and the TCP retransmission rate per window (§6's loss proxy) — all in
O(1) state per window, with dataset-wide distributions tracked through
the streaming moment and quantile estimators in :mod:`repro.util.stats`.

These aggregates are observability, not analysis products: they feed
the ``repro stream`` CLI's live progress lines and the final window
summary, and never touch the study digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..analysis.classify import classify_conn
from ..analysis.conn import ConnRecord
from ..util.stats import P2Quantile, StreamingMoments

__all__ = ["WindowStats", "WindowAggregator"]


@dataclass
class WindowStats:
    """One completed (or in-flight) aggregation window."""

    index: int
    start_ts: float
    duration: float
    packets: int = 0
    bytes: int = 0
    tcp_packets: int = 0
    retransmits: int = 0
    #: Traffic category -> connections *started* in this window.
    conn_starts: dict[str, int] = field(default_factory=dict)

    @property
    def mbps(self) -> float:
        """Mean offered load over the window, in Mbit/s."""
        if self.duration <= 0:
            return 0.0
        return self.bytes * 8 / 1e6 / self.duration

    @property
    def retransmit_rate(self) -> float:
        """Retransmitted fraction of this window's TCP packets."""
        if self.tcp_packets == 0:
            return 0.0
        return self.retransmits / self.tcp_packets

    def payload(self) -> dict:
        return {
            "index": self.index,
            "start_ts": self.start_ts,
            "duration": self.duration,
            "packets": self.packets,
            "bytes": self.bytes,
            "tcp_packets": self.tcp_packets,
            "retransmits": self.retransmits,
            "conn_starts": dict(self.conn_starts),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WindowStats":
        return cls(**payload)


#: Called with each window as it closes (the next window has begun).
WindowObserver = Callable[[WindowStats], None]


class WindowAggregator:
    """Single-pass aggregation over fixed-duration time windows.

    Windows are anchored at the first observed timestamp and close as
    time advances past their end; ``observer`` (when given) fires once
    per closed window, which is what drives live progress output.  The
    per-window load distribution is summarized incrementally — mean and
    variance by Welford's method, median and p95 by the P² estimator —
    so the summary costs O(1) memory no matter how long the stream runs.

    Counts arrive as running totals, not per packet: the engine calls
    :meth:`roll` only when a packet reaches the live window's end, with
    the trace's cumulative ``(packets, bytes, tcp segments,
    retransmits)`` so far, and a closing window takes the difference
    since it opened.  A packet costs the engine one comparison.
    """

    def __init__(
        self,
        window: float = 60.0,
        observer: WindowObserver | None = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.window = window
        self.observer = observer
        self.current: WindowStats | None = None
        #: The running totals when the live window opened.
        self._base: tuple[int, int, int, int] = (0, 0, 0, 0)
        self.windows_closed = 0
        self.load_moments = StreamingMoments()
        self.load_median = P2Quantile(0.5)
        self.load_p95 = P2Quantile(0.95)

    def roll(self, ts: float, totals: tuple[int, int, int, int]) -> float:
        """Close the windows ``ts`` has moved past and return the live
        window's end.  ``totals`` are the running counts *before* the
        packet at ``ts``, which belongs to the live window."""
        current = self.current
        if current is None:
            current = self.current = WindowStats(0, ts, self.window)
            self._base = totals
        while ts >= current.start_ts + current.duration:
            self._close(current, totals)
            current = WindowStats(
                current.index + 1,
                current.start_ts + current.duration,
                self.window,
            )
            self.current = current
        return current.start_ts + current.duration

    def _close(self, window: WindowStats, totals: tuple[int, int, int, int]) -> None:
        base = self._base
        window.packets = totals[0] - base[0]
        window.bytes = totals[1] - base[1]
        window.tcp_packets = totals[2] - base[2]
        window.retransmits = totals[3] - base[3]
        self._base = totals
        self.windows_closed += 1
        mbps = window.mbps
        self.load_moments.add(mbps)
        self.load_median.add(mbps)
        self.load_p95.add(mbps)
        if self.observer is not None:
            self.observer(window)

    def observe_flow(self, record: ConnRecord) -> None:
        """Count a newly created flow under its traffic category (its
        first packet has already rolled the live window)."""
        _, category = classify_conn(record)
        conn_starts = self.current.conn_starts
        conn_starts[category] = conn_starts.get(category, 0) + 1

    def finish(self, totals: tuple[int, int, int, int]) -> None:
        """Close the final, partial window (end of stream)."""
        if self.current is not None:
            self._close(self.current, totals)
            self.current = None

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """Dataset-wide per-window load distribution so far."""
        return {
            "windows": self.windows_closed,
            "window_seconds": self.window,
            "mbps_mean": self.load_moments.mean,
            "mbps_stddev": self.load_moments.stddev,
            "mbps_min": self.load_moments.minimum,
            "mbps_max": self.load_moments.maximum,
            "mbps_p50": self.load_median.value,
            "mbps_p95": self.load_p95.value,
        }

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "window": self.window,
            "current": None if self.current is None else self.current.payload(),
            "base": list(self._base),
            "windows_closed": self.windows_closed,
            "load_moments": self.load_moments.snapshot(),
            "load_median": self.load_median.snapshot(),
            "load_p95": self.load_p95.snapshot(),
        }

    @classmethod
    def restore(
        cls, state: dict, observer: WindowObserver | None = None
    ) -> "WindowAggregator":
        agg = cls(window=state["window"], observer=observer)
        if state["current"] is not None:
            agg.current = WindowStats.from_payload(state["current"])
        agg._base = tuple(state["base"])
        agg.windows_closed = state["windows_closed"]
        agg.load_moments = StreamingMoments.restore(state["load_moments"])
        agg.load_median = P2Quantile.restore(state["load_median"])
        agg.load_p95 = P2Quantile.restore(state["load_p95"])
        return agg
