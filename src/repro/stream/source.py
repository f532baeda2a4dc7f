"""The incremental packet source: one record in memory at a time.

``read_pcap`` materializes a trace as a list, which caps trace size at
RAM.  A :class:`PacketSource` instead iterates
:class:`~repro.pcap.reader.PcapReader` directly — the reader already
streams record by record — and adds what the single-pass engine needs
on top: a progress counter, the current record boundary (for
checkpointing), and resume-by-offset.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from ..net.packet import CapturedPacket
from ..pcap.reader import PcapReader

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from ..analysis.errors import TraceErrorLog

__all__ = ["PacketSource"]


class PacketSource:
    """Iterates a trace's packets without ever materializing the trace.

    Wraps either an open :class:`PcapReader` (the normal case) or any
    iterable of :class:`CapturedPacket` (in-memory tests, generated
    traffic).  ``packets_read`` counts what this source yielded;
    ``offset`` tracks the byte position of the next unread record when
    backed by a reader, so a checkpoint can record exactly where to
    resume.
    """

    def __init__(
        self,
        packets: "PcapReader | Iterable[CapturedPacket]",
        path: str = "<memory>",
    ) -> None:
        self._reader = packets if isinstance(packets, PcapReader) else None
        self._packets = packets
        self.path = self._reader.path if self._reader is not None else path
        # Records before the resume point (file-backed) or yielded so
        # far (iterables); a reader counts its own records.
        self._counted = 0

    @classmethod
    def open(
        cls, path: str | Path, *, errors: "TraceErrorLog | None" = None
    ) -> "PacketSource":
        """Open a pcap file as a streaming source."""
        return cls(PcapReader.open(path, errors=errors))

    @property
    def packets_read(self) -> int:
        """Records this source has yielded, counting from the trace start."""
        if self._reader is not None:
            return self._counted + self._reader.records_read
        return self._counted

    @property
    def offset(self) -> int | None:
        """Byte offset of the next unread record (None for iterables)."""
        return self._reader.offset if self._reader is not None else None

    def resume_at(self, offset: int, packets_read: int) -> None:
        """Fast-forward to a checkpointed record boundary.

        Only file-backed sources can seek; resuming an in-memory source
        is a caller bug, reported as such.
        """
        if self._reader is None:
            raise ValueError("cannot resume an in-memory packet source")
        self._reader.seek_record(offset)
        self._counted = packets_read - self._reader.records_read

    def __iter__(self) -> Iterator[CapturedPacket]:
        if self._reader is not None:
            return iter(self._reader)
        return self._count(self._packets)

    def _count(self, packets: Iterable[CapturedPacket]) -> Iterator[CapturedPacket]:
        for pkt in packets:
            self._counted += 1
            yield pkt

    def close(self) -> None:
        """Close the underlying reader, if any."""
        if self._reader is not None:
            self._reader.close()

    def __enter__(self) -> "PacketSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
