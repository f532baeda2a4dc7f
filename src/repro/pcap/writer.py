"""Streaming pcap writer with snaplen truncation."""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO, Iterable

from ..chaos import fsio
from ..net.packet import CapturedPacket
from .records import RECORD_HEADER, PcapGlobalHeader

__all__ = ["PcapWriter", "write_pcap"]


class PcapWriter:
    """Writes :class:`CapturedPacket` objects to a pcap stream.

    Packets longer than the writer's snaplen are truncated on write while
    preserving the original wire length, exactly as a capture with that
    snaplen would — this is how the header-only D1/D2 datasets are made.

    Usable as a context manager; closing is idempotent.
    """

    def __init__(self, stream: BinaryIO, snaplen: int = 65535) -> None:
        if snaplen <= 0:
            raise ValueError("snaplen must be positive")
        self._stream = stream
        self.snaplen = snaplen
        self.packets_written = 0
        self._stream.write(PcapGlobalHeader(snaplen=snaplen).encode())

    @classmethod
    def open(cls, path: str | Path, snaplen: int = 65535) -> "PcapWriter":
        """Open ``path`` for writing and emit the global header.

        The stream goes through the chaos I/O seam, so an active fault
        plane can tear or fail individual record writes.
        """
        return cls(fsio.open_write(path, op="trace-write"), snaplen=snaplen)

    def write(self, pkt: CapturedPacket) -> None:
        """Append one packet record, truncating to the snaplen."""
        self.write_all((pkt,))

    def write_all(self, packets: Iterable[CapturedPacket]) -> int:
        """Append many packets; returns the number written.

        Each record is two stream writes, header then data, so a fault
        plane counting writes sees the same indices for any batching;
        ``packets_written`` counts whole records even when a write fails.
        """
        write = self._stream.write
        pack = RECORD_HEADER.pack
        snaplen = self.snaplen
        count = 0
        try:
            for pkt in packets:
                data = pkt.data[:snaplen]
                ts = pkt.ts
                ts_sec = int(ts)
                ts_usec = round((ts - ts_sec) * 1e6)
                if ts_usec >= 1_000_000:  # rounding can carry into the next second
                    ts_sec += 1
                    ts_usec -= 1_000_000
                write(pack(ts_sec, ts_usec, len(data), pkt.wire_len))
                write(data)
                count += 1
        finally:
            self.packets_written += count
        return count

    def close(self) -> None:
        """Flush and close the underlying stream."""
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_pcap(
    path: str | Path, packets: Iterable[CapturedPacket], snaplen: int = 65535
) -> int:
    """Write ``packets`` to ``path``; returns the number written."""
    with PcapWriter.open(path, snaplen=snaplen) as writer:
        return writer.write_all(packets)
