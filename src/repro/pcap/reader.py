"""Streaming pcap reader with optional recovery mode.

By default the reader is strict: any structural damage raises a typed
:class:`~repro.analysis.errors.IngestionError` (a ``ValueError``
subclass) naming the file and byte offset.  Handed a tolerant
:class:`~repro.analysis.errors.TraceErrorLog`, it instead records the
defect and stops cleanly at the last intact record, reporting what was
salvaged — the treatment a partially written capture deserves.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterator

from ..net.packet import CapturedPacket
from .records import GLOBAL_HEADER, RECORD_HEADER, PcapGlobalHeader

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from ..analysis.errors import TraceErrorLog

__all__ = ["PcapReader", "read_pcap", "MAX_SANE_CAPLEN"]

#: Upper bound on a believable per-record capture length (matches
#: libpcap's MAXIMUM_SNAPLEN); claims beyond it are corrupt headers, and
#: honoring them would make the reader allocate unbounded buffers.
MAX_SANE_CAPLEN = 262144


def _errors_module():
    # Imported lazily: repro.analysis.engine imports this module, so a
    # top-level import of repro.analysis here would be a package cycle.
    from ..analysis import errors

    return errors


class PcapReader:
    """Iterates :class:`CapturedPacket` records out of a pcap stream.

    Handles both byte orders.  Structural damage — a truncated global or
    record header, a body shorter than its header claims, an absurd
    capture length — is reported through ``errors`` (a
    :class:`~repro.analysis.errors.TraceErrorLog`); with no log supplied
    the reader builds a strict one, preserving the historical
    raise-on-corruption behavior.  Silent truncation at the *file* level
    (as opposed to the per-packet snaplen) should never pass unnoticed.
    """

    def __init__(
        self,
        stream: BinaryIO,
        *,
        path: str = "<stream>",
        errors: "TraceErrorLog | None" = None,
    ) -> None:
        errmod = _errors_module()
        self._stream = stream
        self.path = path
        self.errors = errors if errors is not None else errmod.TraceErrorLog(path=path)
        #: Records yielded so far (what recovery mode salvaged).
        self.records_read = 0
        #: Byte offset of the first unread record (advanced per record;
        #: the ingest engine checkpoints it and seeks back on resume).
        self.offset = GLOBAL_HEADER.size
        header_bytes = stream.read(GLOBAL_HEADER.size)
        try:
            self.header, self._swapped = PcapGlobalHeader.decode(header_bytes)
        except ValueError as exc:
            kind = (
                errmod.ErrorKind.TRUNCATED_HEADER
                if len(header_bytes) < GLOBAL_HEADER.size
                else errmod.ErrorKind.BAD_MAGIC
            )
            # Without a trusted header even the byte order is unknown, so
            # nothing after it can be salvaged: fatal under any policy.
            self.errors.record(kind, offset=0, detail=str(exc), fatal=True)
            raise AssertionError("record() must raise for fatal defects")  # pragma: no cover
        self._record = struct.Struct(">IIII") if self._swapped else RECORD_HEADER

    @classmethod
    def open(
        cls, path: str | Path, *, errors: "TraceErrorLog | None" = None
    ) -> "PcapReader":
        """Open ``path`` and parse its global header.

        The stream is closed again if header parsing fails, and the
        raised error names the file.
        """
        stream = io.open(path, "rb")
        try:
            return cls(stream, path=str(path), errors=errors)
        except BaseException:
            stream.close()
            raise

    @property
    def snaplen(self) -> int:
        """The capture snaplen recorded in the file header."""
        return self.header.snaplen

    def seek_record(self, offset: int) -> None:
        """Position the stream at a record boundary (checkpoint resume).

        ``offset`` must come from a previous reader's :attr:`offset` over
        the same file; no validation beyond the seek is performed.
        """
        self._stream.seek(offset)
        self.offset = offset

    def __iter__(self) -> Iterator[CapturedPacket]:
        errmod = _errors_module()
        record_struct = self._record
        offset = self.offset
        while True:
            header = self._stream.read(record_struct.size)
            if not header:
                return
            if len(header) < record_struct.size:
                # Under a tolerant policy record() returns and the read
                # stops cleanly at the last intact record.
                self.errors.record(
                    errmod.ErrorKind.TRUNCATED_HEADER,
                    offset=offset,
                    detail=f"{len(header)} of {record_struct.size} record header bytes",
                )
                return
            ts_sec, ts_usec, caplen, wire_len = record_struct.unpack(header)
            if caplen > MAX_SANE_CAPLEN:
                self.errors.record(
                    errmod.ErrorKind.TRUNCATED_BODY,
                    offset=offset,
                    detail=f"caplen {caplen} exceeds sane maximum {MAX_SANE_CAPLEN}",
                )
                return
            data = self._stream.read(caplen)
            if len(data) < caplen:
                self.errors.record(
                    errmod.ErrorKind.TRUNCATED_BODY,
                    offset=offset,
                    detail=f"{len(data)} of {caplen} body bytes",
                )
                return
            offset += record_struct.size + caplen
            self.offset = offset
            self.records_read += 1
            yield CapturedPacket(
                ts=ts_sec + ts_usec / 1e6, data=data, wire_len=wire_len
            )

    def close(self) -> None:
        """Close the underlying stream."""
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_pcap(
    path: str | Path, *, materialize: bool = True
) -> list[CapturedPacket] | Iterator[CapturedPacket]:
    """Read the packet records of ``path``.

    With ``materialize=True`` (the historical behavior) every record is
    loaded into one list — O(file size) memory, only worth opting into
    when the caller genuinely needs random access.  With
    ``materialize=False`` an iterator is returned instead: packets are
    decoded one record at a time and the file is closed when the
    iterator is exhausted (or garbage-collected), so peak memory stays
    at one record regardless of trace size.  Header damage raises
    eagerly in both modes.
    """
    reader = PcapReader.open(path)
    if materialize:
        with reader:
            return list(reader)
    return _iter_then_close(reader)


def _iter_then_close(reader: PcapReader) -> Iterator[CapturedPacket]:
    with reader:
        yield from reader
