"""The columnar shard format: write-once binary analysis summaries.

A shard is one self-verifying file::

    +--------+---------+------+-----------+----------------------+
    | magic  | version | kind | nsections | sections ...         |
    | "RCS1" |  1 byte | 1 B  |  2 B BE   | name, length, bytes  |
    +--------+---------+------+-----------+----------------------+
    | footer: CRC32 of everything above (4 B BE) + end magic     |
    +------------------------------------------------------------+

Three kinds exist.  A *trace shard* (kind 1) holds one ingested trace:
its :class:`~repro.analysis.engine.TraceStats` and its connection
records in struct-packed columns.  A *dataset shard* (kind 2) holds the
dataset-level products: analyzer reports (the per-analyzer application
event aggregates), the scan-filter verdict, and learned endpoints.  A
*stream shard* (kind 3) carries the ingest engine's live-checkpoint
payloads — drained result batches and engine state snapshots — framed
here but encoded by :mod:`repro.stream.checkpoint`.

Corruption never surfaces as a raw ``struct.error``: every defect is
raised as :class:`ShardError`, an :class:`~repro.analysis.errors.IngestionError`
carrying the PR-1 taxonomy kind (``bad_magic`` for foreign or
wrong-version files, ``truncated_header``/``truncated_body`` for cut-off
bytes, ``decode_error`` for CRC or payload mismatches), so callers apply
the same strict/tolerant policy decisions they already apply to pcaps.

Shard bytes are deterministic: same seed, same shard, byte for byte.
Trace paths are stored relative to the dataset (never absolute), sets
are serialized sorted, and no timestamps or host state are embedded.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..analysis.conn import ConnRecord, ConnState
from ..analysis.engine import TraceStats
from ..analysis.errors import ErrorKind, IngestionError
from ..util.timeline import ByteTimeline
from . import codec
from .schema import SCHEMA_VERSION

__all__ = [
    "MAGIC",
    "END_MAGIC",
    "KIND_TRACE",
    "KIND_DATASET",
    "KIND_STREAM",
    "ShardError",
    "ShardNewerThanReader",
    "encode_shard",
    "decode_shard",
    "encode_conn_columns",
    "decode_conn_columns",
    "TraceShard",
    "DatasetShard",
    "encode_trace_shard",
    "decode_trace_shard",
    "encode_dataset_shard",
    "decode_dataset_shard",
]

MAGIC = b"RCS1"
END_MAGIC = b"1SCR"
KIND_TRACE = 1
KIND_DATASET = 2
#: Streaming-engine checkpoint shards (result batches and engine state);
#: encoded/decoded by :mod:`repro.stream.checkpoint`.
KIND_STREAM = 3

_HEADER = struct.Struct(">4sBBH")  # magic, schema version, kind, nsections
_FOOTER = struct.Struct(">I4s")  # crc32, end magic

#: Stable wire order for ConnState codes (enum definition order).
_STATES = tuple(ConnState)
_STATE_CODE = {state: index for index, state in enumerate(_STATES)}


class ShardError(IngestionError):
    """A shard-level defect, typed with the PR-1 error taxonomy."""


class ShardNewerThanReader(ShardError):
    """The shard's schema version postdates this reader."""


# -- container -------------------------------------------------------------


def encode_shard(
    kind: int, sections: dict[str, bytes], version: int = SCHEMA_VERSION
) -> bytes:
    """Frame named sections into one CRC-checked shard."""
    out = bytearray(_HEADER.pack(MAGIC, version, kind, len(sections)))
    for name, payload in sections.items():
        raw = name.encode("utf-8")
        out += struct.pack(">B", len(raw))
        out += raw
        out += struct.pack(">Q", len(payload))
        out += payload
    out += _FOOTER.pack(zlib.crc32(bytes(out)) & 0xFFFFFFFF, END_MAGIC)
    return bytes(out)


def decode_shard(
    data: bytes, path: str = "<shard>", expect_kind: int | None = None
) -> tuple[int, int, dict[str, bytes]]:
    """Verify and unframe a shard; returns (version, kind, sections)."""
    if len(data) < _HEADER.size + _FOOTER.size:
        raise ShardError(
            ErrorKind.TRUNCATED_HEADER, path, len(data),
            f"{len(data)}-byte file is smaller than a shard header",
        )
    if data[:4] != MAGIC:
        raise ShardError(
            ErrorKind.BAD_MAGIC, path, 0, f"not a shard: magic {data[:4]!r}"
        )
    if data[-4:] != END_MAGIC:
        raise ShardError(
            ErrorKind.TRUNCATED_BODY, path, len(data),
            "footer missing (shard tail truncated)",
        )
    crc_stored, _ = _FOOTER.unpack_from(data, len(data) - _FOOTER.size)
    crc_actual = zlib.crc32(data[: len(data) - _FOOTER.size]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise ShardError(
            ErrorKind.DECODE_ERROR, path, None,
            f"crc mismatch: footer {crc_stored:#010x}, content {crc_actual:#010x}",
        )
    _, version, kind, nsections = _HEADER.unpack_from(data, 0)
    if version != SCHEMA_VERSION:
        raise ShardNewerThanReader(
            ErrorKind.BAD_MAGIC, path, 4,
            f"shard schema version {version}, reader supports {SCHEMA_VERSION}",
        )
    if expect_kind is not None and kind != expect_kind:
        raise ShardError(
            ErrorKind.DECODE_ERROR, path, 5,
            f"expected shard kind {expect_kind}, found {kind}",
        )
    sections: dict[str, bytes] = {}
    pos = _HEADER.size
    end = len(data) - _FOOTER.size
    for _ in range(nsections):
        if pos + 1 > end:
            raise ShardError(
                ErrorKind.TRUNCATED_BODY, path, pos, "section name cut off"
            )
        name_len = data[pos]
        pos += 1
        name = data[pos : pos + name_len].decode("utf-8", "replace")
        pos += name_len
        if pos + 8 > end:
            raise ShardError(
                ErrorKind.TRUNCATED_BODY, path, pos, f"section {name!r} length cut off"
            )
        (length,) = struct.unpack_from(">Q", data, pos)
        pos += 8
        if pos + length > end:
            raise ShardError(
                ErrorKind.TRUNCATED_BODY, path, pos,
                f"section {name!r} claims {length} bytes, {end - pos} remain",
            )
        sections[name] = data[pos : pos + length]
        pos += length
    if pos != end:
        raise ShardError(
            ErrorKind.DECODE_ERROR, path, pos, f"{end - pos} unclaimed bytes"
        )
    return version, kind, sections


def _section(sections: dict[str, bytes], name: str, path: str) -> bytes:
    try:
        return sections[name]
    except KeyError:
        raise ShardError(
            ErrorKind.DECODE_ERROR, path, None, f"missing section {name!r}"
        ) from None


# -- columnar connection block ---------------------------------------------


def encode_conn_columns(conns: list[ConnRecord]) -> bytes:
    """Pack connection records column-by-column.

    Strings (protocols and app labels) are dictionary-encoded through one
    shared string table; ``notes`` dicts are sparse (most records carry
    none) and stored as (row, dict) pairs through the codec.
    """
    out = bytearray()
    n = len(conns)
    strings: list[str] = []
    string_index: dict[str, int] = {}

    def intern(text: str) -> int:
        index = string_index.get(text)
        if index is None:
            index = string_index[text] = len(strings)
            strings.append(text)
        return index

    proto_codes = bytes(intern(conn.proto) for conn in conns)
    state_codes = bytes(_STATE_CODE[conn.state] for conn in conns)
    app_codes = [intern(conn.app) for conn in conns]
    notes = [(row, conn.notes) for row, conn in enumerate(conns) if conn.notes]

    codec._write_uvarint(out, n)
    head = codec.encode(strings)
    codec._write_uvarint(out, len(head))
    out += head
    out += proto_codes
    out += state_codes
    out += struct.pack(f">{n}H", *app_codes)
    out += struct.pack(f">{n}I", *(conn.orig_ip for conn in conns))
    out += struct.pack(f">{n}I", *(conn.resp_ip for conn in conns))
    out += struct.pack(f">{n}H", *(conn.orig_port for conn in conns))
    out += struct.pack(f">{n}H", *(conn.resp_port for conn in conns))
    out += struct.pack(f">{n}d", *(conn.first_ts for conn in conns))
    out += struct.pack(f">{n}d", *(conn.last_ts for conn in conns))
    out += struct.pack(f">{n}I", *(conn.orig_pkts for conn in conns))
    out += struct.pack(f">{n}I", *(conn.resp_pkts for conn in conns))
    out += struct.pack(f">{n}Q", *(conn.orig_bytes for conn in conns))
    out += struct.pack(f">{n}Q", *(conn.resp_bytes for conn in conns))
    out += struct.pack(f">{n}I", *(conn.retransmits for conn in conns))
    out += struct.pack(f">{n}I", *(conn.keepalive_retransmits for conn in conns))
    out += struct.pack(f">{n}Q", *(conn.retransmit_bytes for conn in conns))
    out += struct.pack(f">{n}i", *(conn.trace_index for conn in conns))
    out += codec.encode(notes)
    return bytes(out)


def decode_conn_columns(data: bytes, path: str = "<shard>") -> list[ConnRecord]:
    """Unpack a columnar connection block back into records."""
    try:
        view = memoryview(data)
        n, pos = codec._read_uvarint(view, 0)
        head_len, pos = codec._read_uvarint(view, pos)
        strings = codec.decode(view[pos : pos + head_len])
        pos += head_len

        def column(fmt_char: str, size: int):
            nonlocal pos
            values = struct.unpack_from(f">{n}{fmt_char}", view, pos)
            pos += n * size
            return values

        proto_codes = bytes(view[pos : pos + n]); pos += n
        state_codes = bytes(view[pos : pos + n]); pos += n
        app_codes = column("H", 2)
        orig_ips = column("I", 4)
        resp_ips = column("I", 4)
        orig_ports = column("H", 2)
        resp_ports = column("H", 2)
        first_tss = column("d", 8)
        last_tss = column("d", 8)
        orig_pktss = column("I", 4)
        resp_pktss = column("I", 4)
        orig_bytess = column("Q", 8)
        resp_bytess = column("Q", 8)
        retransmitss = column("I", 4)
        keepalivess = column("I", 4)
        retransmit_bytess = column("Q", 8)
        trace_indexes = column("i", 4)
        notes_list = codec.decode(view[pos:])
        conns = [
            ConnRecord(
                proto=strings[proto_codes[row]],
                orig_ip=orig_ips[row],
                resp_ip=resp_ips[row],
                orig_port=orig_ports[row],
                resp_port=resp_ports[row],
                first_ts=first_tss[row],
                last_ts=last_tss[row],
                orig_pkts=orig_pktss[row],
                resp_pkts=resp_pktss[row],
                orig_bytes=orig_bytess[row],
                resp_bytes=resp_bytess[row],
                state=_STATES[state_codes[row]],
                retransmits=retransmitss[row],
                keepalive_retransmits=keepalivess[row],
                retransmit_bytes=retransmit_bytess[row],
                trace_index=trace_indexes[row],
                app=strings[app_codes[row]],
            )
            for row in range(n)
        ]
        for row, notes in notes_list:
            conns[row].notes = notes
        return conns
    except ShardError:
        raise
    except (struct.error, codec.CodecError, IndexError, ValueError) as exc:
        raise ShardError(
            ErrorKind.DECODE_ERROR, path, None, f"connection columns: {exc!r}"
        ) from None


# -- trace shards ----------------------------------------------------------


@dataclass
class TraceShard:
    """One decoded trace shard."""

    dataset: str
    source: str  # trace file path, relative to the dataset root
    source_digest: str
    stats: TraceStats
    conns: list[ConnRecord]


def _stats_payload(stats: TraceStats, source: str) -> dict:
    timeline = stats.utilization
    return {
        "index": stats.index,
        "path": source,
        "packets": stats.packets,
        "start_ts": stats.start_ts,
        "end_ts": stats.end_ts,
        "l2_counts": stats.l2_counts,
        "other_ip_protocols": stats.other_ip_protocols,
        "utilization": None
        if timeline is None
        else {
            "start": timeline.start,
            "end": timeline.end,
            "bin_seconds": timeline.bin_seconds,
            "bins": timeline.bins(),
        },
        "tcp_packets": stats.tcp_packets,
        "retransmits": stats.retransmits,
        "errors": stats.errors,
        "timestamp_regressions": stats.timestamp_regressions,
        "quarantined": stats.quarantined,
        "quarantine_reason": stats.quarantine_reason,
    }


def _stats_from_payload(payload: dict) -> TraceStats:
    stats = TraceStats(index=payload["index"], path=payload["path"])
    stats.packets = payload["packets"]
    stats.start_ts = payload["start_ts"]
    stats.end_ts = payload["end_ts"]
    stats.l2_counts = payload["l2_counts"]
    stats.other_ip_protocols = payload["other_ip_protocols"]
    raw = payload["utilization"]
    if raw is not None:
        timeline = ByteTimeline(raw["start"], raw["end"], raw["bin_seconds"])
        bins = raw["bins"]
        if len(bins) != timeline.num_bins:
            raise codec.CodecError(
                f"timeline bin count {len(bins)} != expected {timeline.num_bins}"
            )
        timeline._bins = bins
        stats.utilization = timeline
    stats.tcp_packets = payload["tcp_packets"]
    stats.retransmits = payload["retransmits"]
    stats.errors = payload["errors"]
    stats.timestamp_regressions = payload["timestamp_regressions"]
    stats.quarantined = payload["quarantined"]
    stats.quarantine_reason = payload["quarantine_reason"]
    return stats


def encode_trace_shard(
    dataset: str,
    source: str,
    source_digest: str,
    stats: TraceStats,
    conns: list[ConnRecord],
) -> bytes:
    """Build the write-once shard for one ingested trace.

    ``source`` must be dataset-relative (e.g. ``"D0/D0-w000-subnet04.pcap"``)
    so shard bytes stay machine-independent; the stored ``TraceStats.path``
    is rewritten to it.
    """
    if Path(source).is_absolute():
        raise ValueError(f"shard sources must be relative paths: {source!r}")
    meta = {"dataset": dataset, "source": source, "digest": source_digest}
    sections = {
        "meta": codec.encode(meta),
        "stats": codec.encode(_stats_payload(stats, source)),
        "conns": encode_conn_columns(conns),
    }
    return encode_shard(KIND_TRACE, sections)


def decode_trace_shard(data: bytes, path: str = "<shard>") -> TraceShard:
    """Verify and decode one trace shard."""
    _, _, sections = decode_shard(data, path, expect_kind=KIND_TRACE)
    try:
        meta = codec.decode(_section(sections, "meta", path))
        stats = _stats_from_payload(codec.decode(_section(sections, "stats", path)))
    except ShardError:
        raise
    except (codec.CodecError, KeyError, TypeError, ValueError) as exc:
        raise ShardError(
            ErrorKind.DECODE_ERROR, path, None, f"trace sections: {exc!r}"
        ) from None
    conns = decode_conn_columns(_section(sections, "conns", path), path)
    return TraceShard(
        dataset=meta["dataset"],
        source=meta["source"],
        source_digest=meta["digest"],
        stats=stats,
        conns=conns,
    )


# -- dataset shards --------------------------------------------------------


@dataclass
class DatasetShard:
    """One decoded dataset shard (the dataset-level analysis products)."""

    name: str
    full_payload: bool
    internal_net: str
    error_policy: str
    scanner_sources: set[int]
    windows_endpoints: set[tuple[int, int]]
    removed_conns: int
    analyzer_errors: dict[str, int]
    analyzer_results: dict[str, object]


def encode_dataset_shard(shard: DatasetShard) -> bytes:
    """Build the dataset-level shard (analyzer reports and verdicts)."""
    dataset = {
        "name": shard.name,
        "full_payload": shard.full_payload,
        "internal_net": shard.internal_net,
        "error_policy": shard.error_policy,
        "scanner_sources": shard.scanner_sources,
        "windows_endpoints": shard.windows_endpoints,
        "removed_conns": shard.removed_conns,
        "analyzer_errors": shard.analyzer_errors,
    }
    sections = {
        "dataset": codec.encode(dataset),
        "analyzers": codec.encode(shard.analyzer_results),
    }
    return encode_shard(KIND_DATASET, sections)


def decode_dataset_shard(data: bytes, path: str = "<shard>") -> DatasetShard:
    """Verify and decode one dataset shard."""
    _, _, sections = decode_shard(data, path, expect_kind=KIND_DATASET)
    try:
        dataset = codec.decode(_section(sections, "dataset", path))
        analyzers = codec.decode(_section(sections, "analyzers", path))
        return DatasetShard(
            name=dataset["name"],
            full_payload=dataset["full_payload"],
            internal_net=dataset["internal_net"],
            error_policy=dataset["error_policy"],
            scanner_sources=dataset["scanner_sources"],
            windows_endpoints=dataset["windows_endpoints"],
            removed_conns=dataset["removed_conns"],
            analyzer_errors=dataset["analyzer_errors"],
            analyzer_results=analyzers,
        )
    except ShardError:
        raise
    except (codec.CodecError, KeyError, TypeError, ValueError) as exc:
        raise ShardError(
            ErrorKind.DECODE_ERROR, path, None, f"dataset sections: {exc!r}"
        ) from None
