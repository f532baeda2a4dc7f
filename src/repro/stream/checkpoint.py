"""Live checkpoints: crash-safe snapshots of a streaming run.

A long single-pass run should not lose hours of work to a crash, and it
should not have to buffer every finished connection in memory until the
trace ends.  Both problems have the same answer: periodically *drain*
the finished-flow buffer into a content-addressed **result batch** shard
(kind 3, same RCS1 framing as the rest of the store) and write a small
**state** shard capturing everything needed to continue — live flows
(including reassembled TCP stream bytes), the trace accumulators, the
window aggregator, the error log, and the byte offset of the next
unread pcap record.

A checkpoint becomes visible through a *checkpoint manifest*: a JSON
file in the store's manifests directory marked ``"kind": "checkpoint"``.
The manifest is published atomically after its objects exist, so a
reader sees either a complete checkpoint or none.  The store's
manifest listing skips checkpoint manifests (they are not analyses) but
its garbage collector treats their objects as referenced, so an
interrupted run's checkpoint survives a ``store gc``.  When the trace
completes, the manifest is deleted and the batch objects become
unreferenced — the next gc sweeps them.

Resume restores the engine state, seeks the reader to the recorded
record boundary, and continues; drained batches are re-read only at
trace end, when results are merged, promotion-sorted, and dispatched.
Connection records, trace statistics, and window aggregates resume
exactly.  Per-datagram analyzer state (``on_udp`` accumulations from
before the checkpoint) is not captured — ``on_connection`` dispatch
happens entirely at trace end and is unaffected — so a resumed run is
bit-equal to an uninterrupted one unless stateful UDP analyzers are
attached (see ``docs/streaming.md``).
"""

from __future__ import annotations

from ..analysis.conn import ConnRecord, ConnState
from ..analysis.errors import ErrorPolicy
from ..analysis.flow import FlowResult, FlowTable, PendingResult, _Flow, _Tombstone
from ..analysis.tcpstate import TcpDirectionState, TcpFlowState
from ..store import codec
from ..store.cache import ConnStore
from ..store.schema import SCHEMA_VERSION
from ..store.shard import (
    KIND_STREAM,
    ShardError,
    decode_conn_columns,
    decode_shard,
    encode_conn_columns,
    encode_shard,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "StreamCheckpointer",
    "encode_result_batch",
    "decode_result_batch",
    "encode_state",
    "decode_state",
    "table_snapshot",
    "table_restore",
]

#: Prefix distinguishing checkpoint manifests from analysis manifests.
_MANIFEST_PREFIX = "ckpt-"

#: Format of the engine-state object, stamped into every checkpoint.
#: Bump it whenever the state's fields change: a checkpoint of any
#: other format is retired and its trace re-read from the start.  Kept
#: apart from ``SCHEMA_VERSION``, which feeds every cache key.
CHECKPOINT_FORMAT = 1


# -- TCP state serialization -------------------------------------------------


def _direction_payload(direction: TcpDirectionState) -> dict:
    return {
        "next_seq": direction.next_seq,
        "pkts": direction.pkts,
        "payload_bytes": direction.payload_bytes,
        "retransmits": direction.retransmits,
        "keepalive_retransmits": direction.keepalive_retransmits,
        "retransmit_bytes": direction.retransmit_bytes,
        "stream": bytes(direction.stream),
        "stream_gap": direction.stream_gap,
        "stream_overflow": direction.stream_overflow,
        "collect_stream": direction.collect_stream,
        "fin_seen": direction.fin_seen,
    }


def _direction_from_payload(payload: dict) -> TcpDirectionState:
    direction = TcpDirectionState(payload["collect_stream"])
    direction.next_seq = payload["next_seq"]
    direction.pkts = payload["pkts"]
    direction.payload_bytes = payload["payload_bytes"]
    direction.retransmits = payload["retransmits"]
    direction.keepalive_retransmits = payload["keepalive_retransmits"]
    direction.retransmit_bytes = payload["retransmit_bytes"]
    direction.stream = bytearray(payload["stream"])
    direction.stream_gap = payload["stream_gap"]
    direction.stream_overflow = payload["stream_overflow"]
    direction.fin_seen = payload["fin_seen"]
    return direction


def _tcpstate_payload(state: TcpFlowState) -> dict:
    return {
        "orig": _direction_payload(state.orig),
        "resp": _direction_payload(state.resp),
        "syn_seen": state.syn_seen,
        "synack_seen": state.synack_seen,
        "rst_by_resp": state.rst_by_resp,
        "rst_by_orig": state.rst_by_orig,
        "data_seen": state.data_seen,
    }


def _tcpstate_from_payload(payload: dict) -> TcpFlowState:
    state = TcpFlowState()
    state.orig = _direction_from_payload(payload["orig"])
    state.resp = _direction_from_payload(payload["resp"])
    state.syn_seen = payload["syn_seen"]
    state.synack_seen = payload["synack_seen"]
    state.rst_by_resp = payload["rst_by_resp"]
    state.rst_by_orig = payload["rst_by_orig"]
    state.data_seen = payload["data_seen"]
    return state


# -- connection record serialization ----------------------------------------


def _record_payload(record: ConnRecord) -> dict:
    return {
        "proto": record.proto,
        "orig_ip": record.orig_ip,
        "resp_ip": record.resp_ip,
        "orig_port": record.orig_port,
        "resp_port": record.resp_port,
        "first_ts": record.first_ts,
        "last_ts": record.last_ts,
        "orig_pkts": record.orig_pkts,
        "resp_pkts": record.resp_pkts,
        "orig_bytes": record.orig_bytes,
        "resp_bytes": record.resp_bytes,
        "state": record.state.value,
        "retransmits": record.retransmits,
        "keepalive_retransmits": record.keepalive_retransmits,
        "retransmit_bytes": record.retransmit_bytes,
        "trace_index": record.trace_index,
        "app": record.app,
        "notes": record.notes,
    }


def _record_from_payload(payload: dict) -> ConnRecord:
    payload = dict(payload)
    payload["state"] = ConnState(payload["state"])
    return ConnRecord(**payload)


# -- flow-table serialization ------------------------------------------------


def table_snapshot(table: FlowTable) -> dict:
    """Everything a :class:`~repro.analysis.flow.FlowTable` needs to
    continue later.

    Flow maps are captured in recency (LRU) order, the creation queue as
    flow sequence numbers, and still-buffered results with their sort
    keys, so a restored table evicts, promotes, and orders exactly as
    the uninterrupted one would have.
    """
    flows: dict[str, list[dict]] = {}
    for kind, mapping in table._tables.items():
        flows[kind] = [
            {
                "key": flow.key,
                "record": _record_payload(flow.record),
                "state": None if flow.state is None else _tcpstate_payload(flow.state),
                "seq": flow.seq,
            }
            for flow in mapping.values()
        ]
    creation_order = [
        flow.seq
        for flow in table._by_creation
        if table._tables[flow.kind].get(flow.key) is flow
    ]
    return {
        "max_flows": table.max_flows,
        "idle_timeout": table.idle_timeout,
        "hard_timeout": table.hard_timeout,
        "flows": flows,
        "creation_order": creation_order,
        "pending": [
            {
                "flow_id": pending.flow_id,
                "phase": pending.phase,
                "seq": pending.seq,
                "record": _record_payload(pending.result.record),
                "orig_stream": pending.result.orig_stream,
                "resp_stream": pending.result.resp_stream,
                "stream_truncated": pending.result.stream_truncated,
            }
            for pending in table._pending
        ],
        "tombstones": [
            {"kind": kind, "key": key, "flow_id": tomb.flow_id, "last_ts": tomb.last_ts}
            for (kind, key), tomb in table._tombstones.items()
        ],
        "promotions": dict(table.promotions),
        "creation_seq": table._creation_seq,
        "occurrence_seq": table._occurrence_seq,
        "flow_overflow": table.flow_overflow,
        "early_eviction": table.early_eviction,
        "tcp_segments": table.tcp_segments,
        "tcp_retransmits": table.tcp_retransmits,
        "last_ts": table._last_ts,
        "due": table._due,
    }


def table_restore(
    state: dict,
    *,
    collect_payload: bool,
    udp_observer=None,
    trace_index: int = -1,
) -> FlowTable:
    """Rebuild a :class:`~repro.analysis.flow.FlowTable` from
    :func:`table_snapshot`."""
    table = FlowTable(
        collect_payload=collect_payload,
        udp_observer=udp_observer,
        trace_index=trace_index,
        max_flows=state["max_flows"],
        idle_timeout=state["idle_timeout"],
        hard_timeout=state["hard_timeout"],
    )
    by_seq: dict[int, _Flow] = {}
    for kind, entries in state["flows"].items():
        mapping = table._tables[kind]
        for entry in entries:
            flow = _Flow(
                kind,
                entry["key"],
                _record_from_payload(entry["record"]),
                None if entry["state"] is None else _tcpstate_from_payload(entry["state"]),
                entry["seq"],
            )
            mapping[flow.key] = flow
            by_seq[flow.seq] = flow
    if state["hard_timeout"] is not None:
        table._by_creation.extend(
            by_seq[seq] for seq in state["creation_order"] if seq in by_seq
        )
    for entry in state["pending"]:
        table._pending.append(
            PendingResult(
                entry["flow_id"],
                entry["phase"],
                entry["seq"],
                FlowResult(
                    record=_record_from_payload(entry["record"]),
                    orig_stream=entry["orig_stream"],
                    resp_stream=entry["resp_stream"],
                    stream_truncated=entry["stream_truncated"],
                ),
            )
        )
    for entry in state["tombstones"]:
        table._tombstones[(entry["kind"], entry["key"])] = _Tombstone(
            entry["flow_id"], entry["last_ts"]
        )
    table.promotions = dict(state["promotions"])
    table._creation_seq = state["creation_seq"]
    table._occurrence_seq = state["occurrence_seq"]
    table.flow_overflow = state["flow_overflow"]
    table.early_eviction = state["early_eviction"]
    table.tcp_segments = state["tcp_segments"]
    table.tcp_retransmits = state["tcp_retransmits"]
    table._last_ts = state["last_ts"]
    table._due = state["due"]
    return table


# -- shard payloads ----------------------------------------------------------


def encode_result_batch(results: list[PendingResult]) -> bytes:
    """Frame drained results as one kind-3 shard.

    Records ride in the same struct-packed columns as trace shards;
    sort keys and reassembled streams travel alongside, row-aligned.
    """
    sections = {
        "keys": codec.encode(
            [(pending.flow_id, pending.phase, pending.seq) for pending in results]
        ),
        "conns": encode_conn_columns([pending.result.record for pending in results]),
        "streams": codec.encode(
            [
                (
                    pending.result.orig_stream,
                    pending.result.resp_stream,
                    pending.result.stream_truncated,
                )
                for pending in results
            ]
        ),
    }
    return encode_shard(KIND_STREAM, sections)


def decode_result_batch(data: bytes, path: str = "<shard>") -> list[PendingResult]:
    """Decode one result-batch shard back into pending results."""
    _, _, sections = decode_shard(data, path, expect_kind=KIND_STREAM)
    if "keys" not in sections:
        raise _batch_sections_error(path, sections)
    keys = codec.decode(sections["keys"])
    records = decode_conn_columns(sections["conns"], path)
    streams = codec.decode(sections["streams"])
    return [
        PendingResult(
            flow_id,
            phase,
            seq,
            FlowResult(
                record=record,
                orig_stream=orig,
                resp_stream=resp,
                stream_truncated=truncated,
            ),
        )
        for (flow_id, phase, seq), record, (orig, resp, truncated) in zip(
            keys, records, streams
        )
    ]


def encode_state(payload: dict) -> bytes:
    """Frame one engine-state snapshot as a kind-3 shard."""
    return encode_shard(KIND_STREAM, {"state": codec.encode(payload)})


def decode_state(data: bytes, path: str = "<shard>") -> dict:
    """Decode one engine-state shard."""
    _, _, sections = decode_shard(data, path, expect_kind=KIND_STREAM)
    if "state" not in sections:
        raise _state_sections_error(path, sections)
    return codec.decode(sections["state"])


def _batch_sections_error(path: str, sections: dict) -> ShardError:
    from ..analysis.errors import ErrorKind

    return ShardError(
        ErrorKind.DECODE_ERROR, path, None,
        f"not a result-batch shard (sections: {sorted(sections)})",
    )


def _state_sections_error(path: str, sections: dict) -> ShardError:
    from ..analysis.errors import ErrorKind

    return ShardError(
        ErrorKind.DECODE_ERROR, path, None,
        f"not a state shard (sections: {sorted(sections)})",
    )


# -- the checkpointer --------------------------------------------------------


class StreamCheckpointer:
    """Manages one trace's checkpoint lifecycle against a store.

    ``key`` names the run (the engine derives it from the analysis cache
    key and the trace index, so concurrent dataset workers never
    collide).  The lifecycle is: any number of ``flush_batch`` +
    ``save`` rounds while streaming, ``load``/``load_batches`` on
    resume, and ``clear`` once the trace's results were dispatched.
    """

    def __init__(self, store: ConnStore, key: str) -> None:
        self.store = store
        self.key = key
        #: Digests of every result batch drained so far, oldest first.
        self.batch_digests: list[str] = []

    @property
    def manifest_key(self) -> str:
        return _MANIFEST_PREFIX + self.key

    def flush_batch(self, results: list[PendingResult]) -> str:
        """Persist one drained result batch; returns its digest."""
        digest = self.store.put_object(encode_result_batch(results))
        self.batch_digests.append(digest)
        return digest

    def save(self, state: dict) -> None:
        """Publish a checkpoint: state object first, manifest last.

        The manifest write is atomic, so a crash between the two leaves
        at worst an unreferenced object for gc — never a manifest
        pointing at missing bytes.
        """
        state = dict(state)
        state["format"] = CHECKPOINT_FORMAT
        state["batches"] = list(self.batch_digests)
        digest = self.store.put_object(encode_state(state))
        self.store.manifests_dir.mkdir(parents=True, exist_ok=True)
        self.store._write_manifest(
            self.manifest_key,
            {
                "schema": SCHEMA_VERSION,
                "kind": "checkpoint",
                "key": self.key,
                "state": digest,
                "batches": list(self.batch_digests),
            },
        )

    @classmethod
    def load(
        cls,
        store: ConnStore,
        key: str,
        error_policy: ErrorPolicy | str = ErrorPolicy.STRICT,
    ) -> "tuple[StreamCheckpointer, dict] | None":
        """Open an existing checkpoint, or None when there is none to resume.

        A checkpoint whose state carries no format number, or one this
        version does not know (written by an older or newer engine), is
        retired: the caller then ingests the trace from offset 0, which
        gives the same result a resume would have.  A state object that
        is missing or does not verify or decode follows
        :meth:`ConnStore.load_or_none`: strict raises the store's
        :class:`ShardError`, the tolerant policies retire it the same way.
        """
        checkpointer = cls(store, key)
        manifest = store.lookup(checkpointer.manifest_key)
        if manifest is None or manifest.get("kind") != "checkpoint":
            return None
        try:
            state = decode_state(
                store.get_object(manifest["state"]),
                str(store._object_path(manifest["state"])),
            )
        except ShardError:
            if ErrorPolicy.coerce(error_policy) is ErrorPolicy.STRICT:
                raise
            state = {}
        if state.get("format") != CHECKPOINT_FORMAT:
            checkpointer.clear()
            return None
        checkpointer.batch_digests = list(state.get("batches", []))
        return checkpointer, state

    def load_batches(self) -> list[PendingResult]:
        """Re-read every drained batch, oldest first."""
        results: list[PendingResult] = []
        for digest in self.batch_digests:
            results.extend(
                decode_result_batch(
                    self.store.get_object(digest),
                    str(self.store._object_path(digest)),
                )
            )
        return results

    def clear(self) -> None:
        """Retire the checkpoint (the trace finished and dispatched).

        Goes through the store's delete hook so a replicated store
        retires the mirror copies along with the primary."""
        self.store._delete_manifest(self.manifest_key)
        self.batch_digests = []
