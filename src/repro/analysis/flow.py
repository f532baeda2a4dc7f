"""The flow table: packets in, connection records (and streams) out.

Tracks TCP connections (with handshake state, reassembled streams for
payload-bearing ports, and retransmission counts), UDP flows (5-tuple
plus an idle timeout), and ICMP echo exchanges.  This is the analysis
engine's equivalent of Bro's connection processing (§5: "We base our
analysis on connection summaries generated by Bro").

The table is bounded: flows are evicted when idle past a timeout, when
older than an optional hard age limit, or — least-recently-used first —
when the table holds ``max_flows``.  Memory therefore follows the
live-flow population, not the trace.

Eviction timing must not leak into the output, because the study digest
hashes rendered tables whose row order descends from the order
connections are dispatched.  That order is fixed, whatever the table
evicts mid-trace (the *batch order*):

1. UDP/ICMP flows finished by a same-key packet arriving after a
   ``_UDP_TIMEOUT`` gap, in packet-arrival (occurrence) order, then
2. TCP flows in creation order, then
3. remaining UDP flows in creation order, then
4. remaining ICMP flows in creation order.

Every finished flow therefore carries a *sort key* — a ``(phase,
sequence)`` pair naming its place in that order — and the engine sorts
before dispatching.  Phase 0 is the occurrence sequence; phases 1/2/3
are TCP/UDP/ICMP creation order.  A proactively evicted UDP/ICMP flow
leaves a *tombstone*: if a same-key packet later arrives past the gap
threshold, the flow would have been finished at that packet anyway, so
the tombstone resolves to a phase-0 occurrence number (recorded as a
*promotion*, because the result may already have been flushed to a
checkpoint shard and cannot be rewritten).  If the packet arrives inside
the gap threshold — or the flow was TCP, which has no gap rule — the
connection has genuinely been split in two; that is counted as
``early_eviction``.  Under the default knobs (no hard timeout, a TCP
idle timeout far beyond any trace window, and the UDP/ICMP idle timeout
equal to the gap threshold) no split can occur on a time-sorted trace.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

from ..net.ethernet import ETHERTYPE_IPV4
from ..net.icmp import ICMP_ECHO_REPLY, ICMP_ECHO_REQUEST
from ..net.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from ..net.packet import DecodedPacket
from .classify import is_known_service_port
from .conn import ConnRecord, ConnState
from .tcpstate import TcpFlowState

__all__ = [
    "FlowTable",
    "FlowResult",
    "PendingResult",
    "finalize_tcp_flow",
    "STREAM_PORTS",
    "TLS_HEAD_PORTS",
    "DEFAULT_MAX_FLOWS",
    "DEFAULT_IDLE_TIMEOUT",
    "PHASE_OCCURRENCE",
    "PHASE_TCP",
    "PHASE_UDP",
    "PHASE_ICMP",
]

#: UDP services where the server always speaks *second*; seeing only the
#: reply still lets us orient the flow.  SrvLoc is deliberately absent:
#: its responders initiate unicast sends to many peers (the §4 fan-out
#: tail), so the first sender really is the originator.
_UDP_ORIENT_PORTS = frozenset({53, 67, 113, 123, 137, 161, 111, 514, 1033, 2049})

#: TCP service ports whose streams are reassembled for payload analysis.
STREAM_PORTS = frozenset(
    {80, 8080, 25, 143, 110, 139, 445, 135, 524, 2049, 554}
    | set(range(1025, 1101))  # Endpoint-Mapper-assigned DCE/RPC endpoints
)

#: TLS ports: only the stream heads are kept (handshake verification).
TLS_HEAD_PORTS = frozenset({443, 993, 995})

_TLS_HEAD_CAP = 4096
_UDP_TIMEOUT = 60.0

#: Default flow-table capacity: far above any seed dataset's live-flow
#: count, so overflow eviction only fires when explicitly provoked.
DEFAULT_MAX_FLOWS = 262144

#: Default TCP idle timeout: beyond any plausible intra-connection gap
#: within one tap window (the paper's traces span minutes to hours), so
#: by default a TCP connection is never split.
DEFAULT_IDLE_TIMEOUT = 3600.0

PHASE_OCCURRENCE = 0
PHASE_TCP = 1
PHASE_UDP = 2
PHASE_ICMP = 3

_PHASE_OF = {"tcp": PHASE_TCP, "udp": PHASE_UDP, "icmp": PHASE_ICMP}

_NEVER = float("inf")
_ALWAYS = float("-inf")


@dataclass
class FlowResult:
    """One finished connection plus whatever payload was reassembled."""

    record: ConnRecord
    orig_stream: bytes = b""
    resp_stream: bytes = b""
    stream_truncated: bool = False


UdpObserver = Callable[[ConnRecord, bool, DecodedPacket], None]


def finalize_tcp_flow(record: ConnRecord, state: TcpFlowState) -> FlowResult:
    """Close out one TCP flow: classify its terminal state, total up the
    retransmission counters, and package the reassembled streams."""
    record.state = state.final_state()
    record.retransmits = state.orig.retransmits + state.resp.retransmits
    record.keepalive_retransmits = (
        state.orig.keepalive_retransmits + state.resp.keepalive_retransmits
    )
    record.retransmit_bytes = (
        state.orig.retransmit_bytes + state.resp.retransmit_bytes
    )
    truncated = (
        state.orig.stream_gap
        or state.resp.stream_gap
        or state.orig.stream_overflow
        or state.resp.stream_overflow
    )
    return FlowResult(
        record=record,
        orig_stream=bytes(state.orig.stream),
        resp_stream=bytes(state.resp.stream),
        stream_truncated=truncated,
    )


class PendingResult:
    """One finished flow awaiting ordered dispatch.

    ``flow_id`` is the flow's creation sequence number (unique within a
    trace) and keys the promotion map; ``(phase, seq)`` is the batch-
    order sort key as known at emission time.
    """

    __slots__ = ("flow_id", "phase", "seq", "result")

    def __init__(self, flow_id: int, phase: int, seq: int, result: FlowResult) -> None:
        self.flow_id = flow_id
        self.phase = phase
        self.seq = seq
        self.result = result

    def sort_key(self, promotions: dict[int, int]) -> tuple[int, int]:
        """The final ordering key, with any phase-0 promotion applied."""
        promoted = promotions.get(self.flow_id)
        if promoted is not None:
            return (PHASE_OCCURRENCE, promoted)
        return (self.phase, self.seq)


class _Flow:
    __slots__ = ("kind", "key", "record", "state", "seq")

    def __init__(
        self,
        kind: str,
        key: tuple,
        record: ConnRecord,
        state: TcpFlowState | None,
        seq: int,
    ) -> None:
        self.kind = kind
        self.key = key
        self.record = record
        self.state = state
        self.seq = seq


class _Tombstone:
    __slots__ = ("flow_id", "last_ts")

    def __init__(self, flow_id: int, last_ts: float) -> None:
        self.flow_id = flow_id
        self.last_ts = last_ts


class FlowTable:
    """Builds connection records from one pass of decoded packets.

    Parameters
    ----------
    collect_payload:
        Whether TCP streams are reassembled (disabled for the snaplen-68
        datasets D1/D2, exactly as the paper omits them from payload
        analyses).
    udp_observer:
        Called for every UDP datagram belonging to a flow, so
        per-datagram analyzers (DNS, Netbios/NS, NFS-over-UDP) can parse
        payloads without the table buffering them.
    trace_index:
        Stamped onto every record (per-trace analyses, Figures 9-10).
    max_flows:
        Hard cap on simultaneously tracked flows.  Admitting a flow
        beyond it evicts the globally least-recently-touched flow first
        and counts ``flow_overflow``.
    idle_timeout:
        Seconds of inactivity after which a TCP flow is evicted.  UDP
        and ICMP always use the 60 s gap threshold, which is what makes
        their proactive eviction order-safe.
    hard_timeout:
        Optional cap on flow age (``None`` disables it, the default).
    flow_observer:
        Called with each newly created flow's record (drives per-window
        connection-start aggregates).

    ``tcp_segments`` and ``tcp_retransmits`` count every TCP segment the
    table accounted and the retransmissions its state machines charged
    them with; the engine's window aggregates are differences of these
    running totals.
    """

    def __init__(
        self,
        collect_payload: bool = True,
        udp_observer: UdpObserver | None = None,
        trace_index: int = -1,
        *,
        max_flows: int = DEFAULT_MAX_FLOWS,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        hard_timeout: float | None = None,
        flow_observer: Callable[[ConnRecord], None] | None = None,
    ) -> None:
        if max_flows < 1:
            raise ValueError(f"max_flows must be positive: {max_flows}")
        self.collect_payload = collect_payload
        self.udp_observer = udp_observer
        self.trace_index = trace_index
        self.max_flows = max_flows
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.flow_observer = flow_observer
        # Per-protocol flow maps, maintained in recency order (touched
        # flows move to the back), so the front is the LRU candidate.
        self._tcp: OrderedDict[tuple, _Flow] = OrderedDict()
        self._udp: OrderedDict[tuple, _Flow] = OrderedDict()
        self._icmp: OrderedDict[tuple, _Flow] = OrderedDict()
        self._tables = {"tcp": self._tcp, "udp": self._udp, "icmp": self._icmp}
        self._timeouts = {"tcp": idle_timeout, "udp": _UDP_TIMEOUT, "icmp": _UDP_TIMEOUT}
        # Creation-order queue for hard-timeout sweeps; entries are
        # dropped lazily once their flow is no longer live.  Only
        # maintained when a hard timeout is configured, so dead refs
        # cannot pile up in the default configuration.
        self._by_creation: deque[_Flow] = deque()
        self._pending: list[PendingResult] = []
        self._tombstones: dict[tuple[str, tuple], _Tombstone] = {}
        #: flow_id -> occurrence sequence, for results already emitted
        #: (possibly already checkpointed) that a later same-key packet
        #: proved would have been finished mid-trace.
        self.promotions: dict[int, int] = {}
        self._creation_seq = 0
        self._occurrence_seq = 0
        #: Capacity-forced evictions (the table was full).
        self.flow_overflow = 0
        #: Connections split by a premature eviction (a same-key packet
        #: arrived after the flow was already emitted, inside the window
        #: where the gap rule would have kept the flow alive).
        self.early_eviction = 0
        self.tcp_segments = 0
        self.tcp_retransmits = 0
        # The sweep skip.  While packet timestamps never run backwards,
        # each recency-ordered map is also sorted by ``last_ts``, so
        # ``_due`` — the earliest ``last_ts + timeout`` over the maps'
        # fronts, lowered on every admission — bounds every live flow's
        # deadline from below, and a packet before it cannot evict
        # anything.  The first regression (or a hard timeout, whose
        # queue the bound does not cover) turns the skip off for good.
        self._last_ts = _ALWAYS
        self._due = _NEVER if hard_timeout is None else _ALWAYS

    # -- introspection -----------------------------------------------------

    @property
    def live_flows(self) -> int:
        """Flows currently tracked."""
        return len(self._tcp) + len(self._udp) + len(self._icmp)

    @property
    def pending_results(self) -> int:
        """Finished flows buffered for ordered dispatch (undrained)."""
        return len(self._pending)

    # -- sequence allocation ------------------------------------------------

    def _next_creation(self) -> int:
        seq = self._creation_seq
        self._creation_seq += 1
        return seq

    def _next_occurrence(self) -> int:
        seq = self._occurrence_seq
        self._occurrence_seq += 1
        return seq

    # -- ingestion ----------------------------------------------------------

    def process(self, pkt: DecodedPacket) -> None:
        """Account one decoded packet, then sweep expired flows."""
        ts = pkt.ts
        if ts < self._last_ts:
            self._due = _ALWAYS
        self._last_ts = ts
        if pkt.ethertype == ETHERTYPE_IPV4:
            proto = pkt.proto
            if proto == PROTO_TCP:
                if pkt.src_port is not None:
                    self._process_tcp(pkt)
            elif proto == PROTO_UDP:
                if pkt.src_port is not None:
                    self._process_udp(pkt)
            elif proto == PROTO_ICMP and pkt.icmp_type is not None:
                self._process_icmp(pkt)
        # The sweep's own test is ``now - last_ts > timeout``; with
        # ``now < last_ts + timeout`` (rounded), ``now - last_ts`` rounds
        # to at most ``timeout``, so the skip never hides an eviction.
        if ts >= self._due:
            self._expire(ts)

    @staticmethod
    def _canonical_key(pkt: DecodedPacket) -> tuple:
        a = (pkt.src_ip, pkt.src_port)
        b = (pkt.dst_ip, pkt.dst_port)
        return (a, b) if a <= b else (b, a)

    @staticmethod
    def _orient(pkt: DecodedPacket) -> tuple[int, int, int, int]:
        """Pick originator/responder for a flow's first packet.

        A SYN (without ACK) marks its sender as originator; a SYN-ACK its
        sender as responder.  Mid-stream pickups fall back on which side
        has a recognizable service port.
        """
        from ..net.tcp import ACK, SYN

        flags = pkt.tcp_flags
        if flags & SYN and not flags & ACK:
            return pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port
        if flags & SYN and flags & ACK:
            return pkt.dst_ip, pkt.dst_port, pkt.src_ip, pkt.src_port
        if is_known_service_port("tcp", pkt.dst_port) and not is_known_service_port(
            "tcp", pkt.src_port
        ):
            return pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port
        if is_known_service_port("tcp", pkt.src_port) and not is_known_service_port(
            "tcp", pkt.dst_port
        ):
            return pkt.dst_ip, pkt.dst_port, pkt.src_ip, pkt.src_port
        return pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port

    def _resolve_tombstone(self, kind: str, key: tuple, now: float) -> None:
        """A new flow is starting on a key a previous flow once owned."""
        tomb = self._tombstones.pop((kind, key), None)
        if tomb is None:
            return
        if kind != "tcp" and now - tomb.last_ts > _UDP_TIMEOUT:
            # The gap rule would have finished the old flow at this very
            # packet: promote its result into the occurrence phase.
            self.promotions[tomb.flow_id] = self._next_occurrence()
        else:
            # Without the eviction the old flow would still be alive (TCP
            # has no gap rule; UDP/ICMP only past the gap threshold), so
            # the eviction split one connection into two records.
            self.early_eviction += 1

    def _admit(self, flow: _Flow) -> None:
        """Insert a new flow, evicting LRU victims if at capacity."""
        while self.live_flows >= self.max_flows:
            victim = self._lru_victim()
            if victim is None:  # pragma: no cover - max_flows >= 1 guard
                break
            self._evict(victim, overflow=True)
        self._tables[flow.kind][flow.key] = flow
        due = flow.record.last_ts + self._timeouts[flow.kind]
        if due < self._due:
            self._due = due
        if self.hard_timeout is not None:
            self._by_creation.append(flow)
        if self.flow_observer is not None:
            self.flow_observer(flow.record)

    def _lru_victim(self) -> _Flow | None:
        """The least-recently-touched flow across all three protocols."""
        victim: _Flow | None = None
        for table in self._tables.values():
            if not table:
                continue
            flow = next(iter(table.values()))
            if victim is None or flow.record.last_ts < victim.record.last_ts:
                victim = flow
        return victim

    def _process_tcp(self, pkt: DecodedPacket) -> None:
        key = self._canonical_key(pkt)
        table = self._tcp
        flow = table.get(key)
        if flow is None:
            self._resolve_tombstone("tcp", key, pkt.ts)
            orig_ip, orig_port, resp_ip, resp_port = self._orient(pkt)
            record = ConnRecord(
                proto="tcp",
                orig_ip=orig_ip,
                resp_ip=resp_ip,
                orig_port=orig_port,
                resp_port=resp_port,
                first_ts=pkt.ts,
                last_ts=pkt.ts,
                trace_index=self.trace_index,
            )
            collect = self.collect_payload and (
                resp_port in STREAM_PORTS or resp_port in TLS_HEAD_PORTS
            )
            flow = _Flow("tcp", key, record, TcpFlowState(collect), self._next_creation())
            self._admit(flow)
        else:
            table.move_to_end(key)
        record = flow.record
        record.last_ts = pkt.ts
        from_orig = pkt.src_ip == record.orig_ip and pkt.src_port == record.orig_port
        if from_orig:
            record.orig_pkts += 1
            record.orig_bytes += pkt.payload_len
        else:
            record.resp_pkts += 1
            record.resp_bytes += pkt.payload_len
        if flow.state.on_segment(
            from_orig, pkt.seq, pkt.tcp_flags, pkt.payload, pkt.payload_len
        ):
            self.tcp_retransmits += 1
        self.tcp_segments += 1

    def _process_udp(self, pkt: DecodedPacket) -> None:
        key = self._canonical_key(pkt)
        table = self._udp
        flow = table.get(key)
        if flow is not None and pkt.ts - flow.record.last_ts > _UDP_TIMEOUT:
            # The gap rule: a same-key packet past the gap finishes the
            # old flow here and now, in occurrence order.
            self._finish_gap(flow)
            flow = None
        if flow is None:
            self._resolve_tombstone("udp", key, pkt.ts)
            src_is_service = pkt.src_port in _UDP_ORIENT_PORTS
            dst_is_service = pkt.dst_port in _UDP_ORIENT_PORTS
            if src_is_service and not dst_is_service:
                orig = (pkt.dst_ip, pkt.dst_port)
                resp = (pkt.src_ip, pkt.src_port)
            else:
                orig = (pkt.src_ip, pkt.src_port)
                resp = (pkt.dst_ip, pkt.dst_port)
            record = ConnRecord(
                proto="udp",
                orig_ip=orig[0],
                resp_ip=resp[0],
                orig_port=orig[1],
                resp_port=resp[1],
                first_ts=pkt.ts,
                last_ts=pkt.ts,
                state=ConnState.EST,
                trace_index=self.trace_index,
            )
            flow = _Flow("udp", key, record, None, self._next_creation())
            self._admit(flow)
        else:
            table.move_to_end(key)
        record = flow.record
        record.last_ts = pkt.ts
        from_orig = pkt.src_ip == record.orig_ip and pkt.src_port == record.orig_port
        if from_orig:
            record.orig_pkts += 1
            record.orig_bytes += pkt.payload_len
        else:
            record.resp_pkts += 1
            record.resp_bytes += pkt.payload_len
        if self.udp_observer is not None:
            self.udp_observer(record, from_orig, pkt)

    def _process_icmp(self, pkt: DecodedPacket) -> None:
        if pkt.icmp_type == ICMP_ECHO_REQUEST:
            key = (pkt.src_ip, pkt.dst_ip)
            from_orig = True
        elif pkt.icmp_type == ICMP_ECHO_REPLY:
            key = (pkt.dst_ip, pkt.src_ip)
            from_orig = False
        else:
            key = (pkt.src_ip, pkt.dst_ip)
            from_orig = True
        table = self._icmp
        flow = table.get(key)
        if flow is not None and pkt.ts - flow.record.last_ts > _UDP_TIMEOUT:
            self._finish_gap(flow)
            flow = None
        if flow is None:
            self._resolve_tombstone("icmp", key, pkt.ts)
            record = ConnRecord(
                proto="icmp",
                orig_ip=key[0],
                resp_ip=key[1],
                orig_port=0,
                resp_port=0,
                first_ts=pkt.ts,
                last_ts=pkt.ts,
                state=ConnState.EST,
                trace_index=self.trace_index,
            )
            flow = _Flow("icmp", key, record, None, self._next_creation())
            self._admit(flow)
        else:
            table.move_to_end(key)
        record = flow.record
        record.last_ts = pkt.ts
        if from_orig:
            record.orig_pkts += 1
            record.orig_bytes += pkt.payload_len
        else:
            record.resp_pkts += 1
            record.resp_bytes += pkt.payload_len

    # -- eviction ------------------------------------------------------------

    def _finalize(self, flow: _Flow) -> FlowResult:
        if flow.state is not None:
            return finalize_tcp_flow(flow.record, flow.state)
        return FlowResult(record=flow.record)

    def _remove(self, flow: _Flow) -> None:
        del self._tables[flow.kind][flow.key]

    def _finish_gap(self, flow: _Flow) -> None:
        """The gap rule's mid-trace finish: phase 0, occurrence order."""
        self._remove(flow)
        self._pending.append(
            PendingResult(flow.seq, PHASE_OCCURRENCE, self._next_occurrence(), self._finalize(flow))
        )

    def _evict(self, flow: _Flow, *, overflow: bool = False) -> None:
        """Proactive eviction (idle, hard, or capacity pressure).

        The result keeps its end-of-trace phase for now; a tombstone
        watches the key so a later same-key packet can promote it to the
        occurrence phase (or prove it a split).
        """
        self._remove(flow)
        self._pending.append(
            PendingResult(flow.seq, _PHASE_OF[flow.kind], flow.seq, self._finalize(flow))
        )
        self._tombstones[(flow.kind, flow.key)] = _Tombstone(flow.seq, flow.record.last_ts)
        if overflow:
            self.flow_overflow += 1

    def _expire(self, now: float) -> None:
        """Sweep idle and over-age flows, oldest first."""
        due = _NEVER
        for kind, table in self._tables.items():
            timeout = self._timeouts[kind]
            while table:
                flow = next(iter(table.values()))
                if now - flow.record.last_ts <= timeout:
                    due = min(due, flow.record.last_ts + timeout)
                    break
                self._evict(flow)
        if self._due != _ALWAYS:
            self._due = due
        if self.hard_timeout is None:
            return
        queue = self._by_creation
        while queue:
            flow = queue[0]
            if self._tables[flow.kind].get(flow.key) is not flow:
                queue.popleft()  # already evicted or finished
                continue
            if now - flow.record.first_ts <= self.hard_timeout:
                break
            queue.popleft()
            self._evict(flow)

    # -- draining ------------------------------------------------------------

    def drain(self) -> list[PendingResult]:
        """Hand over buffered results whose sort keys can no longer change.

        A result with a live tombstone may still be promoted into the
        occurrence phase by a future packet, so it stays buffered; all
        others are safe to flush into a checkpoint shard.  Results that
        were already *promoted* are also safe — the promotion map travels
        in the checkpoint state, not in the result.
        """
        watched = {tomb.flow_id for tomb in self._tombstones.values()}
        drained: list[PendingResult] = []
        kept: list[PendingResult] = []
        for pending in self._pending:
            (kept if pending.flow_id in watched else drained).append(pending)
        self._pending = kept
        return drained

    def requeue(self, results: list[PendingResult]) -> None:
        """Put drained-but-unpersisted results back in the buffer.

        The checkpointer calls this when a batch flush dies on an I/O
        fault: the results return to ``_pending`` so no connection is
        lost, and the next drain (or ``finish``) hands them over again.
        Buffer order is irrelevant — dispatch sorts by
        :meth:`PendingResult.sort_key` at trace end.
        """
        self._pending[:0] = results

    def finish(self) -> list[PendingResult]:
        """Finish every live flow and return all still-buffered results.

        Surviving flows get their end-of-trace phase by protocol,
        creation order within it.  The caller merges these with
        previously drained batches, applies ``promotions``, and sorts by
        :meth:`PendingResult.sort_key`.
        """
        for kind, table in self._tables.items():
            for flow in table.values():
                self._pending.append(
                    PendingResult(flow.seq, _PHASE_OF[kind], flow.seq, self._finalize(flow))
                )
            table.clear()
        self._by_creation.clear()
        self._tombstones.clear()
        pending = self._pending
        self._pending = []
        return pending

    def flush(self) -> list[FlowResult]:
        """Finish all flows and return every result in batch order."""
        pending = self.finish()
        pending.sort(key=lambda item: item.sort_key(self.promotions))
        return [item.result for item in pending]
