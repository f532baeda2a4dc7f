"""Per-flow TCP state: handshake tracking, in-order stream reassembly,
and retransmission detection (the machinery behind §5's success-rate
analyses and §6's loss analysis).

Retransmission detection follows the paper's method: a data segment
whose sequence number falls below the next expected sequence is counted
as a retransmission, and 1-byte probes just below the expected sequence
are counted separately as TCP keep-alives (§6 excludes those from the
loss analysis because NCP and SSH generate them in bulk).
"""

from __future__ import annotations

from ..net.tcp import ACK, FIN, RST, SYN
from .conn import ConnState

__all__ = ["TcpDirectionState", "TcpFlowState"]

_SEQ_MOD = 1 << 32
_STREAM_CAP = 8 * 1024 * 1024  # per-direction reassembly buffer cap


def _seq_lt(a: int, b: int) -> bool:
    """True when sequence ``a`` precedes ``b`` (mod 2**32)."""
    return ((a - b) % _SEQ_MOD) > (_SEQ_MOD >> 1)


class TcpDirectionState:
    """Reassembly and retransmission state for one direction."""

    __slots__ = (
        "next_seq",
        "pkts",
        "payload_bytes",
        "retransmits",
        "keepalive_retransmits",
        "retransmit_bytes",
        "stream",
        "stream_gap",
        "stream_overflow",
        "collect_stream",
        "fin_seen",
    )

    def __init__(self, collect_stream: bool = False) -> None:
        self.next_seq: int | None = None
        self.pkts = 0
        self.payload_bytes = 0
        self.retransmits = 0
        self.keepalive_retransmits = 0
        self.retransmit_bytes = 0
        self.stream = bytearray()
        self.stream_gap = False
        self.stream_overflow = False
        self.collect_stream = collect_stream
        self.fin_seen = False

    def on_segment(self, seq: int, flags: int, payload: bytes, payload_len: int) -> bool:
        """Account one segment of this direction; True when it was counted
        as a retransmission."""
        self.pkts += 1
        if flags & SYN:
            self.next_seq = (seq + 1) % _SEQ_MOD
            return False
        if flags & RST:
            return False
        if payload_len == 0:
            if flags & FIN:
                self._consume_fin(seq)
            return False
        if self.next_seq is None:
            # Mid-stream pickup: adopt this segment's sequence space.
            self.next_seq = seq
        if _seq_lt(seq, self.next_seq):
            # Wholly or partially retransmitted data.
            retransmit = not (payload_len == 1 and (self.next_seq - seq) % _SEQ_MOD == 1)
            if retransmit:
                self.retransmits += 1
                self.retransmit_bytes += payload_len
            else:
                self.keepalive_retransmits += 1
            if flags & FIN:
                self._consume_fin(seq + payload_len)
            return retransmit
        gap_before = 0
        if seq != self.next_seq:
            # A capture drop or reordering beyond us: pad the hole so the
            # stream's byte offsets stay aligned for downstream framing.
            self.stream_gap = True
            gap_before = (seq - self.next_seq) % _SEQ_MOD
        self.next_seq = (seq + payload_len) % _SEQ_MOD
        if flags & FIN:
            self._consume_fin(self.next_seq)
        if self.collect_stream:
            # Snaplen truncation cuts segment tails (a 1514-byte frame under
            # the paper's snaplen 1500 loses its last 14 payload bytes); pad
            # with zeros so length-prefixed framings keep parsing, exactly as
            # an analyzer with content gaps must.
            missing_tail = payload_len - len(payload)
            chunk_len = gap_before + len(payload) + max(missing_tail, 0)
            if len(self.stream) + chunk_len <= _STREAM_CAP and gap_before < _STREAM_CAP:
                if gap_before:
                    self.stream += b"\x00" * gap_before
                self.stream += payload
                if missing_tail > 0:
                    self.stream += b"\x00" * missing_tail
            else:
                self.stream_overflow = True
        if len(payload) < payload_len:
            self.stream_gap = True  # snaplen truncation
        return False

    def _consume_fin(self, seq_after: int) -> None:
        self.fin_seen = True
        if self.next_seq is not None and seq_after == self.next_seq:
            self.next_seq = (self.next_seq + 1) % _SEQ_MOD


class TcpFlowState:
    """Handshake/teardown tracking for a whole TCP connection."""

    __slots__ = (
        "orig",
        "resp",
        "syn_seen",
        "synack_seen",
        "rst_by_resp",
        "rst_by_orig",
        "data_seen",
    )

    def __init__(self, collect_stream: bool = False) -> None:
        self.orig = TcpDirectionState(collect_stream)
        self.resp = TcpDirectionState(collect_stream)
        self.syn_seen = False
        self.synack_seen = False
        self.rst_by_resp = False
        self.rst_by_orig = False
        self.data_seen = False

    def on_segment(
        self, from_orig: bool, seq: int, flags: int, payload: bytes, payload_len: int
    ) -> bool:
        """Account one segment, attributed to originator or responder;
        True when it was counted as a retransmission."""
        direction = self.orig if from_orig else self.resp
        retransmit = direction.on_segment(seq, flags, payload, payload_len)
        if flags & SYN and not flags & ACK and from_orig:
            self.syn_seen = True
        if flags & SYN and flags & ACK and not from_orig:
            self.synack_seen = True
        if flags & RST:
            if from_orig:
                self.rst_by_orig = True
            else:
                self.rst_by_resp = True
        if payload_len:
            self.data_seen = True
        return retransmit

    @property
    def established(self) -> bool:
        """True once the three-way handshake completed (or we joined late)."""
        return self.synack_seen or (not self.syn_seen and self.data_seen)

    def final_state(self) -> ConnState:
        """Classify the connection's terminal state."""
        if self.syn_seen and not self.synack_seen:
            if self.rst_by_resp:
                return ConnState.REJ
            if self.data_seen:
                return ConnState.OTH
            return ConnState.S0
        if not self.syn_seen and not self.synack_seen:
            return ConnState.OTH
        if self.rst_by_orig or self.rst_by_resp:
            return ConnState.RSTO
        if self.orig.fin_seen and self.resp.fin_seen:
            return ConnState.SF
        return ConnState.EST
