"""TCP endpoint emulation: session descriptions → wire packets.

Implements enough TCP mechanics for every transport-level analysis in the
paper to be meaningful: three-way handshake, MSS segmentation, delayed
acknowledgments, loss-driven retransmissions (Figure 10), 1-byte TCP
keep-alives (the NCP/SSH behaviour of §5.2.2/§6), connection rejection
via RST and unanswered SYN retries (the success-rate analyses of §5), and
FIN/RST teardown.

Timestamps model the tap's vantage at the router: a packet crossing from
one side to the other is seen once, and a reply to it appears one RTT
later on the opposite direction.
"""

from __future__ import annotations

from random import Random

from ..net.packet import CapturedPacket, make_tcp_packet
from ..net.tcp import ACK, FIN, PSH, RST, SYN
from .session import AppEvent, Dir, Outcome, TcpSession

__all__ = ["realize_tcp"]

_LINE_RATE_BPS = 100e6  # the 100 Mbps subnets of §6
_SYN_RETRIES = (0.0, 3.0, 9.0)  # classic BSD SYN retransmission schedule
_MIN_RTO = 0.2

# Ambient per-segment loss when a session does not set its own rate.
# WAN paths lose noticeably more than the switched enterprise LAN
# (Figure 10: WAN rates sit above internal ones, both usually < 1%).
_AMBIENT_LOSS_ENT = 0.0015
_AMBIENT_LOSS_WAN = 0.006
_WAN_RTT_THRESHOLD = 0.005  # rtt above ~5 ms implies a WAN path


def _effective_loss(session: TcpSession, rng: Random) -> float:
    if session.loss_rate is not None:
        return session.loss_rate
    base = (
        _AMBIENT_LOSS_WAN if session.rtt > _WAN_RTT_THRESHOLD else _AMBIENT_LOSS_ENT
    )
    return base * (0.3 + 1.4 * rng.random())  # per-connection variability


class _Endpoint:
    """Sequence-number state for one side of the connection."""

    __slots__ = ("ip", "mac", "port", "snd_nxt")

    def __init__(self, ip: int, mac: int, port: int, isn: int) -> None:
        self.ip = ip
        self.mac = mac
        self.port = port
        self.snd_nxt = isn


def realize_tcp(
    session: TcpSession,
    rng: Random,
    window_end: float | None = None,
) -> list[CapturedPacket]:
    """Expand a :class:`TcpSession` into its packets.

    ``window_end`` models the end of the tap window: packets after it are
    not captured, naturally producing the cut-off connections every real
    trace contains.
    """
    packets: list[CapturedPacket] = []
    client = _Endpoint(
        session.client_ip, session.client_mac, session.sport, rng.getrandbits(24)
    )
    server = _Endpoint(
        session.server_ip, session.server_mac, session.dport, rng.getrandbits(24)
    )
    half_rtt = session.rtt / 2.0

    def emit(
        ts: float, src: _Endpoint, dst: _Endpoint, flags: int, payload: bytes = b"", seq: int | None = None, mss: int | None = None
    ) -> float:
        if window_end is not None and ts > window_end:
            return ts
        packets.append(
            make_tcp_packet(
                ts, src.mac, dst.mac, src.ip, dst.ip, src.port, dst.port,
                src.snd_nxt if seq is None else seq,
                dst.snd_nxt if flags & ACK else 0,
                flags, payload, mss,
            )
        )
        return ts

    clock = session.start

    if session.outcome is Outcome.UNANSWERED:
        for delay in _SYN_RETRIES:
            emit(session.start + delay, client, server, SYN, mss=session.mss)
        return packets

    emit(clock, client, server, SYN, mss=session.mss)
    client.snd_nxt += 1

    if session.outcome is Outcome.REJECTED:
        emit(clock + session.rtt, server, client, RST | ACK)
        return packets

    clock += session.rtt
    emit(clock, server, client, SYN | ACK, mss=session.mss)
    server.snd_nxt += 1
    clock += half_rtt
    emit(clock, client, server, ACK)

    loss_rate = _effective_loss(session, rng)
    last_dir = Dir.C2S
    for event in session.events:
        clock += event.dt
        if event.direction != last_dir:
            clock += half_rtt
            last_dir = event.direction
        sender, receiver = (
            (client, server) if event.direction is Dir.C2S else (server, client)
        )
        clock = _send_data(
            session, rng, emit, sender, receiver, event, clock, loss_rate
        )

    clock += session.end_idle
    clock = _send_keepalives(session, emit, client, server, clock, window_end)

    if session.close == "rst":
        emit(clock + half_rtt, client, server, RST | ACK)
    elif session.close == "fin":
        ts = clock + half_rtt
        emit(ts, client, server, FIN | ACK)
        client.snd_nxt += 1
        ts += session.rtt
        emit(ts, server, client, FIN | ACK)
        server.snd_nxt += 1
        emit(ts + session.rtt, client, server, ACK)
    return packets


def _send_data(
    session: TcpSession,
    rng: Random,
    emit,
    sender: _Endpoint,
    receiver: _Endpoint,
    event: AppEvent,
    clock: float,
    loss_rate: float,
) -> float:
    """Emit MSS-sized segments, delayed ACKs, and loss retransmissions."""
    payload = event.payload
    mss = session.mss
    unacked_segments = 0
    offset = 0
    while offset < len(payload):
        chunk = payload[offset : offset + mss]
        tx_delay = len(chunk) * 8.0 / _LINE_RATE_BPS
        clock += tx_delay
        emit(clock, sender, receiver, ACK | (PSH if offset + mss >= len(payload) else 0), chunk)
        if loss_rate and rng.random() < loss_rate:
            # The segment (or its ACK) was lost downstream of the tap; the
            # sender retransmits it after an RTO, and the tap sees both.
            rto = max(2.5 * session.rtt, _MIN_RTO)
            emit(clock + rto, sender, receiver, ACK | PSH, chunk, seq=sender.snd_nxt)
            clock += rto
        sender.snd_nxt += len(chunk)
        offset += len(chunk)
        unacked_segments += 1
        if unacked_segments >= 2:  # delayed ACK: one ACK per two segments
            emit(clock + session.rtt / 2, receiver, sender, ACK)
            unacked_segments = 0
    if unacked_segments:
        emit(clock + session.rtt / 2, receiver, sender, ACK)
    return clock


def _send_keepalives(
    session: TcpSession,
    emit,
    client: _Endpoint,
    server: _Endpoint,
    clock: float,
    window_end: float | None,
) -> float:
    """Emit periodic 1-byte keep-alive probes and their ACKs.

    TCP keep-alives re-send one garbage byte below ``snd_nxt``; every
    probe after the first therefore looks like a 1-byte retransmission,
    which is exactly the artifact §6 excludes from loss-rate analysis.
    """
    if not session.keepalive_interval or not session.keepalive_count:
        return clock
    for _ in range(session.keepalive_count):
        clock += session.keepalive_interval
        if window_end is not None and clock > window_end:
            break
        emit(clock, client, server, ACK, b"\x00", seq=client.snd_nxt - 1)
        emit(clock + session.rtt, server, client, ACK)
    return clock
