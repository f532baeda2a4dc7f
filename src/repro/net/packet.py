"""High-level packet model: crafting helpers and a flat decoder.

The generator crafts :class:`CapturedPacket` objects (full wire bytes plus
a capture timestamp); the capture model may truncate them to the dataset's
snaplen; the analysis engine turns each back into a flat
:class:`DecodedPacket` with every field the paper's analyses need.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .arp import ArpPacket
from .checksum import fold_words
from .ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPX,
    EthernetFrame,
)
from .icmp import ICMP_HEADER_LEN
from .ipv4 import IPV4_FLAG_DF, IPV4_HEADER_LEN, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from .ipx import IpxPacket
from .tcp import TCP_DEFAULT_WINDOW, TCP_HEADER_LEN
from .udp import UDP_HEADER_LEN

__all__ = [
    "CapturedPacket",
    "DecodedPacket",
    "decode_packet",
    "make_tcp_packet",
    "make_udp_packet",
    "make_icmp_packet",
    "make_arp_packet",
    "make_ipx_packet",
]


@dataclass(frozen=True)
class CapturedPacket:
    """A packet as it appears in a trace file.

    ``data`` holds the captured bytes (possibly truncated to the snaplen);
    ``wire_len`` is the original on-the-wire length.
    """

    ts: float
    data: bytes
    wire_len: int

    @property
    def caplen(self) -> int:
        """Number of bytes actually captured."""
        return len(self.data)

    @property
    def truncated(self) -> bool:
        """True when the capture dropped trailing bytes."""
        return self.caplen < self.wire_len

    def truncate(self, snaplen: int) -> "CapturedPacket":
        """Return a copy limited to ``snaplen`` captured bytes."""
        if self.caplen <= snaplen:
            return self
        return CapturedPacket(ts=self.ts, data=self.data[:snaplen], wire_len=self.wire_len)


@dataclass
class DecodedPacket:
    """A flat, analysis-friendly view of one captured packet.

    Transport fields are ``None`` when the packet is not IP or the capture
    was too short to parse them.  ``payload`` holds the *captured* L4
    payload bytes while ``payload_len`` holds the true on-the-wire L4
    payload length recovered from the IP total-length field — the
    distinction is what lets byte accounting stay correct for the
    header-only (snaplen 68) datasets D1 and D2.
    """

    ts: float
    wire_len: int
    caplen: int
    ethertype: int
    src_mac: int = 0
    dst_mac: int = 0
    # IPv4
    src_ip: int | None = None
    dst_ip: int | None = None
    proto: int | None = None
    ttl: int = 0
    # TCP/UDP
    src_port: int | None = None
    dst_port: int | None = None
    tcp_flags: int = 0
    seq: int = 0
    ack: int = 0
    payload: bytes = b""
    payload_len: int = 0
    # ICMP
    icmp_type: int | None = None
    icmp_code: int = 0
    #: True for frames too short to carry an Ethernet header; every other
    #: field is meaningless and the packet belongs in error accounting,
    #: not in flow or byte accounting.
    runt: bool = False

    @property
    def truncated(self) -> bool:
        """True when the capture dropped trailing bytes."""
        return self.caplen < self.wire_len

    @property
    def is_ip(self) -> bool:
        """True for IPv4 packets."""
        return self.ethertype == ETHERTYPE_IPV4

    @property
    def payload_truncated(self) -> bool:
        """True when some L4 payload bytes were not captured."""
        return len(self.payload) < self.payload_len


_ETH_UNPACK = struct.Struct("!6s6sH").unpack_from
_IP_UNPACK = struct.Struct("!BBHHHBBH4s4s").unpack_from
_TCP_UNPACK = struct.Struct("!HHIIBBH").unpack_from
_UDP_UNPACK = struct.Struct("!HHHH").unpack_from
_FROM_BYTES = int.from_bytes

# The builders pack Ethernet (each MAC as 16 + 32 bits), a 20-byte IPv4
# header and the L4 header in one struct.pack, and compute every checksum
# from the header fields as integers plus the payload's word-sum fold
# (see repro.net.checksum); the layer dataclasses are the general codec
# the output must equal.
_ETH_IPV4 = "!HIHIH" "BBHHHBBHII"
_TCP_FRAME = struct.Struct(_ETH_IPV4 + "HHIIBBHHH")
_UDP_FRAME = struct.Struct(_ETH_IPV4 + "HHHH")
_ICMP_FRAME = struct.Struct(_ETH_IPV4 + "BBHHH")
_MSS_OPTION = struct.Struct("!HH")
_MSS_KIND_LEN = 0x0204  # option kind 2 (MSS), length 4
#: The IPv4 header's constant words: version/IHL/TOS and flags.
_IP_CONST = 0x4500 + IPV4_FLAG_DF


def _eth_ipv4(
    src_mac: int, dst_mac: int, src_ip: int, dst_ip: int,
    proto: int, total: int, ident: int, ttl: int,
) -> tuple[int, ...]:
    """The Ethernet and IPv4 header fields of one frame, checksum included."""
    return (
        dst_mac >> 32, dst_mac & 0xFFFFFFFF, src_mac >> 32, src_mac & 0xFFFFFFFF,
        ETHERTYPE_IPV4,
        0x45, 0, total, ident, IPV4_FLAG_DF, ttl, proto,
        -(_IP_CONST + total + ident + (ttl << 8) + proto + src_ip + dst_ip) % 0xFFFF,
        src_ip, dst_ip,
    )


def decode_packet(pkt: CapturedPacket) -> DecodedPacket:
    """Decode a captured packet down to the transport layer.

    Never raises on truncation: fields that cannot be recovered are left
    at their defaults, mirroring how a real trace analyzer must cope with
    snaplen-limited captures.  Frames too short to even carry an Ethernet
    header come back flagged ``runt`` (ethertype -1) so callers can count
    them in the error taxonomy instead of crashing the trace.  This
    parses header fields inline (rather than via the layer dataclasses)
    because it runs once per packet over whole traces.
    """
    data = pkt.data
    if len(data) < 14:
        return DecodedPacket(
            ts=pkt.ts,
            wire_len=pkt.wire_len,
            caplen=pkt.caplen,
            ethertype=-1,
            runt=True,
        )
    dst_mac, src_mac, ethertype = _ETH_UNPACK(data)
    out = DecodedPacket(
        ts=pkt.ts,
        wire_len=pkt.wire_len,
        caplen=pkt.caplen,
        ethertype=ethertype,
        src_mac=_FROM_BYTES(src_mac, "big"),
        dst_mac=_FROM_BYTES(dst_mac, "big"),
    )
    if ethertype != ETHERTYPE_IPV4 or len(data) < 14 + IPV4_HEADER_LEN:
        return out
    (version_ihl, _tos, total, _ident, _ff, ttl, proto, _cksum, src, dst) = _IP_UNPACK(
        data, 14
    )
    if version_ihl >> 4 != 4:
        return out
    ihl = (version_ihl & 0xF) * 4
    out.src_ip = _FROM_BYTES(src, "big")
    out.dst_ip = _FROM_BYTES(dst, "big")
    out.proto = proto
    out.ttl = ttl
    l4_offset = 14 + ihl
    wire_l4_len = max(total - ihl, 0)
    if proto == PROTO_TCP:
        _decode_tcp(out, data, l4_offset, wire_l4_len)
    elif proto == PROTO_UDP:
        _decode_udp(out, data, l4_offset, wire_l4_len)
    elif proto == PROTO_ICMP:
        _decode_icmp(out, data, l4_offset)
    return out


def _decode_tcp(out: DecodedPacket, data: bytes, offset: int, wire_l4_len: int) -> None:
    if len(data) < offset + 20:
        return
    src_port, dst_port, seq, ack, offset_reserved, flags, _window = _TCP_UNPACK(
        data, offset
    )
    header_len = (offset_reserved >> 4) * 4
    if header_len < 20:
        return
    out.src_port = src_port
    out.dst_port = dst_port
    out.tcp_flags = flags
    out.seq = seq
    out.ack = ack
    out.payload = data[offset + header_len :]
    out.payload_len = max(wire_l4_len - header_len, 0)


def _decode_udp(out: DecodedPacket, data: bytes, offset: int, wire_l4_len: int) -> None:
    if len(data) < offset + 8:
        return
    src_port, dst_port, length, _checksum = _UDP_UNPACK(data, offset)
    out.src_port = src_port
    out.dst_port = dst_port
    out.payload = data[offset + 8 : offset + max(length, 8)]
    out.payload_len = max(min(length, wire_l4_len) - 8, 0)


def _decode_icmp(out: DecodedPacket, data: bytes, offset: int) -> None:
    if len(data) < offset + 8:
        return
    out.icmp_type = data[offset]
    out.icmp_code = data[offset + 1]
    out.payload = data[offset + 8 :]
    out.payload_len = len(out.payload)


def make_tcp_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
    mss: int | None = None,
    ttl: int = 64,
    ident: int = 0,
) -> CapturedPacket:
    """Craft a full Ethernet/IPv4/TCP packet."""
    seq &= 0xFFFFFFFF
    ack &= 0xFFFFFFFF
    ident &= 0xFFFF
    header_len = TCP_HEADER_LEN if mss is None else TCP_HEADER_LEN + 4
    tcp_len = header_len + len(payload)
    total = IPV4_HEADER_LEN + tcp_len
    tcp_sum = (
        src_ip + dst_ip + PROTO_TCP + tcp_len  # pseudo-header
        + src_port + dst_port + seq + ack + (header_len << 10 | flags) + TCP_DEFAULT_WINDOW
        + fold_words(payload)
    )
    if mss is not None:
        tcp_sum += _MSS_KIND_LEN + mss
    frame = _TCP_FRAME.pack(
        *_eth_ipv4(src_mac, dst_mac, src_ip, dst_ip, PROTO_TCP, total, ident, ttl),
        src_port, dst_port, seq, ack, header_len << 2, flags, TCP_DEFAULT_WINDOW,
        -tcp_sum % 0xFFFF, 0,
    )
    if mss is not None:
        frame += _MSS_OPTION.pack(_MSS_KIND_LEN, mss)
    data = frame + payload
    return CapturedPacket(ts, data, len(data))


def make_udp_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    ttl: int = 64,
    ident: int = 0,
) -> CapturedPacket:
    """Craft a full Ethernet/IPv4/UDP packet."""
    ident &= 0xFFFF
    udp_len = UDP_HEADER_LEN + len(payload)
    total = IPV4_HEADER_LEN + udp_len
    udp_sum = (
        src_ip + dst_ip + PROTO_UDP + udp_len  # pseudo-header
        + src_port + dst_port + udp_len + fold_words(payload)
    )
    data = _UDP_FRAME.pack(
        *_eth_ipv4(src_mac, dst_mac, src_ip, dst_ip, PROTO_UDP, total, ident, ttl),
        src_port, dst_port, udp_len,
        -udp_sum % 0xFFFF or 0xFFFF,  # RFC 768: a transmitted 0 means "no checksum"
    ) + payload
    return CapturedPacket(ts, data, len(data))


def make_icmp_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    src_ip: int,
    dst_ip: int,
    icmp_type: int,
    code: int = 0,
    ident: int = 0,
    sequence: int = 0,
    payload: bytes = b"",
    ttl: int = 64,
) -> CapturedPacket:
    """Craft a full Ethernet/IPv4/ICMP packet."""
    total = IPV4_HEADER_LEN + ICMP_HEADER_LEN + len(payload)
    fields = (icmp_type << 8 | code) + ident + sequence
    icmp_checksum = -(fields + fold_words(payload)) % 0xFFFF
    if not icmp_checksum and not fields and not any(payload):
        icmp_checksum = 0xFFFF  # all-zero message: the folded sum is 0, not 0xFFFF
    data = _ICMP_FRAME.pack(
        *_eth_ipv4(src_mac, dst_mac, src_ip, dst_ip, PROTO_ICMP, total, 0, ttl),
        icmp_type, code, icmp_checksum, ident, sequence,
    ) + payload
    return CapturedPacket(ts, data, len(data))


def make_arp_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    opcode: int,
    sender_mac: int,
    sender_ip: int,
    target_mac: int,
    target_ip: int,
) -> CapturedPacket:
    """Craft a full Ethernet/ARP packet."""
    arp = ArpPacket(
        opcode=opcode,
        sender_mac=sender_mac,
        sender_ip=sender_ip,
        target_mac=target_mac,
        target_ip=target_ip,
    )
    frame = EthernetFrame(
        dst_mac=dst_mac, src_mac=src_mac, ethertype=ETHERTYPE_ARP, payload=arp.encode()
    )
    data = frame.encode()
    # ARP frames are padded to the 60-byte Ethernet minimum on the wire.
    wire_len = max(len(data), 60)
    return CapturedPacket(ts=ts, data=data, wire_len=wire_len)


def make_ipx_packet(
    ts: float,
    src_mac: int,
    dst_mac: int,
    ipx: IpxPacket,
) -> CapturedPacket:
    """Craft a full Ethernet/IPX packet."""
    frame = EthernetFrame(
        dst_mac=dst_mac, src_mac=src_mac, ethertype=ETHERTYPE_IPX, payload=ipx.encode()
    )
    data = frame.encode()
    wire_len = max(len(data), 60)
    return CapturedPacket(ts=ts, data=data, wire_len=wire_len)
