"""The one-buffer packet builders against the layer-dataclass codec.

``make_tcp_packet``, ``make_udp_packet`` and ``make_icmp_packet`` pack a
whole frame at once and sum its checksums from header fields; the layer
dataclasses (``EthernetFrame``, ``Ipv4Packet``, ``TcpSegment``, ...) are
the general codec, and here they are the oracle the builders must match
byte for byte.  ``internet_checksum`` is checked against a plain RFC 1071
word loop.
"""

import struct

from hypothesis import example, given
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum, pseudo_header
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.icmp import ICMP_ECHO_REPLY, IcmpMessage
from repro.net.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Ipv4Packet
from repro.net.packet import make_icmp_packet, make_tcp_packet, make_udp_packet
from repro.net.tcp import TcpSegment
from repro.net.udp import UdpDatagram

macs = st.integers(min_value=0, max_value=2**48 - 1)
ips = st.integers(min_value=0, max_value=2**32 - 1)
ports = st.integers(min_value=0, max_value=65535)
bytes_ = st.integers(min_value=0, max_value=255)
words = st.integers(min_value=0, max_value=65535)
#: Sequence numbers and IP idents past their field widths are masked.
wide = st.integers(min_value=0, max_value=2**40)
payloads = st.binary(max_size=1500) | st.integers(0, 1500).map(bytes)


def rfc1071(data: bytes) -> int:
    """The Internet checksum as RFC 1071 writes it: a 16-bit word loop."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += data[i] << 8 | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def framed(src_mac, dst_mac, ip: Ipv4Packet) -> bytes:
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, ip.encode()).encode()


@given(
    ts=st.floats(0, 2e9), src_mac=macs, dst_mac=macs, src_ip=ips, dst_ip=ips,
    sport=ports, dport=ports, seq=wide, ack=wide, flags=bytes_, payload=payloads,
    mss=st.none() | words, ttl=bytes_, ident=wide,
)
@example(1.0, 1, 2, 3, 4, 5, 6, 2**32 + 7, 2**33, 0x12, b"", 1460, 64, 2**16 + 3)
@example(1.0, 1, 2, 3, 4, 5, 6, 0, 0, 0x10, b"\x01\x02\x03", None, 64, 0)
def test_tcp_builder_matches_layer_codec(
    ts, src_mac, dst_mac, src_ip, dst_ip, sport, dport, seq, ack, flags, payload, mss,
    ttl, ident,
):
    pkt = make_tcp_packet(
        ts, src_mac, dst_mac, src_ip, dst_ip, sport, dport, seq, ack, flags, payload,
        mss, ttl, ident,
    )
    segment = TcpSegment(sport, dport, seq, ack, flags, payload, mss=mss)
    expected = framed(src_mac, dst_mac, Ipv4Packet(
        src_ip, dst_ip, PROTO_TCP, segment.encode(src_ip, dst_ip), ttl=ttl, ident=ident
    ))
    assert pkt.data == expected
    assert (pkt.ts, pkt.wire_len) == (ts, len(expected))


@given(
    src_mac=macs, dst_mac=macs, src_ip=ips, dst_ip=ips, sport=ports, dport=ports,
    payload=payloads, ttl=bytes_, ident=wide,
)
@example(1, 2, 3, 4, 5, 6, b"\x00\x01\x02", 64, 2**16 + 1)
def test_udp_builder_matches_layer_codec(
    src_mac, dst_mac, src_ip, dst_ip, sport, dport, payload, ttl, ident
):
    pkt = make_udp_packet(1.0, src_mac, dst_mac, src_ip, dst_ip, sport, dport, payload,
                          ttl, ident)
    datagram = UdpDatagram(sport, dport, payload)
    assert pkt.data == framed(src_mac, dst_mac, Ipv4Packet(
        src_ip, dst_ip, PROTO_UDP, datagram.encode(src_ip, dst_ip), ttl=ttl, ident=ident
    ))


@given(
    src_mac=macs, dst_mac=macs, src_ip=ips, dst_ip=ips, icmp_type=bytes_, code=bytes_,
    ident=words, sequence=words, payload=payloads, ttl=bytes_,
)
@example(1, 2, 3, 4, ICMP_ECHO_REPLY, 0, 0, 0, bytes(48), 64)  # all zero: 0xFFFF
@example(1, 2, 3, 4, ICMP_ECHO_REPLY, 0, 0, 0, b"\xff\xff", 64)  # sums to 0xFFFF: 0
@example(1, 2, 3, 4, 0xFF, 0xFF, 0, 0, b"", 64)
def test_icmp_builder_matches_layer_codec(
    src_mac, dst_mac, src_ip, dst_ip, icmp_type, code, ident, sequence, payload, ttl
):
    pkt = make_icmp_packet(1.0, src_mac, dst_mac, src_ip, dst_ip, icmp_type, code, ident,
                           sequence, payload, ttl)
    message = IcmpMessage(icmp_type, code, ident, sequence, payload)
    assert pkt.data == framed(src_mac, dst_mac, Ipv4Packet(
        src_ip, dst_ip, PROTO_ICMP, message.encode(), ttl=ttl
    ))


def test_icmp_checksum_edge_cases():
    zero = make_icmp_packet(1.0, 1, 2, 3, 4, ICMP_ECHO_REPLY, payload=bytes(48))
    ones = make_icmp_packet(1.0, 1, 2, 3, 4, ICMP_ECHO_REPLY, payload=b"\xff\xff")
    assert zero.data[36:38] == b"\xff\xff"
    assert ones.data[36:38] == b"\x00\x00"


@given(src_ip=ips, dst_ip=ips, sport=ports, dport=ports)
def test_udp_sends_a_computed_zero_as_ffff(src_ip, dst_ip, sport, dport):
    """RFC 768: a transmitted 0 means "no checksum", so 0 goes out as 0xFFFF."""
    # A two-byte payload equal to the checksum without it brings the sum to 0xFFFF.
    pseudo = pseudo_header(src_ip, dst_ip, PROTO_UDP, 10)
    header = struct.pack("!HHHH", sport, dport, 10, 0)
    payload = rfc1071(pseudo + header + b"\x00\x00").to_bytes(2, "big")
    assert rfc1071(pseudo + header + payload) == 0
    pkt = make_udp_packet(1.0, 1, 2, src_ip, dst_ip, sport, dport, payload)
    assert pkt.data[40:42] == b"\xff\xff"


@given(st.binary(max_size=600) | st.integers(0, 600).map(bytes))
@example(b"\xff\xff")
@example(b"\xff\xff\xff\xff")
@example(b"\xff")
@example(b"")
def test_internet_checksum_matches_rfc1071_loop(data):
    assert internet_checksum(data) == rfc1071(data)


def test_internet_checksum_edge_cases():
    # A nonzero sum of 0xFFFF checksums to 0x0000; empty (all-zero) data to 0xFFFF.
    assert internet_checksum(b"\xff\xff") == 0x0000
    assert internet_checksum(b"\xff\xff\x00\x00") == 0x0000
    assert internet_checksum(b"") == 0xFFFF
