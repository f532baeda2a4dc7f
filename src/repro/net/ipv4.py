"""IPv4 header (RFC 791) with checksum support.

More than 95% of packets in every dataset are IPv4 (Table 2); everything
in the transport- and application-layer analyses sits on top of this.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .checksum import internet_checksum

__all__ = [
    "IPV4_HEADER_LEN",
    "IPV4_FLAG_DF",
    "PROTO_ICMP",
    "PROTO_IGMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_GRE",
    "PROTO_ESP",
    "PROTO_PIM",
    "PROTO_UNIDENTIFIED_224",
    "Ipv4Packet",
]

IPV4_HEADER_LEN = 20
#: The don't-fragment bit of the flags/fragment-offset word.
IPV4_FLAG_DF = 0x4000

PROTO_ICMP = 1
PROTO_IGMP = 2
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_GRE = 47
PROTO_ESP = 50
PROTO_PIM = 103
PROTO_UNIDENTIFIED_224 = 224  # the paper's "IP protocol 224 (unidentified)"

_HEADER = struct.Struct("!BBHHHBBH4s4s")


@dataclass(frozen=True)
class Ipv4Packet:
    """An IPv4 datagram with a 20-byte header (no options).

    ``encode`` fills in total length and header checksum; ``decode``
    verifies the checksum unless the capture truncated the packet.
    """

    src_ip: int
    dst_ip: int
    proto: int
    payload: bytes = b""
    ttl: int = 64
    ident: int = 0
    dscp: int = 0
    flags_df: bool = True
    total_length: int = field(default=-1, compare=False)

    def encode(self) -> bytes:
        """Serialize header + payload with a correct header checksum."""
        total = IPV4_HEADER_LEN + len(self.payload)
        flags_fragment = IPV4_FLAG_DF if self.flags_df else 0
        header = _HEADER.pack(
            (4 << 4) | 5,  # version 4, IHL 5
            self.dscp << 2,
            total,
            self.ident & 0xFFFF,
            flags_fragment,
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            self.src_ip.to_bytes(4, "big"),
            self.dst_ip.to_bytes(4, "big"),
        )
        checksum = internet_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:] + self.payload

    @classmethod
    def decode(cls, data: bytes, verify_checksum: bool = False) -> "Ipv4Packet":
        """Parse wire bytes.

        ``data`` may be truncated by the capture snaplen; the payload then
        holds whatever bytes survived, and ``total_length`` carries the
        original datagram length from the header.
        """
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError(f"too short for IPv4: {len(data)}")
        (
            version_ihl,
            tos,
            total,
            ident,
            flags_fragment,
            ttl,
            proto,
            checksum,
            src,
            dst,
        ) = _HEADER.unpack_from(data)
        version = version_ihl >> 4
        if version != 4:
            raise ValueError(f"not IPv4 (version {version})")
        ihl = (version_ihl & 0xF) * 4
        if ihl < IPV4_HEADER_LEN:
            raise ValueError(f"bad IHL: {ihl}")
        if verify_checksum and len(data) >= ihl:
            if internet_checksum(data[:ihl]) != 0:
                raise ValueError("IPv4 header checksum mismatch")
        payload = data[ihl : max(total, ihl)]
        return cls(
            src_ip=int.from_bytes(src, "big"),
            dst_ip=int.from_bytes(dst, "big"),
            proto=proto,
            payload=payload,
            ttl=ttl,
            ident=ident,
            dscp=tos >> 2,
            flags_df=bool(flags_fragment & IPV4_FLAG_DF),
            total_length=total,
        )
