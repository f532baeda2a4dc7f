"""TCP segment header (RFC 793) with flags, options, and checksum.

TCP carries 66-95% of the bytes in every dataset (Table 3); the analysis
engine's connection tracking, success-rate, and retransmission analyses
(Figure 10) all parse these headers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import internet_checksum, pseudo_header
from .ipv4 import PROTO_TCP

__all__ = [
    "TCP_HEADER_LEN",
    "TCP_DEFAULT_WINDOW",
    "FIN",
    "SYN",
    "RST",
    "PSH",
    "ACK",
    "URG",
    "TcpSegment",
    "flags_to_str",
]

TCP_HEADER_LEN = 20
TCP_DEFAULT_WINDOW = 65535

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

_FLAG_NAMES = [(FIN, "F"), (SYN, "S"), (RST, "R"), (PSH, "P"), (ACK, "A"), (URG, "U")]

_HEADER = struct.Struct("!HHIIBBHHH")


def flags_to_str(flags: int) -> str:
    """Render a flag byte as e.g. ``"SA"`` for SYN+ACK."""
    return "".join(name for bit, name in _FLAG_NAMES if flags & bit)


@dataclass(frozen=True)
class TcpSegment:
    """A TCP segment: header fields plus payload.

    The only option we emit is MSS on SYN segments, which is also the only
    option the decoder interprets; unknown options are skipped.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    payload: bytes = b""
    window: int = TCP_DEFAULT_WINDOW
    mss: int | None = None
    urgent: int = 0

    def _options(self) -> bytes:
        if self.mss is None:
            return b""
        return struct.pack("!BBH", 2, 4, self.mss)

    def encode(self, src_ip: int, dst_ip: int) -> bytes:
        """Serialize with a correct checksum over the pseudo-header."""
        options = self._options()
        data_offset = (TCP_HEADER_LEN + len(options)) // 4
        header = _HEADER.pack(
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            data_offset << 4,
            self.flags,
            self.window,
            0,  # checksum placeholder
            self.urgent,
        )
        segment = header + options + self.payload
        pseudo = pseudo_header(src_ip, dst_ip, PROTO_TCP, len(segment))
        checksum = internet_checksum(pseudo + segment)
        return segment[:16] + struct.pack("!H", checksum) + segment[18:]

    @classmethod
    def decode(cls, data: bytes) -> "TcpSegment":
        """Parse wire bytes; payload may be capture-truncated."""
        if len(data) < TCP_HEADER_LEN:
            raise ValueError(f"too short for TCP: {len(data)}")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_reserved,
            flags,
            window,
            _checksum,
            urgent,
        ) = _HEADER.unpack_from(data)
        header_len = (offset_reserved >> 4) * 4
        if header_len < TCP_HEADER_LEN:
            raise ValueError(f"bad data offset: {header_len}")
        mss = cls._parse_mss(data[TCP_HEADER_LEN:header_len])
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload=data[header_len:],
            window=window,
            mss=mss,
            urgent=urgent,
        )

    @staticmethod
    def _parse_mss(options: bytes) -> int | None:
        """Scan TCP options for an MSS value; ignore everything else."""
        i = 0
        while i < len(options):
            kind = options[i]
            if kind == 0:  # end of options
                break
            if kind == 1:  # NOP
                i += 1
                continue
            if i + 1 >= len(options):
                break
            length = options[i + 1]
            if length < 2:
                break
            if kind == 2 and length == 4 and i + 4 <= len(options):
                return struct.unpack_from("!H", options, i + 2)[0]
            i += length
        return None

    @property
    def flag_str(self) -> str:
        """The flags as a compact string, e.g. ``"SA"``."""
        return flags_to_str(self.flags)
