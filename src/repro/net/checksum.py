"""The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header.

Every IPv4/TCP/UDP/ICMP header the generator emits carries a correct
checksum, and the analysis engine can verify them; this keeps the pcap
files honest enough to be inspected with standard tools.

The one's-complement sum of 16-bit words is congruent, modulo 0xFFFF, to
the data read as one big-endian integer (because 2**16 = 1 mod 0xFFFF),
so the word sum is a single ``int.from_bytes`` and one modulo.  The only
subtlety is the two zeros of one's-complement arithmetic: a residue of 0
means the folded sum was 0xFFFF (checksum 0x0000) unless the data is all
zero bits (folded sum 0, checksum 0xFFFF).  The packet builders in
:mod:`repro.net.packet` add header fields as integers to the payload's
:func:`fold_words` and never build the bytes they checksum.
"""

from __future__ import annotations

import struct

from ..util.addr import ip_to_bytes

__all__ = ["fold_words", "internet_checksum", "pseudo_header"]


def fold_words(data: bytes) -> int:
    """A small integer congruent, modulo 0xFFFF, to the sum of ``data``'s
    16-bit big-endian words.

    Odd-length data is padded with one zero byte.
    """
    residue = int.from_bytes(data, "big") % 0xFFFF
    return residue << 8 if len(data) % 2 else residue


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``."""
    residue = fold_words(data) % 0xFFFF
    if residue:
        return 0xFFFF - residue
    return 0 if any(data) else 0xFFFF


def pseudo_header(src_ip: int, dst_ip: int, proto: int, length: int) -> bytes:
    """Build the IPv4 pseudo-header used in TCP/UDP checksums."""
    return ip_to_bytes(src_ip) + ip_to_bytes(dst_ip) + struct.pack("!BBH", 0, proto, length)
