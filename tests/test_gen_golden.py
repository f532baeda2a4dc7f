"""Golden pcaps: generated traces are pinned byte for byte.

The study digests hash rendered tables, and the analyzers never verify
checksums, so a wrong checksum or header field in the generator's packet
builder would pass every other test.  These digests pin the exact bytes
of small seed-7 traces: D1 (68-byte snaplen, headers only) and D4 (full
payloads), two tap windows each.  Between them they carry TCP with and
without the MSS option, UDP, ICMP, ARP and IPX frames, and raw IP
protocols (GRE, PIM, IGMP, 224).
"""

import hashlib

import pytest

from repro.gen.capture import generate_dataset
from repro.gen.topology import Enterprise

GOLDEN = {
    "D1": {
        "D1-w000-subnet00.pcap": (
            1330, "39277d5a172154e864992176a1955da2badd2677ea1657d6cd72dc7291d4a3cc"
        ),
        "D1-w001-subnet01.pcap": (
            5442, "bbaac8d6d0dfa442e971823183f304dd76a13192ce8970da2e8b2e00eb3a813b"
        ),
    },
    "D4": {
        "D4-w000-subnet22.pcap": (
            712, "f598f0585491e1b091a75cb762ecec777a7fe160f48529cb893ab2a6951e18fd"
        ),
        "D4-w001-subnet23.pcap": (
            5852, "e02c8137cacc694f3611cc71a055319e28de8b93a0bb702e960c2869813f17f5"
        ),
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed7_pcaps_are_byte_identical(name, tmp_path):
    traces = generate_dataset(
        name, Enterprise(seed=7), tmp_path, seed=7, scale=0.002, max_windows=2
    )
    got = {
        trace.path.name: (trace.packet_count, hashlib.sha256(trace.path.read_bytes()).hexdigest())
        for trace in traces.traces
    }
    assert got == GOLDEN[name]
