"""Bounded-memory guarantees of the single-pass ingest (tracemalloc).

The ingest engine's peak memory follows the live-flow population, not
the trace size.  These tests pin that down with ``tracemalloc``: the
iterator form of :func:`read_pcap` and the engine must both peak far
below the materialized trace, on a trace big enough that the gap cannot
be noise.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest

from repro.analysis.engine import DatasetAnalyzer
from repro.net.packet import make_udp_packet
from repro.pcap.reader import read_pcap
from repro.pcap.writer import PcapWriter
from repro.stream.source import PacketSource

_PAYLOAD = b"m" * 400


def _write_trace(path: Path, packets: int = 8000, hosts: int = 50) -> int:
    """A trace of short UDP exchanges across a rotating host pool, so
    the live-flow population stays tiny while the file grows."""
    with PcapWriter.open(path) as writer:
        for i in range(packets):
            src = 0x0A000001 + (i % hosts)
            writer.write(
                make_udp_packet(
                    float(i) * 0.01, 1, 2, src, 0x0A00FF01,
                    40000 + (i % hosts), 9999, _PAYLOAD,
                )
            )
    return path.stat().st_size


def _peak_of(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def big_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("mem") / "big.pcap"
    size = _write_trace(path)
    return path, size


class TestReadPcapMaterialize:
    def test_iterator_yields_same_packets(self, big_trace):
        path, _ = big_trace
        materialized = read_pcap(path)
        streamed = list(read_pcap(path, materialize=False))
        assert streamed == materialized

    def test_materialized_form_is_a_list(self, big_trace):
        path, _ = big_trace
        packets = read_pcap(path)
        assert isinstance(packets, list)
        assert len(packets) == 8000

    def test_iterator_peak_memory_stays_sublinear(self, big_trace):
        path, size = big_trace
        assert size > 3_000_000  # the gap below must not be noise

        materialized_peak = _peak_of(lambda: read_pcap(path))

        def drain():
            for _ in read_pcap(path, materialize=False):
                pass

        streamed_peak = _peak_of(drain)
        # Materializing holds every record at once; the iterator holds
        # one.  A 10x margin keeps the assertion robust to interpreter
        # bookkeeping noise while still proving the asymptotic claim.
        assert materialized_peak > size
        assert streamed_peak < size / 10
        assert streamed_peak < materialized_peak / 10


class TestStreamEngineMemory:
    def test_engine_peak_is_bounded_by_flows_not_trace(self, big_trace):
        path, size = big_trace

        def analyze():
            analyzer = DatasetAnalyzer("MEM", full_payload=True)
            analyzer.process_pcap(path)
            analyzer.finish()

        peak = _peak_of(analyze)
        # 8000 packets collapse into ~100 flow records plus the window
        # aggregates: nowhere near the 3.7 MB trace.
        assert peak < size / 3

    def test_packet_source_tracks_offsets(self, big_trace):
        path, _ = big_trace
        with PacketSource.open(path) as source:
            first_offset = source.offset
            for index, _ in enumerate(source):
                if index >= 9:
                    break
            assert source.packets_read == 10
            assert source.offset > first_offset

    def test_in_memory_source_has_no_offset(self):
        source = PacketSource([], path="<memory>")
        assert source.offset is None
        with pytest.raises(ValueError):
            source.resume_at(0, 0)
