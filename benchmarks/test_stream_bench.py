"""Ingest engine: throughput and peak memory (``make stream-bench``).

Not a paper artifact — this measures the resource claim the ingest
engine makes (``docs/streaming.md``): peak memory bounded by the
live-flow population instead of the trace size.  Two synthetic traces
(4x apart in size, identical live-flow population) are pushed through
the engine; wall clock and ``tracemalloc`` peaks land in
``BENCH_stream.json``.  The sub-linearity bar: quadrupling the trace
must not double the engine's peak.
"""

from __future__ import annotations

import json
import time
import tracemalloc

from repro.analysis.engine import DatasetAnalyzer
from repro.net.packet import make_udp_packet
from repro.pcap.writer import PcapWriter

_PAYLOAD = b"b" * 400
_HOSTS = 100  # constant live-flow population in both traces


def _write_trace(path, packets):
    """Dense UDP traffic over a fixed pool of flows: the live-flow
    population is ``_HOSTS`` regardless of how long the trace runs."""
    with PcapWriter.open(path) as writer:
        for i in range(packets):
            src = 0x0A000001 + (i % _HOSTS)
            writer.write(
                make_udp_packet(
                    i * 0.01, 1, 2, src, 0x0A00FF01,
                    40000 + (i % _HOSTS), 9999, _PAYLOAD,
                )
            )
    return path.stat().st_size


def _measure(path):
    """(wall seconds, tracemalloc peak bytes, connection count)."""

    def run():
        analyzer = DatasetAnalyzer("BENCH", full_payload=False)
        analyzer.process_pcap(path)
        return len(analyzer.finish().conns)

    start = time.perf_counter()
    conns = run()
    wall_s = time.perf_counter() - start
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return wall_s, peak, conns


class TestStreamScaling:
    def test_stream_peak_sublinear_in_trace_size(self, output_dir, tmp_path):
        sizes = {"small": 6_000, "large": 24_000}
        report = {"hosts": _HOSTS, "traces": {}}
        peaks = {}
        for label, packets in sizes.items():
            path = tmp_path / f"{label}.pcap"
            file_bytes = _write_trace(path, packets)
            wall_s, peak, conns = _measure(path)
            assert conns == _HOSTS
            peaks[label] = peak
            report["traces"][label] = {
                "packets": packets,
                "file_bytes": file_bytes,
                "stream": {
                    "wall_s": round(wall_s, 4),
                    "pkts_per_s": round(packets / wall_s) if wall_s else None,
                    "peak_bytes": peak,
                },
            }
        (output_dir / "BENCH_stream.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nstream scaling: {json.dumps(report, indent=2, sort_keys=True)}")
        # Sub-linearity: 4x the packets, < 2x the peak.
        assert peaks["large"] < 2 * peaks["small"]
