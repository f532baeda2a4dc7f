"""Core-path throughput benchmarks.

Not paper artifacts — these time the hot paths a downstream user cares
about when running larger-scale studies: packet crafting, flat decoding,
flow-table ingestion, and pcap I/O — plus the runtime scaling run
(sequential vs ``--jobs N``) that writes ``BENCH_runtime.json``
(``make runtime-bench``).
"""

import io
import json
import os
import random
import statistics
import time

from repro.analysis.flow import FlowTable
from repro.gen.packetize import realize_session
from repro.gen.session import AppEvent, Dir, TcpSession
from repro.net.packet import decode_packet, make_tcp_packet
from repro.net.tcp import ACK, PSH
from repro.pcap.reader import PcapReader
from repro.pcap.writer import PcapWriter


def _bulk_packets(n_bytes=2_000_000):
    session = TcpSession(
        client_ip=0x83F30101, server_ip=0x83F30201, client_mac=1, server_mac=2,
        sport=40000, dport=13724, start=0.0, rtt=0.0005, loss_rate=0.0,
        events=[AppEvent(0.0, Dir.C2S, b"\x00" * n_bytes)],
    )
    return realize_session(session, random.Random(1))


class TestCraftAndDecode:
    def test_craft_full_mss_packet(self, benchmark):
        payload = b"x" * 1460
        pkt = benchmark(
            lambda: make_tcp_packet(
                1.0, 1, 2, 3, 4, 40000, 80, 100, 0, ACK | PSH, payload=payload
            )
        )
        assert pkt.wire_len == 1514

    def test_decode_full_mss_packet(self, benchmark):
        pkt = make_tcp_packet(1.0, 1, 2, 3, 4, 40000, 80, 100, 0, ACK | PSH,
                              payload=b"x" * 1460)
        decoded = benchmark(lambda: decode_packet(pkt))
        assert decoded.payload_len == 1460


class TestFlowIngest:
    def test_flow_table_throughput(self, benchmark):
        decoded = [decode_packet(p) for p in _bulk_packets()]

        def ingest():
            table = FlowTable(collect_payload=False)
            for pkt in decoded:
                table.process(pkt)
            return table.flush()

        results = benchmark(ingest)
        assert len(results) == 1


class TestPcapIo:
    def test_write_throughput(self, benchmark):
        packets = _bulk_packets()

        def write():
            buffer = io.BytesIO()
            PcapWriter(buffer).write_all(packets)
            return buffer

        buffer = benchmark(write)
        assert buffer.tell() > 1_000_000

    def test_read_throughput(self, benchmark):
        buffer = io.BytesIO()
        PcapWriter(buffer).write_all(_bulk_packets())
        data = buffer.getvalue()

        def read():
            return sum(1 for _ in PcapReader(io.BytesIO(data)))

        count = benchmark(read)
        assert count > 1000


#: Alternating sequential/parallel study pairs the runtime gate times.
_RUNTIME_PAIRS = 5


class TestRuntimeScaling:
    """Sequential vs parallel study wall clock (``make runtime-bench``).

    Cold-runs the five-dataset study at ``jobs=1`` and at
    ``jobs=min(4, cores)``, alternating, for :data:`_RUNTIME_PAIRS`
    pairs, and gates on the median of the per-pair speedups, so one
    slow study on a shared host cannot decide the verdict.  Writes
    ``BENCH_runtime.json`` plus the parallel runs' JSONL telemetry
    under ``benchmarks/output/``.  The ≥2x speedup bar only applies
    where the hardware can deliver it (4+ cores), ≥1.2x on 2–3 cores;
    a single core still produces the artifact, with the observed ratio
    recorded.
    """

    def test_parallel_speedup(self, output_dir):
        from repro.core.study import run_study

        params = dict(
            seed=int(os.environ.get("REPRO_BENCH_SEED", "7")),
            scale=float(os.environ.get("REPRO_RUNTIME_BENCH_SCALE", "0.004")),
            max_windows=4,
        )
        cores = os.cpu_count() or 1
        # Always at least two workers so the pool path itself is what
        # gets measured, even on single-core hardware.
        jobs = max(2, min(4, cores))
        telemetry_path = output_dir / "BENCH_runtime_telemetry.jsonl"
        telemetry_path.unlink(missing_ok=True)

        sequential_s, parallel_s = [], []
        for _ in range(_RUNTIME_PAIRS):
            start = time.perf_counter()
            sequential = run_study(jobs=1, **params)
            sequential_s.append(time.perf_counter() - start)

            start = time.perf_counter()
            parallel = run_study(
                jobs=jobs, telemetry_path=str(telemetry_path), **params
            )
            parallel_s.append(time.perf_counter() - start)

            # Same bytes regardless of worker count (spot-check two tables).
            assert parallel.render_table(2) == sequential.render_table(2)
            assert parallel.render_table(10) == sequential.render_table(10)
        ratios = [seq / par for seq, par in zip(sequential_s, parallel_s)]
        speedup = statistics.median(ratios)
        report = {
            "workload": params,
            "cpu_count": cores,
            "jobs": jobs,
            "pairs": _RUNTIME_PAIRS,
            "sequential_s": round(statistics.median(sequential_s), 3),
            "parallel_s": round(statistics.median(parallel_s), 3),
            "speedup": round(speedup, 3),
            "pair_speedups": [round(ratio, 3) for ratio in ratios],
            "unit_walls_s": {
                event["unit"]: event["wall_s"]
                for event in parallel.telemetry.unit_events("unit_finish")
            },
        }
        (output_dir / "BENCH_runtime.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nruntime scaling: {json.dumps(report, indent=2, sort_keys=True)}")
        assert telemetry_path.stat().st_size > 0
        if cores >= 4:
            assert speedup >= 2.0, report
        elif cores >= 2:
            assert speedup >= 1.2, report
