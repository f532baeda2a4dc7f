"""Tiered store: hot-tier read speedup and compaction chain reduction.

Run via ``make tier-bench``.  Writes ``BENCH_tier.json`` with the two
numbers the tier exists for: how much faster a hot-tier read is than
the cold multi-root path (open + read + content re-verify at whichever
root placement routed the shard to), and how far compaction folds a
streaming checkpoint's batch chain.
"""

from __future__ import annotations

import json
import time

from repro.analysis.analyzers import DEFAULT_ANALYZERS
from repro.analysis.engine import DatasetAnalyzer
from repro.analysis.errors import ErrorPolicy
from repro.analysis.flow import FlowTable
from repro.gen.capture import generate_dataset
from repro.gen.topology import ENTERPRISE_NET, Enterprise
from repro.store import compact_checkpoints
from repro.store.tier import init_tier
from repro.stream.checkpoint import StreamCheckpointer

#: The acceptance floor: hot reads must beat cold reads by this factor.
_MIN_SPEEDUP = 3.0
_OBJECTS = 192
_ROUNDS = 5
_BATCHES = 16


def _seed_tiered(tmp_path):
    store = init_tier(
        tmp_path / "store",
        roots=(str(tmp_path / "root-b"), str(tmp_path / "root-c")),
    )
    digests = [
        store.put_object(f"shard-{index:05d}".encode() * 257)
        for index in range(_OBJECTS)
    ]
    store.rebalance()
    return store, digests


def _finished_results(tmp_path):
    """Real finished-flow results to fill checkpoint batch shards with."""
    dataset = generate_dataset(
        "D0", Enterprise(seed=7), tmp_path / "traces", seed=7,
        scale=0.004, max_windows=2,
    )
    captured: list = []
    real_finish = FlowTable.finish

    def spying(self):
        results = real_finish(self)
        captured.extend(results)
        return results

    FlowTable.finish = spying
    try:
        analyzer = DatasetAnalyzer(
            "D0",
            full_payload=dataset.config.full_payload,
            internal_net=ENTERPRISE_NET,
            analyzers=[c() for c in DEFAULT_ANALYZERS],
            error_policy=ErrorPolicy.STRICT,
        )
        analyzer.process_pcap(dataset.traces[0].path)
        analyzer.finish()
    finally:
        FlowTable.finish = real_finish
    return captured


def test_tier_bench(tmp_path, output_dir, emit):
    store, digests = _seed_tiered(tmp_path)
    status = store.tier_status()
    assert sum(root["objects"] for root in status["roots"]) == _OBJECTS
    assert all(root["objects"] > 0 for root in status["roots"])

    # Cold path: every read opens, reads, and re-verifies at its root.
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        store.hot.clear()
        for digest in digests:
            store.get_object(digest)
    cold_s = (time.perf_counter() - t0) / _ROUNDS

    # Hot path: same reads served from the verified byte cache.
    for digest in digests:
        store.get_object(digest)
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        for digest in digests:
            store.get_object(digest)
    hot_s = (time.perf_counter() - t0) / _ROUNDS
    speedup = cold_s / hot_s

    # Compaction: a 16-batch checkpoint chain folds to one super-shard.
    results = _finished_results(tmp_path)
    checkpointer = StreamCheckpointer(store, "bench-ck")
    chunk = max(1, -(-len(results) // _BATCHES))
    for start in range(0, len(results), chunk):
        checkpointer.flush_batch(results[start : start + chunk])
    checkpointer.save({"trace": {"packets": len(results)}})
    batches_before = len(checkpointer.batch_digests)

    def _chain_load_seconds() -> float:
        start = time.perf_counter()
        loaded, _ = StreamCheckpointer.load(store, "bench-ck")
        loaded.load_batches()
        return time.perf_counter() - start

    store.hot.clear()
    load_before_s = _chain_load_seconds()
    report = compact_checkpoints(store, grace_s=0)
    store.hot.clear()
    load_after_s = _chain_load_seconds()

    payload = {
        "objects": _OBJECTS,
        "roots": len(status["roots"]),
        "rounds": _ROUNDS,
        "cold_ms_per_round": round(cold_s * 1e3, 3),
        "hot_ms_per_round": round(hot_s * 1e3, 3),
        "hot_speedup": round(speedup, 2),
        "hot_speedup_floor": _MIN_SPEEDUP,
        "compaction": {
            "batches_before": batches_before,
            "batches_after": report.batches_after,
            "bytes_written": report.bytes_written,
            "chain_load_before_ms": round(load_before_s * 1e3, 3),
            "chain_load_after_ms": round(load_after_s * 1e3, 3),
        },
        "hot_tier": store.hot.stats(),
    }
    (output_dir / "BENCH_tier.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    emit(
        "tiered store (hot tier vs cold multi-root reads)\n"
        f"  objects           {_OBJECTS} across {len(status['roots'])} roots\n"
        f"  cold reads        {cold_s * 1e3:8.2f} ms/round\n"
        f"  hot reads         {hot_s * 1e3:8.2f} ms/round\n"
        f"  speedup           {speedup:8.1f} x  (floor {_MIN_SPEEDUP:.0f}x)\n"
        f"  compaction        {batches_before} batch shard(s) -> "
        f"{report.batches_after}\n"
        f"  chain load        {load_before_s * 1e3:.2f} ms -> "
        f"{load_after_s * 1e3:.2f} ms"
    )
    assert speedup >= _MIN_SPEEDUP, (
        f"hot tier only {speedup:.1f}x faster than the cold path"
    )
    assert report.batches_after == 1 < batches_before
