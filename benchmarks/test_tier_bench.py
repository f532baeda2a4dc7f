"""Tiered store: compaction chain reduction on a multi-root store.

Run via ``make tier-bench``.  Writes ``BENCH_tier.json`` with how far
compaction folds a streaming checkpoint's batch chain, and how long the
chain takes to load before and after, on a store whose objects placement
spread over three roots.
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

_OBJECTS = 192
_BATCHES = 16


def _seed_tiered(tmp_path):
    store = init_tier(
        tmp_path / "store",
        roots=(str(tmp_path / "root-b"), str(tmp_path / "root-c")),
    )
    for index in range(_OBJECTS):
        store.put_object(f"shard-{index:05d}".encode() * 257)
    store.rebalance()
    return store


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
    store = _seed_tiered(tmp_path)
    status = store.tier_status()
    assert sum(root["objects"] for root in status["roots"]) == _OBJECTS
    assert all(root["objects"] > 0 for root in status["roots"])

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

    load_before_s = _chain_load_seconds()
    report = compact_checkpoints(store, grace_s=0)
    load_after_s = _chain_load_seconds()

    payload = {
        "objects": _OBJECTS,
        "roots": len(status["roots"]),
        "compaction": {
            "batches_before": batches_before,
            "batches_after": report.batches_after,
            "bytes_written": report.bytes_written,
            "chain_load_before_ms": round(load_before_s * 1e3, 3),
            "chain_load_after_ms": round(load_after_s * 1e3, 3),
        },
    }
    (output_dir / "BENCH_tier.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    emit(
        "tiered store (checkpoint compaction)\n"
        f"  objects           {_OBJECTS} across {len(status['roots'])} roots\n"
        f"  compaction        {batches_before} batch shard(s) -> "
        f"{report.batches_after}\n"
        f"  chain load        {load_before_s * 1e3:.2f} ms -> "
        f"{load_after_s * 1e3:.2f} ms"
    )
    assert report.batches_after == 1 < batches_before
