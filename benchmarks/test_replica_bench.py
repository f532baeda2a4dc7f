"""Replicated tiered store: read latency with a dead root, repair rate.

Run via ``make replica-bench``.  Writes ``BENCH_replica.json`` with the
numbers replication exists for: how much slower cold reads get when a
whole root vanishes mid-service (every read whose primary lived there
must fail over to its surviving replica), and how fast ``store repair
--replicas`` rebuilds the lost copies onto a replacement root.
"""

from __future__ import annotations

import json
import shutil
import time

from repro.store import ConnStore
from repro.store.scrub import StoreScrubber
from repro.store.shard import encode_shard
from repro.store.tier import init_tier

#: Degraded reads may cost more (breaker warm-up, fallback probes) but
#: not catastrophically more than healthy cold reads.
_MAX_DEGRADED_FACTOR = 5.0
_OBJECTS = 192
_ROUNDS = 5


def _seed_replicated(tmp_path):
    store = init_tier(
        tmp_path / "store",
        roots=(str(tmp_path / "root-b"), str(tmp_path / "root-c")),
        replicas=2,
    )
    digests = [
        store.put_object(
            encode_shard(1, {"body": f"shard-{index:05d}".encode() * 37})
        )
        for index in range(_OBJECTS)
    ]
    store.rebalance()
    return store, digests


def _cold_read_seconds(store, digests) -> float:
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        for digest in digests:
            store.get_object(digest)
    return (time.perf_counter() - t0) / _ROUNDS


def test_replica_bench(tmp_path, output_dir, emit):
    store, digests = _seed_replicated(tmp_path)
    status = store.tier_status()
    assert status["replicas"] == 2
    healthy_s = _cold_read_seconds(store, digests)

    # Kill a whole root out from under the store.  Reads whose primary
    # lived there fail over to the surviving replica — and read-repair
    # rewrites the lost copy on the way out, so this pass measures the
    # full self-healing failover cost, not just the extra probe.
    victim = store.roots()[1]
    victim_objects = status["roots"][1]["objects"]
    shutil.rmtree(victim)
    degraded_s = _cold_read_seconds(store, digests)
    assert all(store.get_object(d) is not None for d in digests)
    factor = degraded_s / healthy_s

    # Kill the same root again, and this time rebuild it with the bulk
    # path (``store repair --replicas``) instead of read-by-read.
    shutil.rmtree(victim)
    fresh = ConnStore(tmp_path / "store")  # fresh breakers: disk is back
    t0 = time.perf_counter()
    report = fresh.repair_replicas()
    repair_s = time.perf_counter() - t0
    assert report.ok and report.copies_written >= victim_objects
    repaired_per_s = report.copies_written / repair_s if repair_s else 0.0

    scrub = StoreScrubber(fresh).scrub()
    assert scrub.ok, scrub.render()
    repaired_s = _cold_read_seconds(fresh, digests)

    payload = {
        "objects": _OBJECTS,
        "roots": len(status["roots"]),
        "replicas": status["replicas"],
        "rounds": _ROUNDS,
        "healthy_ms_per_round": round(healthy_s * 1e3, 3),
        "degraded_ms_per_round": round(degraded_s * 1e3, 3),
        "repaired_ms_per_round": round(repaired_s * 1e3, 3),
        "degraded_factor": round(factor, 2),
        "degraded_factor_ceiling": _MAX_DEGRADED_FACTOR,
        "repair": {
            "objects_restored": report.objects_restored,
            "copies_written": report.copies_written,
            "manifests_mirrored": report.manifests_mirrored,
            "seconds": round(repair_s, 4),
            "copies_per_second": round(repaired_per_s, 1),
        },
    }
    (output_dir / "BENCH_replica.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    emit(
        "replicated store (reads across a dead root, repair rate)\n"
        f"  objects           {_OBJECTS} x{status['replicas']} across "
        f"{len(status['roots'])} roots\n"
        f"  healthy reads     {healthy_s * 1e3:8.2f} ms/round\n"
        f"  one root dead     {degraded_s * 1e3:8.2f} ms/round "
        f"({factor:.2f}x, ceiling {_MAX_DEGRADED_FACTOR:.0f}x)\n"
        f"  after repair      {repaired_s * 1e3:8.2f} ms/round\n"
        f"  repair            {report.copies_written} cop(ies) in "
        f"{repair_s * 1e3:.1f} ms ({repaired_per_s:,.0f}/s)"
    )
    assert factor <= _MAX_DEGRADED_FACTOR, (
        f"losing one root made cold reads {factor:.1f}x slower"
    )
