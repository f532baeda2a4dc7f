"""Replicated tiered store: survive the loss of a whole root.

The acceptance gates from the replication work live here: with
``replicas=2`` on three roots, hard-killing any single root mid-load
leaves every query answer — and the service's store-state token — byte
identical; ``repair --replicas`` restores full redundancy on the same
content addresses; and the per-root circuit breakers keep a dead root
from slowing every read.  The 8-thread test kills and repairs a root
*while* readers are running, which is the whole point of the feature.
"""

from __future__ import annotations

import shutil
import threading

import pytest

from repro.chaos import FaultKind, FaultPlane, FaultRule, active
from repro.service.app import store_state_token
from repro.store import ConnFilter, ConnStore, StoreQuery, StoreScrubber
from repro.store.query import GROUP_DIMENSIONS
from repro.store.shard import ShardError, encode_shard
from repro.store.tier import BUCKETS, PlacementManifest, init_tier
from repro.store.tier.health import HealthTracker

_THREADS = 8


def _snapshot(query: StoreQuery) -> dict:
    result: dict = {"datasets": query.datasets()}
    for by in GROUP_DIMENSIONS:
        result[f"agg-{by}"] = [
            (row.group, row.conns, row.bytes, row.pkts)
            for row in query.aggregate(ConnFilter(), by=by)
        ]
    result["count"] = query.count(ConnFilter(proto="tcp", min_bytes=100))
    result["table"] = query.table(ConnFilter(), by="category").render()
    return result


def _shard(text: str) -> bytes:
    """Valid RCS1 bytes (scrub decodes frames, not just hashes)."""
    return encode_shard(1, {"body": text.encode() * 7})


def replica_store(tmp_path, count=32):
    """A fresh 3-root R=2 store with ``count`` objects written through
    the replicated write path."""
    store = init_tier(
        tmp_path / "store",
        roots=(str(tmp_path / "root-b"), str(tmp_path / "root-c")),
        replicas=2,
    )
    bodies = {}
    for index in range(count):
        data = _shard(f"replica-body-{index:04d}")
        bodies[store.put_object(data)] = data
    return store, bodies


@pytest.fixture()
def replicated_study(store_study, tmp_path):
    """The shared study store as a 3-root R=2 tier at full redundancy."""
    _, root = store_study
    shutil.copytree(root, tmp_path / "store")
    store = init_tier(
        tmp_path / "store",
        roots=(str(tmp_path / "root-b"), str(tmp_path / "root-c")),
        replicas=2,
    )
    store.rebalance()
    report = store.repair_replicas()  # pre-existing objects start at 1 copy
    assert report.ok
    assert StoreScrubber(store).scrub(quarantine=False).ok
    return store


# -- placement ----------------------------------------------------------------


def test_replica_order_is_deterministic_and_distinct():
    placement = PlacementManifest(roots=[".", "b", "c", "d"], replicas=3)
    for bucket in BUCKETS:
        order = placement.replica_order(bucket)
        assert sorted(order) == [0, 1, 2, 3]  # a permutation of every root
        assert order[0] == placement.active_index(bucket)
        indices = placement.replica_indices(bucket)
        assert indices == order[:3]
        assert placement.replica_indices(bucket) == indices  # stable


def test_effective_replicas_is_capped_by_root_count():
    placement = PlacementManifest(roots=[".", "b"], replicas=5)
    assert placement.effective_replicas() == 2
    assert PlacementManifest(roots=["."]).effective_replicas() == 1


def test_replicas_round_trips_through_tier_json(tmp_path):
    store, _ = replica_store(tmp_path, count=1)
    loaded = PlacementManifest.load(store.root)
    assert loaded.replicas == 2
    # Pre-replication manifests load as R=1.
    assert PlacementManifest.from_payload(
        {"schema": 1, "roots": ["."], "assign": loaded.assign}
    ).replicas == 1


def test_init_tier_rejects_zero_replicas(tmp_path):
    with pytest.raises(ValueError):
        init_tier(tmp_path / "store", replicas=0)


# -- replicated writes and reads ----------------------------------------------


def test_put_object_writes_full_replica_set(tmp_path):
    store, bodies = replica_store(tmp_path)
    for digest in bodies:
        paths = store.replica_paths(digest)
        assert len(paths) == 2
        roots = {index for index, _ in paths}
        assert len(roots) == 2  # two *distinct* roots
        for _, path in paths:
            assert path.exists()
    assert len(store.repair_queue) == 0


def test_read_survives_loss_of_any_single_root(tmp_path):
    store, bodies = replica_store(tmp_path)
    for victim in range(1, 3):
        shutil.rmtree(store.roots()[victim])
        fresh = ConnStore(store.root)  # new process: breakers closed
        for digest, data in bodies.items():
            assert fresh.get_object(digest) == data
        fresh.repair_replicas()  # restore before killing the next root


def test_read_repair_restores_missing_copy_on_same_address(tmp_path):
    store, bodies = replica_store(tmp_path, count=8)
    digest = next(iter(bodies))
    index, path = store.replica_paths(digest)[0]
    path.unlink()
    before = {p.stem for p in store._object_files()}
    assert store.get_object(digest) == bodies[digest]  # the repairing read
    assert path.exists()  # copy is back
    assert {p.stem for p in store._object_files()} == before  # same addresses


def test_repair_replicas_sweep_finds_unqueued_deficits(tmp_path):
    store, bodies = replica_store(tmp_path, count=12)
    # Delete one copy of every object behind the store's back — no
    # queue entries exist, only the sweep can see the damage.
    for digest in bodies:
        store.replica_paths(digest)[1][1].unlink()
    report = store.repair_replicas()
    assert report.ok
    assert report.objects_restored == len(bodies)
    assert report.copies_written == len(bodies)
    for digest in bodies:
        assert all(path.exists() for _, path in store.replica_paths(digest))


# -- circuit breaker ----------------------------------------------------------


def test_breaker_opens_after_threshold_and_probes_after_cooldown():
    clock = [0.0]
    tracker = HealthTracker(
        2, failure_threshold=3, cooldown_s=10.0, clock=lambda: clock[0]
    )
    for _ in range(2):
        tracker.record_failure(1)
    assert tracker.available(1)  # two failures: still closed
    tracker.record_failure(1)
    assert tracker.is_open(1)
    assert not tracker.available(1)  # open: reads skip it
    clock[0] = 10.0
    assert tracker.available(1)  # the half-open probe
    assert not tracker.available(1)  # only ONE probe gets through
    tracker.record_failure(1)  # probe failed: open again
    assert tracker.is_open(1)
    clock[0] = 20.0
    assert tracker.available(1)
    tracker.record_ok(1)  # probe succeeded: closed
    assert tracker.available(1) and tracker.available(1)


def test_chaos_root_down_trips_breaker_and_reads_keep_serving(tmp_path):
    # Every bucket's primary is root 0 here (no rebalance has run), so
    # injecting root_down on root 0 guarantees reads actually meet it.
    store, bodies = replica_store(tmp_path)
    victim = str(store.roots()[0])
    plane = FaultPlane(
        rules=[
            FaultRule(
                kind=FaultKind.ROOT_DOWN, path=f"{victim}*", limit=None
            )
        ]
    )
    with active(plane):
        for digest, data in bodies.items():
            assert store.get_object(digest) == data  # secondary serves
    assert store.health.is_open(0)  # the dead root was learned
    assert not store.health.is_open(1)
    assert not store.health.is_open(2)


def test_chaos_flaky_root_reads_survive_eio(tmp_path):
    store, bodies = replica_store(tmp_path)
    victim = str(store.roots()[0])  # the root every read tries first
    plane = FaultPlane(
        seed=11,
        rules=[
            FaultRule(
                kind=FaultKind.FLAKY_ROOT, op="read",
                path=f"{victim}*", rate=1.0, limit=None,
            )
        ],
    )
    with active(plane):
        for digest, data in bodies.items():
            assert store.get_object(digest) == data
    assert store.health.is_open(0)


def test_writes_reroute_around_a_down_root_and_enqueue_repair(tmp_path):
    store, _ = replica_store(tmp_path, count=4)
    victim = str(store.roots()[1])
    plane = FaultPlane(
        rules=[
            FaultRule(
                kind=FaultKind.ROOT_DOWN, path=f"{victim}*", limit=None
            )
        ]
    )
    new = {}
    with active(plane):
        for index in range(16):
            data = _shard(f"reroute-body-{index:04d}")
            new[store.put_object(data)] = data
    routed_to_1 = [
        digest
        for digest in new
        if any(i == 1 for i, _ in store.replica_paths(digest))
    ]
    assert routed_to_1, "some bucket must map a replica onto the dead root"
    for digest, data in new.items():
        # Two live copies exist even though one replica root was down.
        copies = [
            path
            for path in store._candidate_paths(digest)
            if path.exists()
        ]
        assert len(copies) >= 2
        assert store.get_object(digest) == data
    queued_objects, _ = store.repair_queue.snapshot()
    assert set(routed_to_1) <= set(queued_objects)
    # Chaos lifted: repair drains the queue back to the strict set.
    report = store.repair_replicas()
    assert report.ok
    assert len(store.repair_queue) == 0
    for digest in routed_to_1:
        assert all(path.exists() for _, path in store.replica_paths(digest))


# -- tier status --------------------------------------------------------------


def test_tier_status_reports_a_missing_root_as_down(tmp_path):
    store, _ = replica_store(tmp_path)
    shutil.rmtree(store.roots()[1])
    status = store.tier_status()  # must not raise
    assert status["roots"][1]["status"] == "down"
    assert status["roots"][1]["objects"] == 0
    assert status["roots"][0]["status"] == "ok"
    assert status["replicas"] == 2
    assert status["effective_replicas"] == 2
    assert "under_replicated" in status
    for entry in status["roots"]:
        assert entry["health"]["state"] in ("closed", "open", "half_open")


# -- scrub / repair integration -----------------------------------------------


def test_scrub_reports_replica_deficit_and_repair_clears_it(tmp_path):
    _, root = tmp_path, tmp_path / "flat"
    flat = ConnStore(root)
    bodies = {}
    for index in range(10):
        data = _shard(f"late-replica-{index:04d}")
        bodies[flat.put_object(data)] = data
    # Raise an existing R=1 store to R=2: everything starts at 1 copy.
    store = init_tier(root, roots=(str(tmp_path / "root-b"),), replicas=2)
    report = StoreScrubber(store).scrub(quarantine=False)
    assert not report.ok
    assert report.replica_target == 2
    assert set(report.under_replicated) == set(bodies)
    assert all(count == 1 for count in report.under_replicated.values())
    assert store.repair_replicas().ok
    healed = StoreScrubber(store).scrub(quarantine=False)
    assert healed.ok
    assert healed.under_replicated == {}


def test_incremental_scrub_counts_replicas_across_step_boundaries(tmp_path):
    store, bodies = replica_store(tmp_path, count=12)
    victim = next(iter(bodies))
    store.replica_paths(victim)[1][1].unlink()
    scrubber = StoreScrubber(store)
    # budget=1 forces the streaming counter to straddle every boundary.
    cursor = scrubber.run(budget=1, quarantine=False)
    report = scrubber.report(cursor)
    assert report.replica_target == 2
    assert report.under_replicated == {victim: 1}
    assert not report.ok


def test_quarantined_object_is_not_served(tmp_path):
    store, bodies = replica_store(tmp_path, count=4)
    digest = next(iter(bodies))
    assert store.get_object(digest) == bodies[digest]
    for _, path in store.replica_paths(digest):
        path.write_bytes(b"rotten bytes that hash elsewhere")
    report = StoreScrubber(store).scrub()
    assert report.quarantined >= 2
    # An earlier read must not keep serving bytes the store disowned.
    with pytest.raises(ShardError):
        store.get_object(digest)


# -- manifest mirroring -------------------------------------------------------


def test_manifest_mirrors_exist_and_never_perturb_the_state_token(
    replicated_study,
):
    store = replicated_study
    token = store_state_token(store.root)
    keys = [path.stem for path in store.manifests_dir.glob("*.json")]
    assert keys
    mirrored = 0
    for key in keys:
        for _, mirror in store.mirror_paths(key):
            assert mirror.exists()
            mirrored += 1
    assert mirrored  # R=2 means every manifest has one mirror
    # Mirrors live outside the primary manifest listing: same token.
    assert store_state_token(store.root) == token


def test_lookup_falls_back_to_a_mirror_when_primary_is_lost(
    replicated_study,
):
    store = replicated_study
    manifest = next(iter(store.manifests()))
    key = manifest["key"]
    (store.manifests_dir / f"{key}.json").unlink()
    found = store.lookup(key)
    assert found is not None
    assert found["key"] == key
    # Repair restores the primary from the mirror, byte-identically.
    assert store.repair_replicas().ok
    assert (store.manifests_dir / f"{key}.json").exists()
    assert store.lookup(key) == found


def test_gc_keeps_disaster_mirrors_but_sweeps_retired_checkpoints(
    replicated_study,
):
    store = replicated_study
    manifest = next(iter(store.manifests()))
    key = manifest["key"]
    primary = store.manifests_dir / f"{key}.json"
    primary.unlink()  # simulated primary-root damage
    report = store.gc()
    for _, mirror in store.mirror_paths(key):
        assert mirror.exists(), "gc must not eat a disaster copy"
    # And the mirror still pins the objects repair needs.
    assert manifest["dataset_shard"] in store.referenced_objects()
    assert store.repair_replicas().ok
    assert primary.exists()
    assert report.orphan_mirrors == 0


# -- the headline: kill a root mid-load ---------------------------------------


def test_killing_one_root_changes_no_answer_and_repair_restores(
    replicated_study,
):
    store = replicated_study
    healthy = _snapshot(StoreQuery(store))
    token = store_state_token(store.root)
    shutil.rmtree(store.roots()[1])
    fresh = ConnStore(store.root)
    assert _snapshot(StoreQuery(fresh)) == healthy
    assert store_state_token(fresh.root) == token
    report = fresh.repair_replicas()
    assert report.ok
    assert StoreScrubber(fresh).scrub(quarantine=False).ok
    assert _snapshot(StoreQuery(fresh)) == healthy
    assert store_state_token(fresh.root) == token


def test_eight_threads_read_identically_while_root_dies_and_heals(
    replicated_study,
):
    store = replicated_study
    healthy = _snapshot(StoreQuery(store))
    results: list[list[dict]] = [[] for _ in range(_THREADS)]
    errors: list[BaseException] = []
    start = threading.Barrier(_THREADS + 1)
    stop = threading.Event()

    def reader(slot: int) -> None:
        try:
            start.wait(timeout=30)
            query = StoreQuery(store)
            while not stop.is_set():
                results[slot].append(_snapshot(query))
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(_THREADS)
    ]
    for thread in threads:
        thread.start()
    start.wait(timeout=30)
    try:
        # Hard-kill mid-load.  The root vanishes in one rename: every
        # read goes to disk, so read-repair would refill a tree that
        # ``rmtree`` is still walking.
        victim = store.roots()[1]
        dead = victim.with_name(victim.name + ".dead")
        victim.rename(dead)
        shutil.rmtree(dead)
        assert store.repair_replicas().ok  # and repair mid-flight
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    assert not errors, errors
    for slot in range(_THREADS):
        assert results[slot], "every reader must complete at least one pass"
        for snapshot in results[slot]:
            assert snapshot == healthy
    assert StoreScrubber(store).scrub(quarantine=False).ok


# -- unreplicated stores are untouched ----------------------------------------


def test_r1_tier_writes_no_mirrors_and_no_queue(tmp_path):
    store = init_tier(
        tmp_path / "store", roots=(str(tmp_path / "root-b"),), replicas=1
    )
    digest = store.put_object(_shard("single-copy-body"))
    copies = [p for p in store._candidate_paths(digest) if p.exists()]
    assert len(copies) == 1
    assert store.manifest_dirs() == [store.manifests_dir]
    assert len(store.repair_queue) == 0
    status = store.tier_status()
    assert status["replicas"] == 1
    report = StoreScrubber(store).scrub(quarantine=False)
    assert report.replica_target == 1
    assert report.under_replicated == {}
