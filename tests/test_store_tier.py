"""The tiered store's unit layer: placement, routing, reads, rebalance.

The invariant everything else leans on: a tiered store is observably a
ConnStore.  Same digests, same round trips, same typed errors — the
only new behaviors are *where* bytes land (placement), that every read
re-verifies the bytes on disk, and that no interleaving of rebalance
steps can lose or mask a healthy copy.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.errors import ErrorKind
from repro.store import ConnStore, ShardError
from repro.store.tier import (
    BUCKETS,
    TIER_MANIFEST,
    PlacementManifest,
    PlacementManifestError,
    init_tier,
)


def seeded(root, count=48) -> tuple[ConnStore, dict[str, bytes]]:
    """A flat store holding ``count`` distinct objects."""
    store = ConnStore(root)
    bodies = {}
    for index in range(count):
        data = f"shard-body-{index:04d}".encode() * 7
        bodies[store.put_object(data)] = data
    return store, bodies


def two_root_tier(tmp_path, count=48):
    """A tiered store rebalanced across the primary and one extra root."""
    _, bodies = seeded(tmp_path / "store", count)
    second = tmp_path / "root-b"
    store = init_tier(tmp_path / "store", roots=(str(second),))
    store.rebalance()
    return store, bodies, second


# -- placement manifest ------------------------------------------------------


def test_buckets_cover_every_digest_prefix():
    assert "".join(BUCKETS) == "0123456789abcdef"
    assert PlacementManifest.bucket_of("f00d" + "0" * 60) == "f"


def test_manifest_round_trips_through_disk(tmp_path):
    manifest = PlacementManifest(roots=[".", str(tmp_path / "b")])
    manifest.save(tmp_path)
    loaded = PlacementManifest.load(tmp_path)
    assert loaded.roots == manifest.roots
    assert loaded.assign == manifest.assign


def test_primary_root_must_come_first():
    with pytest.raises(ValueError):
        PlacementManifest(roots=["/somewhere", "."])


def test_balanced_assign_levels_and_minimizes_moves():
    manifest = PlacementManifest(roots=[".", "b"])
    target = manifest.balanced_assign()
    counts = [sum(1 for b in BUCKETS if target[b] == i) for i in range(2)]
    assert counts == [8, 8]
    # Re-leveling an already-balanced table is a fixed point.
    manifest.assign = dict(target)
    assert manifest.balanced_assign() == target
    # A third root steals only the overflow: buckets already under quota
    # stay put (minimal movement).
    manifest.roots.append("c")
    retarget = manifest.balanced_assign()
    stayed = sum(1 for b in BUCKETS if retarget[b] == target[b])
    assert stayed >= 10
    counts3 = [sum(1 for b in BUCKETS if retarget[b] == i) for i in range(3)]
    assert sorted(counts3) == [5, 5, 6]


# -- init / open ----------------------------------------------------------


def test_init_tier_is_single_shot(tmp_path):
    init_tier(tmp_path / "store")
    assert (tmp_path / "store" / TIER_MANIFEST).exists()
    with pytest.raises(FileExistsError):
        init_tier(tmp_path / "store")


def test_store_without_a_manifest_uses_the_default_placement(tmp_path):
    flat = ConnStore(tmp_path / "flat")
    assert flat.placement == PlacementManifest()
    assert flat.roots() == [flat.root]
    init_tier(tmp_path / "tiered", roots=("../b",), replicas=2)
    tiered = ConnStore(tmp_path / "tiered")
    assert tiered.placement.roots == [".", "../b"]
    assert tiered.placement.effective_replicas() == 2


_BAD_MANIFESTS = {
    "torn": '{"roots": [".",',
    "not-a-placement": '{"assign": {"0": 0}}',
    "not-an-object": "[1, 2]",
}


@pytest.mark.parametrize("case", sorted(_BAD_MANIFESTS))
def test_unreadable_manifest_is_a_named_error(tmp_path, case):
    root = tmp_path / "store"
    root.mkdir()
    (root / TIER_MANIFEST).write_text(_BAD_MANIFESTS[case])
    with pytest.raises(PlacementManifestError) as info:
        ConnStore(root)
    assert isinstance(info.value, ValueError)
    assert str(root / TIER_MANIFEST) in str(info.value)


@pytest.mark.parametrize(
    "command", [["ls"], ["tier", "status"]], ids=["ls", "tier-status"]
)
def test_store_cli_reports_a_torn_manifest(tmp_path, capsys, command):
    from repro.core.cli import main

    root = tmp_path / "store"
    root.mkdir()
    (root / TIER_MANIFEST).write_text(_BAD_MANIFESTS["torn"])
    assert main(["store", *command, "--store-dir", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable placement manifest")
    assert "Traceback" not in err


def _write_newer_schema(root):
    root.mkdir()
    payload = PlacementManifest().to_payload()
    payload["schema"] += 1
    (root / TIER_MANIFEST).write_text(json.dumps(payload))
    return payload["schema"]


def test_newer_schema_is_refused_naming_both_versions(tmp_path):
    root = tmp_path / "store"
    newer = _write_newer_schema(root)
    with pytest.raises(PlacementManifestError) as info:
        ConnStore(root)
    assert f"schema {newer}" in str(info.value)
    assert f"schema {newer - 1}" in str(info.value)


def test_missing_schema_reads_as_version_one(tmp_path):
    payload = PlacementManifest(roots=[".", "b"]).to_payload()
    del payload["schema"]
    assert PlacementManifest.from_payload(payload).roots == [".", "b"]


def test_store_cli_reports_a_newer_schema(tmp_path, capsys):
    from repro.core.cli import main

    root = tmp_path / "store"
    _write_newer_schema(root)
    assert main(["store", "ls", "--store-dir", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "newer than supported" in err
    assert "Traceback" not in err


def test_fresh_tier_answers_exactly_like_the_flat_store(tmp_path):
    _, bodies = seeded(tmp_path / "store")
    store = init_tier(tmp_path / "store")
    for digest, data in bodies.items():
        assert store.get_object(digest) == data
    # Nothing moved: every bucket still lives at the primary.
    assert store.tier_status()["roots"][0]["objects"] == len(bodies)


# -- routing and rebalance ---------------------------------------------------


def test_rebalance_splits_objects_and_keeps_every_read(tmp_path):
    store, bodies, second = two_root_tier(tmp_path)
    status = store.tier_status()
    assert [r["buckets"] for r in status["roots"]] == [8, 8]
    assert all(r["objects"] > 0 for r in status["roots"])
    assert sum(r["objects"] for r in status["roots"]) == len(bodies)
    assert status["misplaced"] == [] and status["moving"] == {}
    for digest, data in bodies.items():
        assert store.get_object(digest) == data
    # A second pass has nothing left to do.
    again = store.rebalance()
    assert again.copied == 0 and again.pending == ()


def test_root_added_to_a_flat_store_serves_the_same_process(tmp_path):
    store, bodies = seeded(tmp_path / "store", count=8)
    store.add_root(str(tmp_path / "b"))
    store.rebalance()
    assert (tmp_path / "store" / TIER_MANIFEST).exists()
    fresh = {store.put_object(bytes([index]) * 50): index for index in range(32)}
    assert any((tmp_path / "b" / "objects").glob("*/*"))
    for digest in (*bodies, *fresh):
        assert store.get_object(digest)


def test_put_object_lands_at_the_assigned_root(tmp_path):
    store, _, second = two_root_tier(tmp_path, count=4)
    data = b"post-rebalance object " * 9
    digest = store.put_object(data)
    home = store._object_path(digest)
    assert home.exists()
    assert store.owning_root(home) == store._root_paths[
        store.placement.assign[digest[0]]
    ]


def test_add_root_rejects_duplicates(tmp_path):
    store, _, second = two_root_tier(tmp_path, count=4)
    with pytest.raises(ValueError):
        store.add_root(str(second))


def test_bounded_rebalance_leaves_an_honest_pending_list(tmp_path):
    _, bodies = seeded(tmp_path / "store", count=32)
    store = init_tier(tmp_path / "store", roots=(str(tmp_path / "b"),))
    first = store.rebalance(max_buckets=3)
    assert len(first.moved) == 3 and first.pending
    for digest, data in bodies.items():  # mid-rebalance reads stay whole
        assert store.get_object(digest) == data
    rest = store.rebalance()
    assert rest.pending == ()


def test_reader_finds_a_copy_left_at_the_wrong_root(tmp_path):
    store, bodies, second = two_root_tier(tmp_path)
    digest, data = next(iter(bodies.items()))
    # Simulate a crash-torn move: the only copy sits at a non-home root.
    home = store._object_path(digest)
    stray = [p for p in store._candidate_paths(digest) if p != home][0]
    stray.parent.mkdir(parents=True, exist_ok=True)
    home.rename(stray)
    assert store.get_object(digest) == data


def test_corrupt_home_copy_never_masks_a_healthy_duplicate(tmp_path):
    store, bodies, second = two_root_tier(tmp_path)
    digest, data = next(iter(bodies.items()))
    home = store._object_path(digest)
    stray = [p for p in store._candidate_paths(digest) if p != home][0]
    stray.parent.mkdir(parents=True, exist_ok=True)
    stray.write_bytes(home.read_bytes())
    home.write_bytes(b"rotted " + home.read_bytes())
    assert store.get_object(digest) == data


def test_corrupt_only_copy_is_a_decode_error(tmp_path):
    store, bodies, _ = two_root_tier(tmp_path, count=4)
    digest = next(iter(bodies))
    path = next(p for p in store._candidate_paths(digest) if p.exists())
    path.write_bytes(b"not the named bytes")
    with pytest.raises(ShardError) as info:
        store.get_object(digest)
    assert info.value.kind is ErrorKind.DECODE_ERROR


def test_missing_everywhere_is_truncated_body(tmp_path):
    store, _, _ = two_root_tier(tmp_path, count=4)
    with pytest.raises(ShardError) as info:
        store.get_object("0" * 64)
    assert info.value.kind is ErrorKind.TRUNCATED_BODY


def test_gc_and_stats_span_all_roots(tmp_path):
    store, bodies, _ = two_root_tier(tmp_path)
    assert store.stats()["objects"] == len(bodies)
    report = store.gc()  # nothing referenced: every object is garbage
    assert len(report.removed) == len(bodies)
    assert all(not p.exists() for d in bodies for p in store._candidate_paths(d))


# -- reads -------------------------------------------------------------------


def test_every_read_reverifies_the_disk(tmp_path):
    store = ConnStore(tmp_path / "store")
    digest = store.put_object(b"shard bytes" * 9)
    assert store.get_object(digest) == b"shard bytes" * 9
    store._object_path(digest).write_bytes(b"other bytes" * 9)
    with pytest.raises(ShardError) as info:
        store.get_object(digest)
    assert info.value.kind is ErrorKind.DECODE_ERROR


def test_a_copy_rotted_after_a_read_falls_back_to_its_replica(tmp_path):
    store = init_tier(tmp_path / "store", roots=(str(tmp_path / "b"),), replicas=2)
    data = b"replicated shard" * 9
    digest = store.put_object(data)
    assert store.get_object(digest) == data
    (_, first), (_, second) = store.replica_paths(digest)
    first.write_bytes(b"rotted" * 9)
    assert store.get_object(digest) == data
    second.write_bytes(b"rotted" * 9)
    with pytest.raises(ShardError):
        store.get_object(digest)


# -- surface integration -----------------------------------------------------


def test_tier_status_reaches_store_stats_and_health_shape(tmp_path):
    store, _, _ = two_root_tier(tmp_path, count=4)
    payload = store.stats()["tier"]
    assert {r["spec"] for r in payload["roots"]} == set(store.placement.roots)
    assert set(payload) >= {"roots", "assign", "moving", "misplaced"}
    json.dumps(payload)  # must be JSON-serializable for /health
