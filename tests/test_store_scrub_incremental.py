"""Resumable scrub: bounded steps, a persisted cursor, same verdicts.

The contract: stepping with any budget, across any number of scrubber
instances (i.e. process restarts), visits every object and manifest
exactly once per cycle — integrity as a background task, not a
stop-the-world pass.  The one-sitting ``scrub()`` is the same walk on
an in-memory cursor: it reaches the same findings and never touches the
cursor file.
"""

from __future__ import annotations

import shutil

import pytest

from repro.store import ConnStore, StoreScrubber
from repro.store.scrub import CURSOR_FILE
from repro.store.tier import init_tier


@pytest.fixture()
def stocked(store_study, tmp_path):
    """A private mutable copy of the shared study store."""
    _, root = store_study
    shutil.copytree(root, tmp_path / "store")
    return ConnStore(tmp_path / "store")


def _objects(store) -> int:
    return sum(1 for _ in store._object_files())


def test_full_cycle_on_a_clean_store(stocked):
    scrubber = StoreScrubber(stocked)
    cursor = scrubber.run(budget=3)
    assert cursor["phase"] == "done"
    report = scrubber.report(cursor)
    assert report.ok, report.render()
    assert report.objects_checked == _objects(stocked) >= 3
    assert report.manifests_checked >= 1


def test_budget_bounds_every_step(stocked):
    scrubber = StoreScrubber(stocked)
    cursor = scrubber.step(budget=2)
    assert cursor["phase"] == "objects"
    assert cursor["objects_checked"] == 2
    assert (stocked.root / CURSOR_FILE).exists()


def test_cursor_resumes_across_instances_without_rechecking(stocked):
    total = _objects(stocked)
    steps = 0
    while True:
        # A fresh scrubber per step — each step could be a new process.
        cursor = StoreScrubber(stocked).step(budget=2)
        steps += 1
        if cursor["phase"] == "done":
            break
        assert steps < 1000
    assert cursor["objects_checked"] == total  # every object once, exactly
    assert StoreScrubber(stocked).report(cursor).ok


def test_audit_lists_the_manifest_of_a_corrupt_shard(stocked):
    """An audit leaves a corrupt shard in place; it still counts as
    missing for every manifest that references it, in both modes."""
    manifest = next(stocked.manifests())
    victim = stocked._object_path(manifest["dataset_shard"])
    data = bytearray(victim.read_bytes())
    data[30] ^= 0x01
    victim.write_bytes(bytes(data))
    scrubber = StoreScrubber(stocked)
    one_sitting = scrubber.scrub(quarantine=False)
    stepped = scrubber.report(scrubber.run(budget=4, quarantine=False))
    for report in (one_sitting, stepped):
        assert [f.path for f in report.corrupt_objects] == [
            str(victim.relative_to(stocked.root))
        ]
        assert report.missing_refs[manifest["key"]] == (manifest["dataset_shard"],)
    assert victim.exists()


def test_one_sitting_scrub_never_touches_the_cursor(stocked):
    scrubber = StoreScrubber(stocked)
    assert scrubber.scrub().ok
    assert not (stocked.root / CURSOR_FILE).exists()
    scrubber.step(budget=2)
    half_done = (stocked.root / CURSOR_FILE).read_bytes()
    victim = sorted(stocked._object_files())[-1]
    victim.write_bytes(b"rot")
    assert not scrubber.scrub(quarantine=False).ok
    assert (stocked.root / CURSOR_FILE).read_bytes() == half_done
    assert scrubber.cursor()["objects_checked"] == 2


def test_incremental_quarantine_moves_the_corrupt_object(stocked):
    victim = sorted(stocked._object_files())[0]
    victim.write_bytes(b"rot")
    scrubber = StoreScrubber(stocked)
    report = scrubber.report(scrubber.run(budget=5))
    assert not report.ok
    assert not victim.exists()
    (finding,) = report.corrupt_objects
    assert finding.quarantined_to
    assert (stocked.root / finding.quarantined_to).exists()
    # The quarantined object now fails the manifests phase as a missing ref.
    assert report.missing_refs


def test_done_cursor_starts_a_fresh_cycle(stocked):
    scrubber = StoreScrubber(stocked)
    first = scrubber.run(budget=1000)
    assert first["phase"] == "done"
    again = scrubber.step(budget=2)
    assert again["phase"] == "objects" and again["objects_checked"] == 2


def test_reset_forgets_the_cursor(stocked):
    scrubber = StoreScrubber(stocked)
    scrubber.step(budget=1)
    scrubber.reset()
    assert not (stocked.root / CURSOR_FILE).exists()
    assert scrubber.cursor()["objects_checked"] == 0


def test_incremental_scrub_spans_every_tier_root(store_study, tmp_path):
    _, root = store_study
    shutil.copytree(root, tmp_path / "store")
    store = init_tier(tmp_path / "store", roots=(str(tmp_path / "b"),))
    store.rebalance()
    flat_total = _objects(store)
    assert any((tmp_path / "b" / "objects").glob("*/*"))
    scrubber = StoreScrubber(store)
    report = scrubber.report(scrubber.run(budget=3))
    assert report.ok, report.render()
    assert report.objects_checked == flat_total
    # Corruption at the *secondary* root is found and quarantined there.
    victim = sorted((tmp_path / "b" / "objects").glob("*/*.rcs"))[0]
    victim.write_bytes(b"rot")
    scrubber.reset()
    report = scrubber.report(scrubber.run(budget=3))
    assert not report.ok
    (finding,) = report.corrupt_objects
    assert (tmp_path / "b" / finding.quarantined_to).exists()
