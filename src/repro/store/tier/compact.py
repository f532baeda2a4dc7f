"""Background compaction of streaming checkpoint shards.

A long-running streaming ingest (the daemon, a checkpointed study)
drains its finished-flow buffer every ``checkpoint_every`` packets,
leaving a trail of small kind-3 result-batch shards — dozens of files a
few KB each per trace.  Every resume and every end-of-trace merge then
pays one open+read+verify per batch.  Compaction folds a checkpoint's
batch chain into one columnar **super-shard** holding the identical
results in the identical order, so the chain is one object deep again.

Equivalence is structural, not hoped-for: ``decode_result_batch`` of
the super-shard yields exactly the concatenation of decoding the
originals (the encoder is a pure function of the result list), and the
engine's end-of-trace merge promotion-sorts whatever it is handed — so
a resumed run is byte-identical before, during, and after compaction.
The acceptance gate (study digests unchanged) rides on that.

Crash-safety leans entirely on the store's existing seams:

1. the super-shard and the rewritten state shard are published
   content-addressed (crash ⇒ unreferenced objects, swept by gc);
2. the checkpoint manifest rewrite is one atomic
   :func:`~repro.chaos.fsio.publish_text` — a reader (or a resuming
   engine) sees the old batch chain or the new one, never a mix;
3. the *state shard* is rewritten too, because
   :meth:`~repro.stream.checkpoint.StreamCheckpointer.load` restores
   the batch list from the state, not the manifest — rewriting only
   the manifest would silently undo the compaction on resume.

Live writers are skipped by a manifest-age grace (same idea as the
gc/scrub tmp grace): a checkpoint whose manifest was republished in the
last ``grace_s`` seconds belongs to a running engine that will rewrite
it momentarily, and compacting under it would only waste the work.

The manifest-file *name* never changes, so the service's store-state
token — a hash of the manifest listing — is unchanged and every cached
response stays valid mid-compaction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..schema import SCHEMA_VERSION

if TYPE_CHECKING:
    from ..cache import ConnStore

__all__ = ["CompactionReport", "compact_checkpoints"]

#: Fewest batches a checkpoint must hold before compacting pays.
DEFAULT_MIN_BATCHES = 2


@dataclass
class CompactionReport:
    """What one compaction pass did."""

    examined: int = 0
    #: Checkpoint keys compacted this pass.
    compacted: list[str] = field(default_factory=list)
    batches_before: int = 0
    batches_after: int = 0
    bytes_written: int = 0
    #: Checkpoints skipped because their manifest is younger than the
    #: grace — a live engine owns them.
    skipped_live: int = 0
    #: Checkpoints already compact (fewer than min_batches batches).
    skipped_small: int = 0

    def render(self) -> str:
        lines = [
            f"compacted {len(self.compacted)}/{self.examined} checkpoint(s): "
            f"{self.batches_before} batch shard(s) -> {self.batches_after}"
        ]
        for key in self.compacted:
            lines.append(f"  {key[:20]}…")
        if self.skipped_live:
            lines.append(f"  {self.skipped_live} skipped (live writer grace)")
        if self.skipped_small:
            lines.append(f"  {self.skipped_small} already compact")
        return "\n".join(lines)


def compact_checkpoints(
    store: ConnStore,
    min_batches: int = DEFAULT_MIN_BATCHES,
    grace_s: float | None = None,
    keys: tuple[str, ...] = (),
) -> CompactionReport:
    """Merge each eligible checkpoint's batch chain into one super-shard.

    ``keys`` restricts the pass to specific checkpoint keys (as listed
    in the manifests' ``key`` field); empty means every checkpoint.
    ``grace_s`` defaults to gc's temp-file grace
    (:data:`~repro.store.cache.DEFAULT_TMP_GRACE`); pass ``grace_s=0``
    on a store known quiescent (tests, CI smoke).  Old batch and state
    objects become unreferenced — ``store gc`` reclaims them.
    """
    if grace_s is None:
        # Resolved here: the store class imports this package.
        from ..cache import DEFAULT_TMP_GRACE as grace_s
    # Lazy: repro.stream imports repro.store at module scope; importing
    # it here (not at module scope) keeps the store package import-light
    # and cycle-free.
    from ...stream.checkpoint import (
        StreamCheckpointer,
        decode_result_batch,
        decode_state,
        encode_result_batch,
        encode_state,
    )

    report = CompactionReport()
    now = time.time()
    for manifest in store.checkpoints():
        key = manifest.get("key")
        batches = list(manifest.get("batches", ()))
        if key is None:
            continue
        if keys and key not in keys:
            continue
        report.examined += 1
        if len(batches) < min_batches:
            report.skipped_small += 1
            continue
        manifest_key = StreamCheckpointer(store, key).manifest_key
        path = store._manifest_path(manifest_key)
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue  # retired between listing and here
        if grace_s > 0 and age < grace_s:
            report.skipped_live += 1
            continue
        results = []
        for digest in batches:
            results.extend(
                decode_result_batch(
                    store.get_object(digest), str(store._object_path(digest))
                )
            )
        super_bytes = encode_result_batch(results)
        super_digest = store.put_object(super_bytes)
        state = decode_state(
            store.get_object(manifest["state"]),
            str(store._object_path(manifest["state"])),
        )
        state["batches"] = [super_digest]
        state_bytes = encode_state(state)
        state_digest = store.put_object(state_bytes)
        store._write_manifest(
            manifest_key,
            {
                "schema": SCHEMA_VERSION,
                "kind": "checkpoint",
                "key": key,
                "state": state_digest,
                "batches": [super_digest],
                "compacted_from": len(batches),
            },
        )
        report.compacted.append(key)
        report.batches_before += len(batches)
        report.batches_after += 1
        report.bytes_written += len(super_bytes) + len(state_bytes)
    return report
