"""The connection-record store: shards, caching, and querying.

Sits between generation and analysis: :func:`repro.core.study.analyze_dataset`
shards every finished analysis into the store, content-addressed by the
trace files' digests, and later runs rebuild their tables from the
shards without touching a single pcap record.

* :mod:`repro.store.codec` — deterministic pickle-free value encoding.
* :mod:`repro.store.shard` — the columnar, CRC-checked shard format.
* :mod:`repro.store.cache` — :class:`ConnStore`, the one store class:
  content-addressed objects placed over one or more roots, replicas,
  and read-repair; every read re-verifies the bytes on disk.
* :mod:`repro.store.query` — filtered scans and table aggregations.
* :mod:`repro.store.scrub` — the integrity walk (resumable in bounded
  steps, or run to the end in one sitting), quarantine, repair.
* :mod:`repro.store.tier` — the placement manifest, root health, and
  checkpoint compaction the store is built from.
"""

from .cache import DEFAULT_TMP_GRACE, CachedDataset, ConnStore, GcReport
from .query import ConnFilter, StoreQuery
from .schema import SCHEMA_VERSION
from .scrub import RepairOutcome, ScrubFinding, ScrubReport, StoreScrubber
from .shard import ShardError
from .tier import (
    CompactionReport,
    PlacementManifest,
    RebalanceReport,
    compact_checkpoints,
    init_tier,
)

__all__ = [
    "ConnStore",
    "CachedDataset",
    "GcReport",
    "DEFAULT_TMP_GRACE",
    "ConnFilter",
    "StoreQuery",
    "ShardError",
    "StoreScrubber",
    "ScrubReport",
    "ScrubFinding",
    "RepairOutcome",
    "SCHEMA_VERSION",
    "PlacementManifest",
    "RebalanceReport",
    "CompactionReport",
    "compact_checkpoints",
    "init_tier",
]
