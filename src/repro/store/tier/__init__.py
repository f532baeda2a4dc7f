"""Multi-root placement: routing table, root health, compaction.

See ``docs/store.md`` (§ tiering) for the operational story.  The short
version: every :class:`~repro.store.cache.ConnStore` lives by a
:class:`PlacementManifest`.  A store root without ``tier.json`` uses
the default one — a single root, ``replicas=1`` — which is never
written; ``init_tier`` (or ``add_root``) records a non-default
placement, and ``rebalance`` levels buckets across the declared roots.
The rest of the pipeline never knows the difference.
"""

from .compact import CompactionReport, compact_checkpoints
from .health import QUEUE_FILE, HealthTracker, ReplicaRepairReport, UnderReplicatedQueue
from .placement import (
    BUCKETS,
    TIER_MANIFEST,
    PlacementManifest,
    PlacementManifestError,
    RebalanceReport,
    init_tier,
)

__all__ = [
    "BUCKETS",
    "CompactionReport",
    "HealthTracker",
    "PlacementManifest",
    "PlacementManifestError",
    "QUEUE_FILE",
    "RebalanceReport",
    "ReplicaRepairReport",
    "TIER_MANIFEST",
    "UnderReplicatedQueue",
    "compact_checkpoints",
    "init_tier",
]
