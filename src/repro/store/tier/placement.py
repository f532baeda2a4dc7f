"""Shard placement across multiple store roots.

A store spreads its ``objects/`` tree over N filesystem roots,
routing each shard by the first hex character of its content address —
16 *buckets*, each wholly owned by one root.  The routing table lives in
a single JSON **placement manifest** (``tier.json``) at the primary
root, published through the crash-consistent fsio seam so readers see
the old table or the new one, never a torn file.  A root without one
lives by the default table — the primary alone, one copy — which is
never written: ``tier.json`` records only a non-default placement.

The manifest also records the *moving* cursor: while a bucket's objects
are being copied to a new root, ``moving[bucket]`` names the
destination.  Writers target the destination immediately (so nothing
written mid-move is stranded), readers try the assigned root first and
fall back to every other root, and the final ``assign`` flip is one
atomic manifest rewrite — a crash at any point leaves a store that
answers every read, with at worst duplicate copies for the next
rebalance pass to reap.

Placement is deterministic and *minimal-move*: adding a root reassigns
only the buckets needed to level the count, never reshuffling buckets
that can stay put.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ...chaos import fsio

if TYPE_CHECKING:
    from ..cache import ConnStore

__all__ = [
    "PlacementManifest",
    "PlacementManifestError",
    "RebalanceReport",
    "init_tier",
    "TIER_MANIFEST",
    "BUCKETS",
    "DEFAULT_FAILURE_THRESHOLD",
    "DEFAULT_COOLDOWN_S",
]

#: Filename of the placement manifest at the primary root.  A root
#: without one lives by the default :class:`PlacementManifest`.
TIER_MANIFEST = "tier.json"

#: The 16 placement buckets: the first hex character of a content address.
BUCKETS = tuple("0123456789abcdef")

#: Consecutive I/O failures before a root's circuit breaker opens.
DEFAULT_FAILURE_THRESHOLD = 3

#: Seconds an open breaker waits before letting one half-open probe through.
DEFAULT_COOLDOWN_S = 30.0

_SCHEMA = 1


class PlacementManifestError(ValueError):
    """A ``tier.json`` that exists but cannot be read as a placement."""


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`~repro.store.cache.ConnStore.rebalance` pass did."""

    #: Buckets whose assignment flipped this pass (hex chars).
    moved: tuple[str, ...]
    #: Object files copied to their new root.
    copied: int
    bytes_copied: int
    #: Source/duplicate copies deleted after a verified flip.
    deleted: int
    #: Buckets still misplaced after this pass (bounded by max_buckets).
    pending: tuple[str, ...]


@dataclass
class PlacementManifest:
    """The routing table one store lives by.

    ``roots`` are *specs*: ``"."`` is the primary root itself, other
    entries are absolute paths or paths relative to the primary.  Index
    0 must be ``"."`` — manifests, the daemon tree, and this file stay
    at the primary so every existing key/token computation is untouched.
    """

    roots: list[str] = field(default_factory=lambda: ["."])
    #: bucket (hex char) -> index into ``roots``.
    assign: dict[str, int] = field(default_factory=dict)
    #: in-flight rebalance cursor: bucket -> destination root index.
    moving: dict[str, int] = field(default_factory=dict)
    #: Copies of every object (and manifest) kept on distinct roots.
    #: 1 — the historical behavior — means no redundancy at all.
    replicas: int = 1
    #: Root-health circuit breaker: consecutive failures before open,
    #: and how long open lasts before a half-open probe.
    failure_threshold: int = DEFAULT_FAILURE_THRESHOLD
    cooldown_s: float = DEFAULT_COOLDOWN_S

    def __post_init__(self) -> None:
        if not self.roots or self.roots[0] != ".":
            raise ValueError('placement roots[0] must be "." (the primary)')
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        for bucket in BUCKETS:
            self.assign.setdefault(bucket, 0)
        bad = [b for b in self.assign if b not in BUCKETS]
        if bad:
            raise ValueError(f"unknown placement buckets: {bad}")
        for bucket, index in {**self.assign, **self.moving}.items():
            if not 0 <= index < len(self.roots):
                raise ValueError(
                    f"bucket {bucket!r} routed to root {index}, "
                    f"but only {len(self.roots)} root(s) are declared"
                )

    # -- routing -----------------------------------------------------------

    @staticmethod
    def bucket_of(digest: str) -> str:
        return digest[0]

    def active_index(self, bucket: str) -> int:
        """Where *writers* put the bucket right now.

        Mid-move this is the destination: anything published during the
        copy lands where the flip will point readers, so a move can
        never strand a freshly written shard at the root it is leaving.
        """
        return self.moving.get(bucket, self.assign[bucket])

    def effective_replicas(self) -> int:
        """The copy count actually achievable: you cannot keep two
        copies on distinct roots of a one-root store."""
        return min(self.replicas, len(self.roots))

    @staticmethod
    def _rendezvous(token: str, indices: list[int]) -> list[int]:
        """``indices`` in the token's rendezvous order — each (token,
        index) pair gets a deterministic score, highest first, so every
        process (and every process *restart*) derives the same
        secondary set without any coordination."""
        return sorted(
            indices,
            key=lambda index: hashlib.sha256(
                f"{token}:{index}".encode("utf-8")
            ).hexdigest(),
            reverse=True,
        )

    def replica_order(self, bucket: str, primary: int | None = None) -> list[int]:
        """Every root index, primary first, then rendezvous order.

        The full list is the read-fallback scan order; its first
        :meth:`effective_replicas` entries are the bucket's replica set.
        ``primary`` overrides the placement's active index — rebalance
        uses it to compute the replica set a bucket will have *after*
        its pending flip.
        """
        home = self.active_index(bucket) if primary is None else primary
        others = [index for index in range(len(self.roots)) if index != home]
        return [home] + self._rendezvous(bucket, others)

    def replica_indices(self, bucket: str, primary: int | None = None) -> list[int]:
        """The roots that must each hold a copy of this bucket's objects."""
        return self.replica_order(bucket, primary)[: self.effective_replicas()]

    def mirror_indices(self, key: str) -> list[int]:
        """Secondary roots that mirror one manifest (primary holds the
        original; mirrors make the metadata plane as redundant as the
        objects it describes)."""
        want = self.effective_replicas() - 1
        if want <= 0:
            return []
        others = list(range(1, len(self.roots)))
        return self._rendezvous(key, others)[:want]

    def resolve_roots(self, primary: Path) -> list[Path]:
        """Root specs -> concrete paths (primary-relative unless absolute)."""
        resolved = []
        for spec in self.roots:
            if spec == ".":
                resolved.append(primary)
            else:
                path = Path(spec)
                resolved.append(path if path.is_absolute() else primary / path)
        return resolved

    # -- target computation ------------------------------------------------

    def balanced_assign(self) -> dict[str, int]:
        """The minimal-move leveled routing for the current root list.

        Each root's quota is ``16 // n`` buckets (+1 for the first
        ``16 % n`` roots).  Buckets already at an under-quota root stay;
        only the excess is reassigned, in hex order, to under-quota
        roots in index order — fully deterministic, so every invocation
        (including one resuming after a crash) computes the same target.
        """
        n = len(self.roots)
        quota = [16 // n + (1 if i < 16 % n else 0) for i in range(n)]
        target: dict[str, int] = {}
        used = [0] * n
        homeless: list[str] = []
        for bucket in BUCKETS:
            current = self.assign[bucket]
            if used[current] < quota[current]:
                target[bucket] = current
                used[current] += 1
            else:
                homeless.append(bucket)
        for bucket in homeless:
            for index in range(n):
                if used[index] < quota[index]:
                    target[bucket] = index
                    used[index] += 1
                    break
        return target

    def misplaced(self) -> tuple[str, ...]:
        """Buckets whose current assignment differs from the leveled target."""
        target = self.balanced_assign()
        return tuple(
            bucket for bucket in BUCKETS
            if self.assign[bucket] != target[bucket] or bucket in self.moving
        )

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema": _SCHEMA,
            "roots": list(self.roots),
            "assign": {b: self.assign[b] for b in BUCKETS},
            "moving": dict(sorted(self.moving.items())),
            "replicas": self.replicas,
            "failure_threshold": self.failure_threshold,
            "cooldown_s": self.cooldown_s,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PlacementManifest":
        """Rebuild a placement from :meth:`to_payload` output.

        A missing ``schema`` reads as 1; a newer one is refused rather
        than read as if it were this version.  Keys this version does
        not know, such as an older file's cache settings, are ignored
        and never written back.
        """
        schema = int(payload.get("schema", 1))
        if schema > _SCHEMA:
            raise PlacementManifestError(
                f"placement manifest schema {schema} is newer than "
                f"supported schema {_SCHEMA}"
            )
        return cls(
            roots=list(payload["roots"]),
            assign={str(k): int(v) for k, v in payload.get("assign", {}).items()},
            moving={str(k): int(v) for k, v in payload.get("moving", {}).items()},
            replicas=int(payload.get("replicas", 1)),
            failure_threshold=int(
                payload.get("failure_threshold", DEFAULT_FAILURE_THRESHOLD)
            ),
            cooldown_s=float(payload.get("cooldown_s", DEFAULT_COOLDOWN_S)),
        )

    @classmethod
    def load(cls, primary: Path) -> "PlacementManifest | None":
        """Read the placement manifest, or None when the root has none."""
        path = primary / TIER_MANIFEST
        try:
            payload = json.loads(fsio.read_bytes(path).decode("utf-8"))
        except FileNotFoundError:
            return None
        except ValueError as exc:  # torn or not JSON (UnicodeError included)
            raise PlacementManifestError(
                f"unreadable placement manifest {path}: {exc}"
            ) from exc
        try:
            return cls.from_payload(payload)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PlacementManifestError(
                f"invalid placement manifest {path}: {exc!r}"
            ) from exc

    def save(self, primary: Path) -> None:
        """Atomically (re)publish the routing table.

        This is the linearization point of every placement change: the
        assign flip that completes a bucket move, the cursor write that
        starts one, a new root joining.  ``fsio.publish_text`` fsyncs
        file and directory around an ``os.replace``, so under the chaos
        fault plane a crash leaves the previous table intact.
        """
        text = json.dumps(self.to_payload(), sort_keys=True, indent=1) + "\n"
        fsio.publish_text(primary / TIER_MANIFEST, text, tmp_prefix=".tier-")


def init_tier(
    root: str | Path,
    roots: tuple[str, ...] = (),
    replicas: int = 1,
) -> ConnStore:
    """Write a placement manifest onto a store root and open the store.

    Existing objects stay where they are — every bucket starts assigned
    to the primary, so a freshly initialized tier answers identically
    to the single-root store it was; ``rebalance`` then levels buckets
    across ``roots`` (extra roots beyond the implicit primary ``"."``).
    With ``replicas`` > 1, existing objects are *under-replicated* until
    ``repair --replicas`` (or the first cold read of each) copies them
    out; new writes land on the full replica set immediately.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    root = Path(root)
    if (root / TIER_MANIFEST).exists():
        raise FileExistsError(f"{root / TIER_MANIFEST} already exists")
    placement = PlacementManifest(
        roots=["."] + [spec for spec in roots if spec != "."],
        replicas=replicas,
    )
    root.mkdir(parents=True, exist_ok=True)
    placement.save(root)
    from ..cache import ConnStore  # the store class imports this module

    return ConnStore(root)
