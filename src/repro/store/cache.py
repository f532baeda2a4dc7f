"""The content-addressed connection-record store.

Layout on disk::

    <root>/
      objects/<aa>/<digest>.rcs     # shards, named by the SHA-256 of
                                    # their own bytes (content-addressed)
      manifests/<key>.json          # content key -> dataset manifest
      manifests/<gen-key>.json      # generation key -> {"ref": content key}
      tier.json                     # placement, only when not the default

A store's objects may span several roots (see :mod:`repro.store.tier`):
``tier.json`` routes each shard by the first hex character of its
digest, keeps R copies on distinct roots, and mirrors every manifest.
A root without ``tier.json`` is the default placement — one root,
``replicas=1`` — held in memory and never written, so such a store's
files are exactly the layout above.  Manifests, the daemon tree and the
placement itself always stay at the primary root, so content keys and
the service's store-state token never depend on placement.

The *content key* hashes everything that determines an analysis: the
schema version, the analyzer set, the error policy, the internal net,
the known-scanner list, payload visibility, and the SHA-256 of every
trace file in order.  Mutating one byte of one pcap therefore misses the
cache; so does changing the analyzer roster or bumping the schema.

The *generation key* hashes the study parameters (dataset, seed, scale,
window truncation) plus the same analysis configuration.  Because trace
generation is deterministic by seed, ``run_study`` can use it to skip
generation entirely; when the pcaps still exist on disk their digests
are re-verified against the manifest before the cached analysis is
trusted.

Shards are verified twice on every load — their name must equal the
SHA-256 of their bytes, and their CRC footer must check out — and every
defect, a read I/O error included, surfaces as a
:class:`~repro.store.shard.ShardError` carrying the PR-1 taxonomy so
callers can apply strict/tolerant policy decisions.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..analysis.engine import DatasetAnalysis
from ..chaos import fsio
from ..analysis.errors import ErrorKind, ErrorPolicy
from ..gen.capture import DatasetTraces, TapWindow, Trace
from ..gen.datasets import DATASETS
from ..util.addr import Subnet
from .schema import SCHEMA_VERSION
from .tier.health import HealthTracker, ReplicaRepairReport, UnderReplicatedQueue
from .tier.placement import BUCKETS, PlacementManifest, RebalanceReport
from .shard import (
    DatasetShard,
    ShardError,
    TraceShard,
    decode_dataset_shard,
    decode_trace_shard,
    encode_dataset_shard,
    encode_trace_shard,
)

__all__ = [
    "ConnStore",
    "CachedDataset",
    "GcReport",
    "DEFAULT_TMP_GRACE",
    "manifest_refs",
    "shard_analysis",
    "assemble_analysis",
]

_OBJECT_SUFFIX = ".rcs"
_TMP_SUFFIX = ".tmp"

#: Subdirectory of the store root where the ingestion daemon publishes
#: per-tenant rolling-window results (see :mod:`repro.daemon`).  Its
#: temp files are swept with the same grace rules as the store's own.
DAEMON_DIR = "daemon"

#: Seconds a ``.tmp`` file must sit untouched before gc/scrub treat it
#: as a crashed writer's leftover rather than a live writer's in-flight
#: publish.  An atomic publish lives milliseconds between ``mkstemp``
#: and ``os.replace``; five minutes is orders of magnitude past any
#: plausible stall, yet short enough that real debris is still swept by
#: the next maintenance pass.
DEFAULT_TMP_GRACE = 300.0


@dataclass(frozen=True)
class GcReport:
    """What a :meth:`ConnStore.gc` pass removed (or would remove)."""

    #: Digests of unreferenced shard objects removed (or would-be).
    removed: tuple[str, ...]
    #: Stale ``.tmp`` files left behind by crashed writers.
    stale_tmp: int
    #: Bytes freed (objects plus stale temp files).
    reclaimed_bytes: int
    dry_run: bool = False
    #: Young ``.tmp`` files spared by the grace period — likely a live
    #: writer (the daemon) mid-publish, never removed.
    in_flight_tmp: int = 0
    #: Mirror manifests removed because their primary copy is gone
    #: (replicated stores only; always 0 at ``replicas=1``).
    orphan_mirrors: int = 0


def manifest_refs(payload: dict) -> tuple[str, ...]:
    """Every object digest one manifest payload references (none for a
    generation-key alias)."""
    if payload.get("kind") == "checkpoint":
        return (payload["state"], *payload.get("batches", ()))
    digests = [payload["dataset_shard"]] if "dataset_shard" in payload else []
    digests.extend(entry["shard"] for entry in payload.get("traces", ()))
    return tuple(digests)


class CachedDataset:
    """One warm-cache load: the analysis plus reconstructed trace metadata."""

    def __init__(self, analysis: DatasetAnalysis, traces: DatasetTraces) -> None:
        self.analysis = analysis
        self.traces = traces


def shard_analysis(
    analysis: DatasetAnalysis, traces: DatasetTraces, trace_digests: list[str]
) -> tuple[list[dict], list[bytes], bytes]:
    """Encode a finished analysis as shard bytes.

    Returns ``(trace entries, trace shards, dataset shard)``: the
    entries are a manifest's per-trace rows, less the ``shard`` digest
    that only a store assigns.  :func:`assemble_analysis` inverts it.
    """
    name = analysis.name
    by_trace: dict[int, list] = {}
    for conn in analysis.conns:
        by_trace.setdefault(conn.trace_index, []).append(conn)
    entries: list[dict] = []
    shards: list[bytes] = []
    for index, (trace, stats) in enumerate(zip(traces.traces, analysis.traces)):
        source = f"{name}/{Path(trace.path).name}"
        shards.append(
            encode_trace_shard(
                name, source, trace_digests[index], stats, by_trace.get(index, [])
            )
        )
        entries.append(
            {
                "file": source,
                "digest": trace_digests[index],
                "packet_count": trace.packet_count,
                "snaplen": trace.snaplen,
                "window": {
                    "index": trace.window.index,
                    "subnet_index": trace.window.subnet_index,
                    "t0": trace.window.t0,
                    "t1": trace.window.t1,
                },
            }
        )
    dataset_shard = encode_dataset_shard(
        DatasetShard(
            name=name,
            full_payload=analysis.full_payload,
            internal_net=str(analysis.internal_net),
            error_policy=analysis.error_policy,
            scanner_sources=analysis.scanner_sources,
            windows_endpoints=analysis.windows_endpoints,
            removed_conns=analysis.removed_conns,
            analyzer_errors=analysis.analyzer_errors,
            analyzer_results=analysis.analyzer_results,
        )
    )
    return entries, shards, dataset_shard


def assemble_analysis(
    name: str,
    entries: list[dict],
    trace_shards: list[TraceShard],
    dataset_shard: DatasetShard,
) -> CachedDataset:
    """Rebuild an analysis and its trace metadata from decoded shards."""
    analysis = DatasetAnalysis(
        name=name,
        full_payload=dataset_shard.full_payload,
        internal_net=Subnet.parse(dataset_shard.internal_net),
        error_policy=dataset_shard.error_policy,
    )
    analysis.scanner_sources = dataset_shard.scanner_sources
    analysis.windows_endpoints = dataset_shard.windows_endpoints
    analysis.removed_conns = dataset_shard.removed_conns
    analysis.analyzer_errors = dataset_shard.analyzer_errors
    analysis.analyzer_results = dataset_shard.analyzer_results
    traces = DatasetTraces(config=DATASETS[name])
    for entry, shard in zip(entries, trace_shards):
        analysis.traces.append(shard.stats)
        analysis.conns.extend(shard.conns)
        window = entry["window"]
        traces.traces.append(
            Trace(
                dataset=name,
                window=TapWindow(
                    index=window["index"],
                    subnet_index=window["subnet_index"],
                    t0=window["t0"],
                    t1=window["t1"],
                ),
                path=Path(entry["file"]),
                packet_count=entry["packet_count"],
                snaplen=entry["snaplen"],
            )
        )
    return CachedDataset(analysis, traces)


class ConnStore:
    """A content-addressed store of analyzed connection records.

    Objects are routed by the store's :class:`PlacementManifest`:
    ``tier.json`` at the root when present, otherwise the default (one
    root, ``replicas=1``), which is never written.  With ``replicas: R``
    in the placement manifest, every object is published to R distinct
    roots (the bucket's primary plus R-1 secondaries in rendezvous
    order) and every manifest is mirrored to R-1 secondaries — so
    losing any single root loses no data, only redundancy.  A per-root circuit breaker (:class:`HealthTracker`)
    keeps a dead root from slowing every operation: open roots are
    skipped by reads, re-routed around by writes, and probed again
    after a cooldown.  Every copy a failure prevented is enqueued in
    ``under-replicated.json`` for ``store repair --replicas``.  Every
    read goes to disk and re-verifies the content address, so a copy
    that rots after one read is caught by the next.
    """

    def __init__(self, root: str | Path, clock=time.monotonic) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifests_dir = self.root / "manifests"
        placement = PlacementManifest.load(self.root) or PlacementManifest()
        self.placement = placement
        self._root_paths = placement.resolve_roots(self.root)
        self.health = HealthTracker(
            len(self._root_paths),
            failure_threshold=placement.failure_threshold,
            cooldown_s=placement.cooldown_s,
            clock=clock,
        )
        self.repair_queue = UnderReplicatedQueue(self.root)

    # -- digests and keys --------------------------------------------------

    @staticmethod
    def file_digest(path: str | Path) -> str:
        """Streaming SHA-256 of a file's bytes."""
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        return digest.hexdigest()

    @staticmethod
    def _key_of(payload: dict) -> str:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @staticmethod
    def _analysis_config(
        analyzers: tuple[str, ...],
        error_policy: str,
        full_payload: bool,
        internal_net: str,
        known_scanners: tuple[int, ...],
    ) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "analyzers": sorted(analyzers),
            "error_policy": error_policy,
            "full_payload": full_payload,
            "internal_net": internal_net,
            "known_scanners": sorted(known_scanners),
        }

    @classmethod
    def content_key(
        cls,
        dataset: str,
        trace_digests: list[str],
        analyzers: tuple[str, ...],
        error_policy: str,
        full_payload: bool,
        internal_net: str,
        known_scanners: tuple[int, ...] = (),
        engine_config: dict | None = None,
    ) -> str:
        """The cache key for analyzing these exact trace bytes.

        ``engine_config`` forks the key for ingest knobs that change the
        emitted records (:meth:`~repro.analysis.engine.StreamConfig.key_fork`:
        non-default eviction knobs).  ``None`` — the defaults — keeps the
        historical key.
        """
        payload = cls._analysis_config(
            analyzers, error_policy, full_payload, internal_net, known_scanners
        )
        payload["dataset"] = dataset
        payload["traces"] = list(trace_digests)
        if engine_config is not None:
            payload["engine"] = engine_config
        return cls._key_of(payload)

    @classmethod
    def generation_key(
        cls,
        dataset: str,
        seed: int,
        scale: float,
        max_windows: int | None,
        analyzers: tuple[str, ...],
        error_policy: str,
        internal_net: str,
        known_scanners: tuple[int, ...] = (),
        engine_config: dict | None = None,
    ) -> str:
        """The cache key for a deterministic generate-then-analyze run.

        ``engine_config`` forks the key exactly as in :meth:`content_key`.
        """
        payload = cls._analysis_config(
            analyzers, error_policy, True, internal_net, known_scanners
        )
        del payload["full_payload"]  # implied by the dataset config
        payload["generation"] = {
            "dataset": dataset,
            "seed": seed,
            "scale": scale,
            "max_windows": max_windows,
        }
        if engine_config is not None:
            payload["engine"] = engine_config
        return "gen-" + cls._key_of(payload)
    # -- roots -------------------------------------------------------------

    def roots(self) -> list[Path]:
        """Every filesystem root holding store files (primary first)."""
        return list(self._root_paths)

    def object_dirs(self) -> list[Path]:
        """Every ``objects/`` directory, one per root."""
        return [path / "objects" for path in self._root_paths]

    def owning_root(self, path: Path) -> Path:
        """The declared root a store file lives under, so quarantine
        stays on the same filesystem as the damage it removes
        (longest-prefix match: a secondary root nested inside the
        primary still wins for its own files)."""
        best = self.root
        best_len = -1
        for candidate in self._root_paths:
            if not path.is_relative_to(candidate):
                continue
            score = len(candidate.parts)
            if score > best_len:
                best, best_len = candidate, score
        return best

    def manifest_dirs(self) -> list[Path]:
        """Every directory holding manifest files: the primary's, then
        the mirror directories of a replicated store."""
        if self.placement.effective_replicas() <= 1:
            return [self.manifests_dir]
        return [self.manifests_dir] + [
            root / "manifests" for root in self._root_paths[1:]
        ]

    def _object_files(self) -> Iterator[Path]:
        """Every shard object file across every root, per-dir sorted."""
        for directory in self.object_dirs():
            if directory.is_dir():
                yield from sorted(directory.glob(f"*/*{_OBJECT_SUFFIX}"))

    def _root_down(self, index: int) -> bool:
        """Is this root's *infrastructure* gone (vs. one file missing)?

        The probe routes through the fsio guard so the chaos plane's
        ``root_down``/``flaky_root`` rules fire on it exactly as a real
        unmounted disk would surface, then checks the directory itself.
        A secondary root that has never been written is created on
        demand by the write path, so "directory missing" genuinely
        means lost.  The primary is different: it is created by the
        store's first write, so its absence means a store nothing was
        written to yet.
        """
        root = self._root_paths[index]
        try:
            fsio.guard("probe", root)
        except OSError:
            return True
        return index != 0 and not root.is_dir()

    # -- object storage ----------------------------------------------------

    def _object_path_at(self, index: int, digest: str) -> Path:
        return (
            self._root_paths[index] / "objects" / digest[:2]
            / f"{digest}{_OBJECT_SUFFIX}"
        )

    def _object_path(self, digest: str) -> Path:
        """Where writers put the digest now (its bucket's active root)."""
        bucket = PlacementManifest.bucket_of(digest)
        return self._object_path_at(self.placement.active_index(bucket), digest)

    def _candidate_paths(self, digest: str) -> list[Path]:
        """Everywhere the digest could legally live: the replica set
        first (primary, then rendezvous secondaries), then every other
        root (mid-move duplicates, crash leftovers, re-routed writes)."""
        order = self.placement.replica_order(PlacementManifest.bucket_of(digest))
        return [self._object_path_at(index, digest) for index in order]

    def replica_paths(self, digest: str) -> list[tuple[int, Path]]:
        """The (root index, path) pairs that must each hold a copy."""
        bucket = PlacementManifest.bucket_of(digest)
        return [
            (index, self._object_path_at(index, digest))
            for index in self.placement.replica_indices(bucket)
        ]

    def put_object(self, data: bytes) -> str:
        """Store shard bytes under their own digest; returns the digest.

        Safe under concurrent writers *and* crashes: each writes to a
        uniquely named temp file in the target directory, ``fsync``\\ s
        it, publishes it with an atomic :func:`os.replace`, and
        ``fsync``\\ s the directory (see
        :func:`repro.chaos.fsio.publish_bytes`), so a reader can never
        observe a partial shard and a published shard survives a power
        cut.  The first writer wins — a later writer of the same digest
        (same bytes, by content addressing) either skips the write or
        harmlessly replaces the file with identical content.

        The copy goes to the digest's full replica set.  The walk takes
        the rendezvous order: the first ``replicas`` *usable* roots get
        a copy — a root whose breaker is open, or whose publish fails,
        is skipped (and counted against its health) and the write
        re-routes to the next surviving root, so one dead root never
        reduces the number of live copies.  Any deficit in the *strict*
        replica set is enqueued for repair.  Raises only when no root
        at all accepted the bytes.
        """
        digest = hashlib.sha256(data).hexdigest()
        placement = self.placement
        bucket = PlacementManifest.bucket_of(digest)
        order = placement.replica_order(bucket)
        want = placement.effective_replicas()
        strict = set(placement.replica_indices(bucket))
        copies = 0
        last_error: OSError | None = None
        for index in order:
            if copies >= want:
                break
            path = self._object_path_at(index, digest)
            if path.exists():
                copies += 1
                continue
            if not self.health.available(index):
                last_error = last_error or OSError(
                    f"root {index} circuit breaker open"
                )
                continue
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fsio.publish_bytes(path, data, tmp_prefix=f".{digest[:12]}-")
            except OSError as exc:
                self.health.record_failure(index)
                last_error = exc
                continue
            self.health.record_ok(index)
            copies += 1
        if copies == 0:
            raise last_error if last_error is not None else OSError(
                f"no root accepted object {digest[:12]}…"
            )
        if copies < want or any(
            not self._object_path_at(index, digest).exists() for index in strict
        ):
            self.repair_queue.add_object(digest)
        return digest

    def get_object(self, digest: str) -> bytes:
        """Load shard bytes, re-verifying the content address.

        Every root is tried in replica order, skipping roots whose
        breaker is open, and the first copy whose bytes hash to the
        digest wins (and is copied back to any replica root that lost
        its own).  The scan starts at the bucket's *assigned* root, not
        a pending move's destination: a rebalance reaps the old home
        only after the copy landed, so a reader that finds the old home
        empty is sure to find the new one full.
        """
        corrupt: ShardError | None = None
        bucket = PlacementManifest.bucket_of(digest)
        order = self.placement.replica_order(bucket, self.placement.assign[bucket])
        for index in order:
            if not self.health.available(index):
                continue  # open breaker: the replica fallback serves us
            path = self._object_path_at(index, digest)
            try:
                data = fsio.read_bytes(path)
            except FileNotFoundError:
                # Ambiguous: a missing *object* on a healthy root is a
                # replica miss (read-repair's job); a missing *root* is
                # an infrastructure failure the breaker must see.
                if self._root_down(index):
                    self.health.record_failure(index)
                continue
            except OSError:
                self.health.record_failure(index)
                continue
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                # A rotted copy at one root must not mask a healthy one
                # at another; remember the defect, keep scanning.  The
                # root's I/O is fine — the breaker stays out of it.
                corrupt = ShardError(
                    ErrorKind.DECODE_ERROR, str(path), None,
                    f"content address mismatch: named {digest[:12]}…, "
                    f"bytes hash to {actual[:12]}…",
                )
                continue
            self.health.record_ok(index)
            self._read_repair(digest, data)
            return data
        if corrupt is not None:
            raise corrupt
        raise ShardError(
            ErrorKind.TRUNCATED_BODY, str(self._object_path(digest)), None,
            f"shard object missing from all {len(self._root_paths)} root(s)",
        )

    def _read_repair(self, digest: str, data: bytes) -> None:
        """Re-publish a digest-verified copy to any replica root that
        lost (or never got) its own — the read that discovered the
        damage is the cheapest moment to mend it.  Failures degrade to
        a repair-queue entry; the read itself already succeeded.
        """
        if self.placement.effective_replicas() <= 1:
            return
        for index, path in self.replica_paths(digest):
            if path.exists():
                continue
            if not self.health.available(index):
                self.repair_queue.add_object(digest)
                continue
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fsio.publish_bytes(path, data, tmp_prefix=f".{digest[:12]}-")
                self.health.record_ok(index)
            except OSError:
                self.health.record_failure(index)
                self.repair_queue.add_object(digest)

    # -- manifests ---------------------------------------------------------

    def _manifest_path(self, key: str) -> Path:
        return self.manifests_dir / f"{key}.json"

    def mirror_paths(self, key: str) -> list[tuple[int, Path]]:
        """Where one manifest's mirrors belong (rendezvous by key)."""
        return [
            (index, self._root_paths[index] / "manifests" / f"{key}.json")
            for index in self.placement.mirror_indices(key)
        ]

    @staticmethod
    def _read_manifest(path: Path) -> dict | None:
        """One manifest's payload, or None when it cannot be read or
        parsed — torn by a legacy writer, bit-rotted, or mid-flip under
        chaos.  The scrubber is where such files get diagnosed."""
        try:
            return json.loads(fsio.read_bytes(path).decode("utf-8"))
        except (OSError, ValueError):
            return None

    def _write_manifest(self, key: str, payload: dict) -> None:
        """Crash-consistently (re)write one manifest, then its mirrors.

        A reader sees the old version or the new one, never an
        interleaving — and after a crash, never a torn file (contents
        and directory are fsynced before and after the atomic rename).
        The primary copy alone feeds the manifest listing, so the
        service's store-state token (and therefore every ETag) never
        sees the mirrors.  Mirror failures degrade to a repair-queue
        entry: the manifest is live the moment the primary copy lands.
        """
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        fsio.publish_text(self._manifest_path(key), text, tmp_prefix=f".{key[:12]}-")
        for index, path in self.mirror_paths(key):
            if not self.health.available(index):
                self.repair_queue.add_manifest(key)
                continue
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fsio.publish_text(path, text, tmp_prefix=f".{key[:12]}-")
                self.health.record_ok(index)
            except OSError:
                self.health.record_failure(index)
                self.repair_queue.add_manifest(key)

    def _delete_manifest(self, key: str) -> None:
        """Retire one manifest (a completed streaming checkpoint) and
        its mirrors."""
        self._manifest_path(key).unlink(missing_ok=True)
        for _, path in self.mirror_paths(key):
            path.unlink(missing_ok=True)

    def lookup(self, key: str) -> dict | None:
        """Load a manifest by key, following generation-key aliases.

        A manifest that cannot be read or parsed is a cache miss, never
        an error.  A mirror is consulted only when the primary cannot
        produce the manifest: it is a disaster copy, not a second source
        of truth.
        """
        payload = self._read_manifest(self._manifest_path(key))
        if payload is None:
            for _, path in self.mirror_paths(key):
                payload = self._read_manifest(path)
                if payload is not None:
                    break
        if payload is None:
            return None
        ref = payload.get("ref")
        if ref is not None:
            return self.lookup(ref)
        return payload

    def _raw_manifests(self) -> Iterator[dict]:
        """Every parseable manifest payload, aliases and checkpoints included."""
        if not self.manifests_dir.is_dir():
            return
        for path in sorted(self.manifests_dir.glob("*.json")):
            payload = self._read_manifest(path)
            if payload is not None:
                yield payload

    def manifests(self) -> Iterator[dict]:
        """Every dataset manifest in the store.

        Generation-key aliases and streaming-checkpoint manifests are
        skipped: neither describes a finished analysis.
        """
        for payload in self._raw_manifests():
            if "ref" not in payload and payload.get("kind") != "checkpoint":
                yield payload

    def checkpoints(self) -> Iterator[dict]:
        """Every live streaming-checkpoint manifest (interrupted runs)."""
        for payload in self._raw_manifests():
            if payload.get("kind") == "checkpoint":
                yield payload

    def _orphan_mirrors(self) -> Iterator[tuple[Path, dict | None]]:
        """Mirror manifests whose primary copy is gone, each with its
        payload (None when it does not parse)."""
        mirror_dirs = self.manifest_dirs()[1:]
        if not mirror_dirs:
            return
        primary_keys = (
            {path.stem for path in self.manifests_dir.glob("*.json")}
            if self.manifests_dir.is_dir()
            else set()
        )
        for directory in mirror_dirs:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                if path.stem not in primary_keys:
                    yield path, self._read_manifest(path)

    # -- save / load -------------------------------------------------------

    def save_analysis(
        self,
        key: str,
        analysis: DatasetAnalysis,
        traces: DatasetTraces,
        trace_digests: list[str],
        gen_key: str | None = None,
        repair: dict | None = None,
    ) -> dict:
        """Shard a finished analysis and write its manifest.

        ``repair`` is an optional block of analysis parameters (error
        policy, known scanners, ingest knobs) recorded verbatim in the
        manifest; ``repro-study store repair`` uses it to re-derive
        damaged shards from the source traces (see
        :mod:`repro.store.scrub`).  Manifests without it are still
        scrubbed, just not repairable.
        """
        self.manifests_dir.mkdir(parents=True, exist_ok=True)
        name = analysis.name
        trace_entries, trace_shards, dataset_shard = shard_analysis(
            analysis, traces, trace_digests
        )
        for entry, data in zip(trace_entries, trace_shards):
            entry["shard"] = self.put_object(data)
        dataset_digest = self.put_object(dataset_shard)
        manifest = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "dataset": name,
            "traces": trace_entries,
            "dataset_shard": dataset_digest,
        }
        if repair is not None:
            manifest["repair"] = repair
        self._write_manifest(key, manifest)
        if gen_key is not None:
            self._write_manifest(gen_key, {"ref": key})
        return manifest

    def load_analysis(self, manifest: dict) -> CachedDataset:
        """Rebuild a :class:`DatasetAnalysis` from cached shards.

        Raises :class:`ShardError` on any corrupt, truncated, or missing
        shard — callers decide what the active error policy makes of it.
        """
        dataset_shard = decode_dataset_shard(
            self.get_object(manifest["dataset_shard"]),
            str(self._object_path(manifest["dataset_shard"])),
        )
        trace_shards = [
            decode_trace_shard(
                self.get_object(entry["shard"]),
                str(self._object_path(entry["shard"])),
            )
            for entry in manifest["traces"]
        ]
        return assemble_analysis(
            manifest["dataset"], manifest["traces"], trace_shards, dataset_shard
        )

    def load_or_none(
        self, manifest: dict, error_policy: ErrorPolicy | str
    ) -> CachedDataset | None:
        """Policy-aware load: strict raises on shard defects, the
        tolerant policies treat a damaged cache as a miss (the caller
        falls back to re-parsing the pcaps)."""
        try:
            return self.load_analysis(manifest)
        except ShardError:
            if ErrorPolicy.coerce(error_policy) is ErrorPolicy.STRICT:
                raise
            return None

    def sources_intact(self, manifest: dict, base_dir: Path | None) -> bool:
        """Check the manifest's trace files against the disk.

        With ``base_dir=None`` the pcaps were transient: the manifest is
        trusted (generation is deterministic by seed).  Otherwise every
        trace file still present must digest-match; a mutated file
        invalidates the cache, while deleted files are tolerated.
        """
        if base_dir is None:
            return True
        for entry in manifest["traces"]:
            path = base_dir / entry["file"]
            if path.exists() and self.file_digest(path) != entry["digest"]:
                return False
        return True

    # -- maintenance -------------------------------------------------------

    def referenced_objects(self) -> set[str]:
        """Digests referenced by at least one manifest.

        Live checkpoint manifests count: an interrupted streaming run's
        state and result-batch objects must survive a gc pass, or the
        run could never resume.  So do *mirror* manifests whose primary
        is gone: a crash window where only the mirror survives must not
        let gc eat the objects repair still needs.
        """
        referenced: set[str] = set()
        for payload in self._raw_manifests():
            referenced.update(manifest_refs(payload))
        for _, payload in self._orphan_mirrors():
            if payload is not None:
                referenced.update(manifest_refs(payload))
        return referenced

    def gc(
        self, dry_run: bool = False, tmp_grace_s: float = DEFAULT_TMP_GRACE
    ) -> GcReport:
        """Collect unreferenced shard objects and stale temp files.

        Returns a :class:`GcReport` with the removed digests and the
        bytes reclaimed.  With ``dry_run`` nothing is deleted — the
        report says what a real pass *would* reclaim.

        Safe against a live daemon: a ``.tmp`` whose mtime is younger
        than ``tmp_grace_s`` seconds is an in-flight publish, not
        debris, and is spared (counted in ``in_flight_tmp``).  Pass
        ``tmp_grace_s=0.0`` for the historical sweep-everything
        behavior on a store known to be quiescent.

        A replicated store also sweeps orphaned checkpoint mirrors:
        checkpoints are the one manifest kind that is legitimately
        *retired*, so a missing primary means "done", not "lost".  Any
        other orphan mirror is a disaster copy — ``repair --replicas``
        restores the primary from it, so gc must not eat it.
        """
        referenced = self.referenced_objects()
        removed: list[str] = []
        stale_tmp = 0
        in_flight = 0
        reclaimed = 0
        now = time.time()
        for path in self._object_files():
            digest = path.stem
            if digest not in referenced:
                reclaimed += path.stat().st_size
                if not dry_run:
                    path.unlink()
                removed.append(digest)
        # Temp files survive a publish only when its writer crashed —
        # or when the writer is alive and mid-flight right now, which
        # only the file's age can distinguish.
        for base in (*self.object_dirs(), *self.manifest_dirs(), self.root / DAEMON_DIR):
            if not base.is_dir():
                continue
            for path in sorted(base.rglob(f"*{_TMP_SUFFIX}")):
                try:
                    stat = path.stat()
                except FileNotFoundError:
                    continue  # published (renamed away) mid-walk
                if tmp_grace_s > 0 and now - stat.st_mtime < tmp_grace_s:
                    in_flight += 1
                    continue
                stale_tmp += 1
                reclaimed += stat.st_size
                if not dry_run:
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        pass
        if not dry_run:
            for directory in self.object_dirs():
                if not directory.is_dir():
                    continue
                for bucket in sorted(directory.iterdir()):
                    if bucket.is_dir() and not any(bucket.iterdir()):
                        bucket.rmdir()
        orphans = 0
        for path, payload in self._orphan_mirrors():
            if payload is not None and payload.get("kind") != "checkpoint":
                continue
            orphans += 1
            if not dry_run:
                path.unlink(missing_ok=True)
        return GcReport(
            removed=tuple(removed),
            stale_tmp=stale_tmp,
            reclaimed_bytes=reclaimed,
            dry_run=dry_run,
            in_flight_tmp=in_flight,
            orphan_mirrors=orphans,
        )

    def stats(self) -> dict:
        """Store-wide accounting for ``repro-study store ls`` and ``/health``."""
        objects = list(self._object_files())
        return {
            "root": str(self.root),
            "manifests": sum(1 for _ in self.manifests()),
            "objects": len(objects),
            "bytes": sum(path.stat().st_size for path in objects),
            "tier": self.tier_status(),
        }

    # -- placement ---------------------------------------------------------

    def add_root(self, spec: str) -> None:
        """Declare a new root (no data moves until :meth:`rebalance`).

        This writes the placement manifest, so a store that had none
        records its placement from here on."""
        if spec in self.placement.roots:
            raise ValueError(f"root {spec!r} already declared")
        self.placement.roots.append(spec)
        self.root.mkdir(parents=True, exist_ok=True)
        self.placement.save(self.root)
        self._root_paths = self.placement.resolve_roots(self.root)
        self.health.add_root()

    def _bucket_files(self, bucket: str) -> list[tuple[int, Path]]:
        """(root index, path) of every object file in one bucket."""
        found: list[tuple[int, Path]] = []
        for index, root in enumerate(self._root_paths):
            objects = root / "objects"
            if not objects.is_dir():
                continue
            for prefix_dir in sorted(objects.iterdir()):
                if not prefix_dir.is_dir() or not prefix_dir.name.startswith(bucket):
                    continue
                for path in sorted(prefix_dir.glob(f"*{_OBJECT_SUFFIX}")):
                    found.append((index, path))
        return found

    def rebalance(self, max_buckets: int | None = None) -> RebalanceReport:
        """Move buckets toward the leveled placement, incrementally.

        Per bucket: record the move cursor, copy every object to the
        destination root (crash-consistent publishes; already-present
        copies are skipped, corrupt sources are left for scrub), flip
        the assignment in one atomic manifest write, then delete the
        now-duplicate source copies.  Readers are never blocked: until
        the flip they find objects at the old home, after it at the
        new one, and the any-root fallback covers every interleaving a
        crash can produce.  ``max_buckets`` bounds one pass so the
        rebalance can run as a background increment.
        """
        placement = self.placement
        target = placement.balanced_assign()
        todo = [
            bucket for bucket in BUCKETS
            if bucket in placement.moving or placement.assign[bucket] != target[bucket]
        ]
        limit = len(todo) if max_buckets is None else max(0, max_buckets)
        moved: list[str] = []
        copied = deleted = bytes_copied = 0
        for bucket in todo[:limit]:
            dest = placement.moving.get(bucket, target[bucket])
            if dest != placement.assign[bucket]:
                if placement.moving.get(bucket) != dest:
                    placement.moving[bucket] = dest
                    placement.save(self.root)
                # Populate the *entire* post-flip replica set, not just
                # the new primary — a move must never shrink redundancy.
                want = placement.replica_indices(bucket, primary=dest)
                for index, path in self._bucket_files(bucket):
                    data: bytes | None = None
                    for dest_index in want:
                        if dest_index == index:
                            continue
                        target_path = (
                            self._root_paths[dest_index] / "objects"
                            / path.parent.name / path.name
                        )
                        if target_path.exists():
                            continue
                        if data is None:
                            data = fsio.read_bytes(path)
                            if hashlib.sha256(data).hexdigest() != path.stem:
                                data = b""  # rotted source: scrub's problem
                        if not data:
                            continue
                        target_path.parent.mkdir(parents=True, exist_ok=True)
                        fsio.publish_bytes(
                            target_path, data, tmp_prefix=f".{path.stem[:12]}-"
                        )
                        copied += 1
                        bytes_copied += len(data)
                placement.assign[bucket] = dest
            placement.moving.pop(bucket, None)
            placement.save(self.root)  # the atomic flip
            moved.append(bucket)
            # Reap copies outside the replica set — and any crash-
            # orphaned duplicates — only after the flip is durable and
            # every replica-set copy of the file exists.
            keep = set(placement.replica_indices(bucket))
            for index, path in self._bucket_files(bucket):
                if index in keep:
                    continue
                replicated = all(
                    (
                        self._root_paths[keep_index] / "objects"
                        / path.parent.name / path.name
                    ).exists()
                    for keep_index in keep
                )
                if replicated:
                    path.unlink(missing_ok=True)
                    deleted += 1
        pending = tuple(placement.misplaced())
        return RebalanceReport(
            moved=tuple(moved),
            copied=copied,
            bytes_copied=bytes_copied,
            deleted=deleted,
            pending=pending,
        )

    # -- accounting --------------------------------------------------------

    def tier_status(self) -> dict:
        """Everything ``store tier status`` and ``/health`` report.

        A missing or unreadable root is *reported*, never raised: status
        is the tool an operator reaches for when a disk just died, so it
        must work hardest exactly when a root is gone.  Such a root
        shows ``"status": "down"`` with zeroed counts.
        """
        health = self.health.status()
        roots = []
        for index, root in enumerate(self._root_paths):
            entry = {
                "index": index,
                "path": str(root),
                "spec": self.placement.roots[index],
                "buckets": sum(
                    1 for b in BUCKETS if self.placement.assign[b] == index
                ),
                "objects": 0,
                "bytes": 0,
                "status": "ok",
                "health": health[index],
            }
            try:
                objects = root / "objects"
                if self._root_down(index):
                    entry["status"] = "down"
                elif objects.is_dir():
                    files = list(objects.glob(f"*/*{_OBJECT_SUFFIX}"))
                    entry["objects"] = len(files)
                    entry["bytes"] = sum(
                        path.stat().st_size for path in files
                    )
            except OSError:
                entry["status"] = "down"
                entry["objects"] = 0
                entry["bytes"] = 0
            roots.append(entry)
        queued_objects, queued_manifests = self.repair_queue.snapshot()
        return {
            "roots": roots,
            "assign": {b: self.placement.assign[b] for b in BUCKETS},
            "moving": dict(self.placement.moving),
            "misplaced": list(self.placement.misplaced()),
            "replicas": self.placement.replicas,
            "effective_replicas": self.placement.effective_replicas(),
            "under_replicated": {
                "objects": len(queued_objects),
                "manifests": len(queued_manifests),
            },
        }

    # -- replica repair ----------------------------------------------------

    def repair_replicas(self, sweep: bool = True) -> ReplicaRepairReport:
        """Drain the repair queue back to full redundancy.

        With ``sweep`` (the default) every object and manifest in the
        store is checked too — the queue is a hint, not a ledger, and a
        deficit created while no process was alive to notice (an
        operator's ``rm -rf``, a store initialized at R=1 and raised to
        R=2) is only visible to a sweep.  Copies are made strictly from
        digest-verified bytes, so repair can never change a content
        address — it only raises the number of roots holding it.
        """
        report = ReplicaRepairReport()
        placement = self.placement
        want = placement.effective_replicas()
        queued_objects, queued_manifests = self.repair_queue.snapshot()
        digests = set(queued_objects)
        keys = set(queued_manifests)
        if sweep:
            for directory in self.object_dirs():
                if not directory.is_dir():
                    continue
                for path in directory.glob(f"*/*{_OBJECT_SUFFIX}"):
                    digests.add(path.stem)
            for directory in self.manifest_dirs():
                if not directory.is_dir():
                    continue
                for path in directory.glob("*.json"):
                    keys.add(path.stem)
        repaired: set[str] = set()
        for digest in sorted(digests):
            data: bytes | None = None
            for path in self._candidate_paths(digest):
                try:
                    blob = fsio.read_bytes(path)
                except OSError:
                    continue
                if hashlib.sha256(blob).hexdigest() == digest:
                    data = blob
                    break
            if data is None:
                report.failed.append(digest)
                continue
            wrote = 0
            short = False
            for index, path in self.replica_paths(digest):
                if path.exists():
                    continue
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    fsio.publish_bytes(
                        path, data, tmp_prefix=f".{digest[:12]}-"
                    )
                    self.health.record_ok(index)
                    wrote += 1
                except OSError:
                    self.health.record_failure(index)
                    short = True
            if short:
                report.failed.append(digest)
                continue
            if wrote:
                report.objects_restored += 1
                report.copies_written += wrote
            repaired.add(digest)
        repaired_manifests: set[str] = set()
        for key in sorted(keys):
            if self._repair_manifest(key, want, report):
                repaired_manifests.add(key)
        self.repair_queue.discard(
            objects=repaired & set(queued_objects),
            manifests=repaired_manifests & set(queued_manifests),
        )
        report.remaining = len(self.repair_queue)
        return report

    def _repair_manifest(
        self, key: str, want: int, report: ReplicaRepairReport
    ) -> bool:
        """Bring one manifest back to primary + R-1 identical mirrors."""
        primary = self._manifest_path(key)
        try:
            text = fsio.read_bytes(primary).decode("utf-8")
        except OSError:
            text = None
        if text is None:
            # The primary is gone: restore it from a mirror.  Checkpoint
            # mirrors are skipped — a checkpoint whose primary vanished
            # was *retired* by the checkpointer, and repair must not
            # resurrect it (same rule gc's orphan sweep applies).
            for _, path in self.mirror_paths(key):
                try:
                    blob = fsio.read_bytes(path).decode("utf-8")
                    payload = json.loads(blob)
                except (OSError, ValueError):
                    continue
                if payload.get("kind") == "checkpoint":
                    return True  # retired, nothing to restore
                text = blob
                break
            if text is None:
                report.failed.append(f"manifest:{key}")
                return False
            try:
                fsio.publish_text(primary, text, tmp_prefix=f".{key[:12]}-")
                report.manifests_mirrored += 1
            except OSError:
                report.failed.append(f"manifest:{key}")
                return False
        if want <= 1:
            return True
        short = False
        for index, path in self.mirror_paths(key):
            try:
                current = fsio.read_bytes(path).decode("utf-8")
            except OSError:
                current = None
            if current == text:
                continue
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fsio.publish_text(path, text, tmp_prefix=f".{key[:12]}-")
                self.health.record_ok(index)
                report.manifests_mirrored += 1
            except OSError:
                self.health.record_failure(index)
                short = True
        if short:
            report.failed.append(f"manifest:{key}")
        return not short
