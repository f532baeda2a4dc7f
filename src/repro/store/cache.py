"""The content-addressed connection-record store.

Layout on disk::

    <root>/
      objects/<aa>/<digest>.rcs     # shards, named by the SHA-256 of
                                    # their own bytes (content-addressed)
      manifests/<key>.json          # content key -> dataset manifest
      manifests/<gen-key>.json      # generation key -> {"ref": content key}

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
defect surfaces as a :class:`~repro.store.shard.ShardError` carrying the
PR-1 taxonomy so callers can apply strict/tolerant policy decisions.
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
    #: (tiered stores with replication only; always 0 on a flat store).
    orphan_mirrors: int = 0


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
    """A content-addressed store of analyzed connection records."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifests_dir = self.root / "manifests"

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

    # -- multi-root hooks --------------------------------------------------
    #
    # Everything that walks the object tree (gc, stats, scrub) goes
    # through these three, so a tiered store (repro.store.tier) can
    # spread objects over several roots by overriding them alone.  The
    # flat store's answers keep it byte-identical to its historical
    # single-directory behavior.

    def roots(self) -> list[Path]:
        """Every filesystem root holding store files (primary first)."""
        return [self.root]

    def object_dirs(self) -> list[Path]:
        """Every ``objects/`` directory, one per root."""
        return [self.objects_dir]

    def owning_root(self, path: Path) -> Path:
        """The root one store file lives under (quarantine stays on the
        same filesystem as the damage it removes)."""
        return self.root

    def manifest_dirs(self) -> list[Path]:
        """Every directory holding manifest files (primary first; a
        replicated tiered store adds its mirror directories)."""
        return [self.manifests_dir]

    def _object_files(self) -> Iterator[Path]:
        """Every shard object file across every root, per-dir sorted."""
        for directory in self.object_dirs():
            if directory.is_dir():
                yield from sorted(directory.glob(f"*/*{_OBJECT_SUFFIX}"))

    # -- object storage ----------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}{_OBJECT_SUFFIX}"

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
        """
        digest = hashlib.sha256(data).hexdigest()
        path = self._object_path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            fsio.publish_bytes(path, data, tmp_prefix=f".{digest[:12]}-")
        return digest

    def get_object(self, digest: str) -> bytes:
        """Load shard bytes, re-verifying the content address."""
        path = self._object_path(digest)
        try:
            data = fsio.read_bytes(path)
        except FileNotFoundError:
            raise ShardError(
                ErrorKind.TRUNCATED_BODY, str(path), None, "shard object missing"
            ) from None
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise ShardError(
                ErrorKind.DECODE_ERROR, str(path), None,
                f"content address mismatch: named {digest[:12]}…, "
                f"bytes hash to {actual[:12]}…",
            )
        return data

    # -- manifests ---------------------------------------------------------

    def _manifest_path(self, key: str) -> Path:
        return self.manifests_dir / f"{key}.json"

    def _write_manifest(self, key: str, payload: dict) -> None:
        """Crash-consistently (re)write one manifest: a reader sees the
        old version or the new one, never an interleaving — and after a
        crash, never a torn file (contents and directory are fsynced
        before and after the atomic rename)."""
        path = self._manifest_path(key)
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        fsio.publish_text(path, text, tmp_prefix=f".{key[:12]}-")

    def _delete_manifest(self, key: str) -> None:
        """Retire one manifest (a completed streaming checkpoint).  A
        replicated tiered store also drops the mirrors here."""
        self._manifest_path(key).unlink(missing_ok=True)

    def lookup(self, key: str) -> dict | None:
        """Load a manifest by key, following generation-key aliases.

        A manifest that cannot be read or parsed — torn by a legacy
        writer, bit-rotted, or mid-flip under chaos — is treated as a
        cache miss, never an error; the scrubber is where such files
        get diagnosed and quarantined.
        """
        path = self._manifest_path(key)
        try:
            payload = json.loads(fsio.read_bytes(path).decode("utf-8"))
        except (OSError, ValueError):
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
            try:
                payload = json.loads(fsio.read_bytes(path).decode("utf-8"))
            except (OSError, ValueError):
                continue
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
        run could never resume.
        """
        referenced: set[str] = set()
        for manifest in self.manifests():
            referenced.add(manifest["dataset_shard"])
            referenced.update(entry["shard"] for entry in manifest["traces"])
        for checkpoint in self.checkpoints():
            referenced.add(checkpoint["state"])
            referenced.update(checkpoint.get("batches", ()))
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
        return GcReport(
            removed=tuple(removed),
            stale_tmp=stale_tmp,
            reclaimed_bytes=reclaimed,
            dry_run=dry_run,
            in_flight_tmp=in_flight,
        )

    def stats(self) -> dict:
        """Store-wide accounting for ``repro-study store ls``."""
        objects = list(self._object_files())
        return {
            "root": str(self.root),
            "manifests": sum(1 for _ in self.manifests()),
            "objects": len(objects),
            "bytes": sum(path.stat().st_size for path in objects),
        }
