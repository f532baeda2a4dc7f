"""Store scrub-and-repair: find damage, quarantine it, re-derive shards.

The store's readers already *survive* corruption — content addresses and
CRC footers turn any flipped bit into a :class:`~repro.store.shard.ShardError`
at load time, and the tolerant policies fall back to a cold re-parse.
What they cannot do is *fix* the store: a damaged shard stays on disk,
poisoning every future warm start of its dataset.  This module closes
that loop with two offline passes:

**Scrub** (:class:`StoreScrubber.scrub`) walks every shard object and
every manifest.  An object whose bytes no longer hash to its own name,
or whose RCS1 frame fails to verify, is *quarantined*: moved out of the
objects tree into ``<root>/quarantine/<error-kind>/`` (the PR-1
:class:`~repro.analysis.errors.ErrorKind` taxonomy names the
subdirectory) next to a JSON sidecar recording what was wrong.  An
unparseable manifest is quarantined the same way.  Manifests that parse
but reference objects which are missing — or were just quarantined —
are reported as damaged; checkpoint manifests whose state shard is gone
are unresumable and quarantined outright.  Stale ``.tmp`` files are
counted (informationally; ``store gc`` removes them).

**Repair** (:class:`StoreScrubber.repair`) re-derives damaged dataset
manifests from their source traces.  Every analysis manifest written by
the study carries a ``repair`` block (error policy, known scanners,
engine configuration) — combined with the per-trace window metadata the
manifest already holds, that is the complete recipe to re-run the
analysis pipeline over the original pcaps.  Because both the pipeline
and the shard encoding are deterministic, a successful repair
republishes byte-identical objects under the *same* content addresses
the manifest expected — verifiable, not merely plausible.  Traces that
are missing or no longer digest-match make a manifest unrepairable; it
stays in place (its healthy shards remain loadable by tolerant readers)
and is reported.

Layout after a quarantine::

    <root>/quarantine/
      decode_error/<digest>.rcs        # bytes that no longer match
      decode_error/<digest>.rcs.json   # {"kind", "detail", "source", ...}
      bad_magic/<key>.json             # a manifest that failed to parse
      bad_magic/<key>.json.json

Nothing in here imports the analysis pipeline at module scope — repair
resolves :func:`repro.core.study.analyze_dataset` lazily, keeping the
store package import-light.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.errors import ErrorKind
from ..chaos import fsio
from ..gen.capture import DatasetTraces, TapWindow, Trace
from ..gen.datasets import DATASETS
from .cache import (
    ConnStore,
    DAEMON_DIR,
    DEFAULT_TMP_GRACE,
    _OBJECT_SUFFIX,
    _TMP_SUFFIX,
)
from .shard import ShardError, decode_shard

__all__ = ["ScrubFinding", "ScrubReport", "RepairOutcome", "StoreScrubber"]

#: Subdirectory of the store root holding quarantined files.
QUARANTINE_DIR = "quarantine"


@dataclass(frozen=True)
class ScrubFinding:
    """One damaged file the scrubber met."""

    #: PR-1 taxonomy value naming the defect (``decode_error``, ...).
    kind: str
    #: The damaged file, relative to the store root.
    path: str
    #: What exactly was wrong.
    detail: str
    #: Where the file went, relative to the store root ("" = left in place).
    quarantined_to: str = ""


@dataclass
class ScrubReport:
    """Everything one scrub pass established about the store."""

    objects_checked: int = 0
    manifests_checked: int = 0
    #: Corrupt shard objects (quarantined).
    corrupt_objects: list[ScrubFinding] = field(default_factory=list)
    #: Manifests that failed to parse (quarantined).
    corrupt_manifests: list[ScrubFinding] = field(default_factory=list)
    #: Parseable manifests referencing missing objects: key -> digests.
    missing_refs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Checkpoint manifests whose state shard is gone (quarantined).
    dead_checkpoints: list[ScrubFinding] = field(default_factory=list)
    #: Stale temp files seen (informational; ``store gc`` removes them).
    stale_tmp: int = 0
    #: Young temp files inside the grace period — a live writer's
    #: in-flight publishes, not damage.
    in_flight_tmp: int = 0
    #: The store's replica target (1 for flat / unreplicated stores).
    replica_target: int = 1
    #: Objects short of the target: digest -> verified copies found.
    under_replicated: dict[str, int] = field(default_factory=dict)
    #: Manifests short of mirrors: key -> identical copies found.
    under_replicated_manifests: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the store is fully healthy."""
        return not (
            self.corrupt_objects
            or self.corrupt_manifests
            or self.missing_refs
            or self.dead_checkpoints
            or self.under_replicated
            or self.under_replicated_manifests
        )

    @property
    def quarantined(self) -> int:
        """Files moved into the quarantine tree by this pass."""
        return sum(
            1
            for finding in (
                self.corrupt_objects + self.corrupt_manifests + self.dead_checkpoints
            )
            if finding.quarantined_to
        )

    def render(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            f"scrubbed {self.objects_checked} objects, "
            f"{self.manifests_checked} manifests: "
            + ("clean" if self.ok else "DAMAGED")
        ]
        for finding in self.corrupt_objects + self.corrupt_manifests:
            verb = "quarantined" if finding.quarantined_to else "corrupt"
            lines.append(
                f"  {verb} {finding.path} ({finding.kind}): {finding.detail}"
            )
        for key, digests in sorted(self.missing_refs.items()):
            lines.append(
                f"  manifest {key[:12]}… missing {len(digests)} referenced "
                f"object(s): {', '.join(digest[:12] + '…' for digest in digests)}"
            )
        for finding in self.dead_checkpoints:
            verb = "quarantined" if finding.quarantined_to else "found"
            lines.append(
                f"  {verb} unresumable checkpoint {finding.path}: "
                f"{finding.detail}"
            )
        for digest, copies in sorted(self.under_replicated.items()):
            lines.append(
                f"  under-replicated object {digest[:12]}…: {copies}/"
                f"{self.replica_target} cop{'y' if copies == 1 else 'ies'} "
                "(run `store repair --replicas`)"
            )
        for key, copies in sorted(self.under_replicated_manifests.items()):
            lines.append(
                f"  under-replicated manifest {key[:12]}…: {copies}/"
                f"{self.replica_target} cop{'y' if copies == 1 else 'ies'} "
                "(run `store repair --replicas`)"
            )
        if self.stale_tmp:
            lines.append(
                f"  {self.stale_tmp} stale temp file(s) (run `store gc`)"
            )
        if self.in_flight_tmp:
            lines.append(
                f"  {self.in_flight_tmp} in-flight temp file(s) "
                "(live writer; left alone)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class RepairOutcome:
    """What happened to one damaged manifest during repair."""

    key: str
    dataset: str
    repaired: bool
    #: Digests republished (all under their original content addresses).
    restored: tuple[str, ...] = ()
    reason: str = ""


class StoreScrubber:
    """Offline integrity walker and repairer for one :class:`ConnStore`."""

    def __init__(self, store: ConnStore) -> None:
        self.store = store
        self.quarantine_root = store.root / QUARANTINE_DIR

    # -- quarantine --------------------------------------------------------

    def _quarantine(self, path: Path, kind: str, detail: str) -> str:
        """Move one damaged file under the quarantine tree + sidecar.

        Returns the destination relative to the file's *owning root* —
        on a tiered store, damage at a secondary root is quarantined
        into that root's own ``quarantine/`` tree, keeping the move a
        same-filesystem rename (which cannot itself tear); the sidecar
        records provenance for a human (or a later forensic pass).
        """
        owner = self.store.owning_root(path)
        target_dir = owner / QUARANTINE_DIR / kind
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        os.replace(path, target)
        if path.name.endswith(_OBJECT_SUFFIX):
            # A quarantined shard must also leave the hot tier — cached
            # bytes for a digest the store just disowned would keep
            # serving after the disk copy is gone.
            hot = getattr(self.store, "hot", None)
            if hot is not None:
                hot.invalidate(path.stem)
        sidecar = {
            "kind": kind,
            "detail": detail,
            "source": str(path.relative_to(owner)),
        }
        target.with_name(target.name + ".json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        return str(target.relative_to(owner))

    # -- scrub -------------------------------------------------------------

    def _check_object(self, path: Path) -> ShardError | None:
        """Verify one shard object's content address and RCS1 frame."""
        digest = path.stem
        try:
            data = fsio.read_bytes(path)
        except OSError as exc:
            return ShardError(
                ErrorKind.TRUNCATED_BODY, str(path), None, f"unreadable: {exc}"
            )
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            return ShardError(
                ErrorKind.DECODE_ERROR, str(path), None,
                f"content address mismatch: named {digest[:12]}…, "
                f"bytes hash to {actual[:12]}…",
            )
        try:
            decode_shard(data, str(path))
        except ShardError as exc:
            return exc
        return None

    def scrub(
        self,
        quarantine: bool = True,
        tmp_grace_s: float = DEFAULT_TMP_GRACE,
    ) -> ScrubReport:
        """Walk the whole store; optionally quarantine what is damaged.

        With ``quarantine=False`` this is a pure audit — nothing moves,
        the report just says what *would* be quarantined.  Temp files
        younger than ``tmp_grace_s`` seconds are reported as in-flight
        (a live daemon's publishes), not stale — same rule as
        :meth:`ConnStore.gc`.
        """
        store = self.store
        report = ScrubReport()
        placement = getattr(store, "placement", None)
        report.replica_target = (
            placement.effective_replicas() if placement is not None else 1
        )
        # Pass 1: every shard object self-verifies (across every root —
        # a tiered store's secondary roots are walked the same way).
        # Verified copies are *counted* per digest so the report can
        # name every object short of the replica target.
        copies: dict[str, int] = {}
        present: set[str] = set()
        for path in store._object_files():
            report.objects_checked += 1
            error = self._check_object(path)
            if error is None:
                present.add(path.stem)
                copies[path.stem] = copies.get(path.stem, 0) + 1
                continue
            kind = error.kind.value
            rel = str(path.relative_to(store.owning_root(path)))
            destination = (
                self._quarantine(path, kind, error.detail) if quarantine else ""
            )
            report.corrupt_objects.append(
                ScrubFinding(kind, rel, error.detail, destination)
            )
        if report.replica_target > 1:
            report.under_replicated = {
                digest: count
                for digest, count in sorted(copies.items())
                if count < report.replica_target
            }
        # Pass 2: every manifest parses and its references resolve; on a
        # replicated store each must also have byte-identical mirrors.
        if store.manifests_dir.is_dir():
            for path in sorted(store.manifests_dir.glob("*.json")):
                report.manifests_checked += 1
                rel = str(path.relative_to(store.root))
                try:
                    text = fsio.read_bytes(path).decode("utf-8")
                    payload = json.loads(text)
                    if not isinstance(payload, dict):
                        raise ValueError(f"not a JSON object: {type(payload).__name__}")
                except (OSError, ValueError) as exc:
                    kind = ErrorKind.DECODE_ERROR.value
                    destination = (
                        self._quarantine(path, kind, str(exc)) if quarantine else ""
                    )
                    report.corrupt_manifests.append(
                        ScrubFinding(kind, rel, str(exc), destination)
                    )
                    continue
                if report.replica_target > 1:
                    found = 1 + sum(
                        1
                        for _, mirror in store.mirror_paths(path.stem)
                        if self._mirror_matches(mirror, text)
                    )
                    if found < report.replica_target:
                        report.under_replicated_manifests[path.stem] = found
                if "ref" in payload:
                    continue  # gen-key alias: nothing to resolve here
                missing = tuple(
                    digest
                    for digest in self._referenced(payload)
                    if digest not in present
                )
                if not missing:
                    continue
                if payload.get("kind") == "checkpoint" and payload["state"] in missing:
                    # Without its state shard the checkpoint can never
                    # resume; keeping the manifest would pin dead batch
                    # objects through every future gc.
                    detail = f"state shard {payload['state'][:12]}… missing"
                    destination = (
                        self._quarantine(path, ErrorKind.TRUNCATED_BODY.value, detail)
                        if quarantine
                        else ""
                    )
                    report.dead_checkpoints.append(
                        ScrubFinding(
                            ErrorKind.TRUNCATED_BODY.value, rel, detail, destination
                        )
                    )
                    continue
                report.missing_refs[payload.get("key", path.stem)] = missing
        # Pass 3: count (never touch) temp files from crashed writers,
        # splitting out a live writer's in-flight publishes by age.
        now = time.time()
        for base in (*store.object_dirs(), *store.manifest_dirs(), store.root / DAEMON_DIR):
            if not base.is_dir():
                continue
            for path in base.rglob(f"*{_TMP_SUFFIX}"):
                try:
                    mtime = path.stat().st_mtime
                except FileNotFoundError:
                    continue  # published (renamed away) mid-walk
                if tmp_grace_s > 0 and now - mtime < tmp_grace_s:
                    report.in_flight_tmp += 1
                else:
                    report.stale_tmp += 1
        return report

    @staticmethod
    def _mirror_matches(path: Path, text: str) -> bool:
        """Does one mirror hold exactly the primary's bytes?"""
        try:
            return fsio.read_bytes(path).decode("utf-8") == text
        except (OSError, UnicodeDecodeError):
            return False

    @staticmethod
    def _referenced(payload: dict) -> tuple[str, ...]:
        """Every object digest one manifest payload references."""
        if payload.get("kind") == "checkpoint":
            return (payload["state"], *payload.get("batches", ()))
        digests = [payload["dataset_shard"]] if "dataset_shard" in payload else []
        digests.extend(entry["shard"] for entry in payload.get("traces", ()))
        return tuple(digests)

    # -- repair ------------------------------------------------------------

    def repair(self, traces_dir: str | Path | None = None) -> list[RepairOutcome]:
        """Re-derive every damaged dataset manifest from source traces.

        Runs a quarantining scrub first (repairing around a corrupt
        object requires it out of the way), then, for each analysis
        manifest with missing shards, replays the recorded analysis
        recipe over the original pcaps under ``traces_dir``.  The
        pipeline is deterministic, so the republished objects land on
        exactly the content addresses the manifest already names — the
        repair is self-verifying.
        """
        from ..analysis.engine import StreamConfig
        from ..core.study import analyze_dataset  # lazy: avoids a package cycle

        report = self.scrub(quarantine=True)
        outcomes: list[RepairOutcome] = []
        base = Path(traces_dir) if traces_dir is not None else None
        for key, missing in sorted(report.missing_refs.items()):
            manifest = self.store.lookup(key)
            if manifest is None or "dataset" not in manifest:
                outcomes.append(
                    RepairOutcome(key, "?", False, reason="manifest unreadable")
                )
                continue
            name = manifest["dataset"]
            recipe = manifest.get("repair")
            if recipe is None:
                outcomes.append(
                    RepairOutcome(
                        key, name, False,
                        reason="manifest predates repair metadata",
                    )
                )
                continue
            traces, problem = self._rebuild_traces(manifest, base)
            if traces is None:
                outcomes.append(RepairOutcome(key, name, False, reason=problem))
                continue
            engine_config = recipe.get("engine_config")
            analysis = analyze_dataset(
                name,
                traces,
                known_scanners=tuple(recipe.get("known_scanners", ())),
                error_policy=recipe.get("error_policy", "strict"),
                store=None,  # compute fresh; publication happens below
                stream=StreamConfig(**engine_config) if engine_config else None,
            )
            digests = [entry["digest"] for entry in manifest["traces"]]
            rebuilt = self.store.save_analysis(
                key, analysis, traces, digests, repair=recipe
            )
            restored = tuple(
                digest for digest in self._referenced(rebuilt) if digest in missing
            )
            still_missing = set(missing) - set(self._referenced(rebuilt))
            if still_missing:
                outcomes.append(
                    RepairOutcome(
                        key, name, False, restored=restored,
                        reason=(
                            "re-derived shards landed on different content "
                            f"addresses ({len(still_missing)} unmatched) — "
                            "source traces no longer produce this analysis"
                        ),
                    )
                )
            else:
                outcomes.append(RepairOutcome(key, name, True, restored=restored))
        return outcomes

    def _rebuild_traces(
        self, manifest: dict, base: Path | None
    ) -> tuple[DatasetTraces | None, str]:
        """Reconstruct a :class:`DatasetTraces` over the on-disk pcaps.

        Every trace file must exist under ``base`` and digest-match its
        manifest entry — repairing from mutated sources would publish
        wrong bytes under right-looking names.
        """
        name = manifest["dataset"]
        if name not in DATASETS:
            return None, f"unknown dataset {name!r}"
        traces = DatasetTraces(config=DATASETS[name])
        for entry in manifest["traces"]:
            path = (base / entry["file"]) if base is not None else Path(entry["file"])
            if not path.exists():
                return None, f"source trace {entry['file']} missing"
            if ConnStore.file_digest(path) != entry["digest"]:
                return None, f"source trace {entry['file']} no longer digest-matches"
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
                    path=path,
                    packet_count=entry["packet_count"],
                    snaplen=entry["snaplen"],
                )
            )
        return traces, ""
