"""Root health: per-root circuit breakers and the repair queue.

A store's roots are independent failure domains — a dying disk
returns EIO for every read, an unmounted one ENOENT for everything.
Retrying a dead root on every object would turn one hardware fault into
a latency fault for every query, so each root gets a classic circuit
breaker:

* **closed** — healthy.  Every I/O result feeds the breaker: a success
  resets the failure streak, ``failure_threshold`` *consecutive*
  failures open it.
* **open** — reads skip the root entirely (the replica fallback serves
  them), writes re-route to surviving roots and enqueue the object for
  repair.  Nothing touches the root until ``cooldown_s`` elapses.
* **half-open** — after the cooldown, the next operation is let through
  as a probe.  Success closes the breaker; failure re-opens it for
  another cooldown.

Only *infrastructure* failures count: a missing object file on a
healthy root is a routine replica miss (read-repair's job), never a
breaker event.  Callers decide which is which — see
``ConnStore._root_down``.

:class:`UnderReplicatedQueue` is the durable half: every object or
manifest that could not reach its full replica set is recorded in
``under-replicated.json`` at the primary root (published through the
crash-consistent fsio seam), and ``store repair --replicas`` drains it
back to full redundancy.  The queue is a *hint*, not a ledger — repair
also sweeps the store, so a lost queue entry costs one sweep, never an
object.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ...chaos import fsio
from .placement import DEFAULT_COOLDOWN_S, DEFAULT_FAILURE_THRESHOLD

__all__ = [
    "RootHealth",
    "HealthTracker",
    "UnderReplicatedQueue",
    "ReplicaRepairReport",
    "QUEUE_FILE",
]

#: Filename of the repair queue at the primary root.
QUEUE_FILE = "under-replicated.json"


class RootHealth:
    """Breaker state for one root (guarded by the tracker's lock)."""

    __slots__ = ("streak", "state", "opened_at", "failures", "successes")

    def __init__(self) -> None:
        self.streak = 0
        self.state = "closed"  # closed | open | half_open
        self.opened_at = 0.0
        self.failures = 0
        self.successes = 0

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "streak": self.streak,
            "failures": self.failures,
            "successes": self.successes,
        }


class HealthTracker:
    """Per-root circuit breakers for one store's root list.

    Thread-safe (the store sits under the multi-threaded HTTP service);
    in-process only by design — a fresh process starts with every
    breaker closed and re-learns a dead root within
    ``failure_threshold`` operations, which is cheaper than trusting a
    stale verdict about hardware that may have been replaced.
    """

    def __init__(
        self,
        count: int,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
        clock=time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._roots = [RootHealth() for _ in range(count)]

    def add_root(self) -> None:
        """Track one more root (declared after the tracker was built)."""
        with self._lock:
            self._roots.append(RootHealth())

    def available(self, index: int) -> bool:
        """May this root be touched right now?

        Open breakers answer False until the cooldown elapses; the
        first call after it transitions to half-open and answers True —
        that caller is the probe whose outcome decides the breaker.
        """
        with self._lock:
            root = self._roots[index]
            if root.state == "closed":
                return True
            if root.state == "open":
                if self._clock() - root.opened_at >= self.cooldown_s:
                    root.state = "half_open"
                    return True
                return False
            # half_open: one probe is already in flight; hold the rest
            # back so a thundering herd cannot re-hammer a sick disk.
            return False

    def record_ok(self, index: int) -> None:
        with self._lock:
            root = self._roots[index]
            root.successes += 1
            root.streak = 0
            if root.state != "closed":
                root.state = "closed"

    def record_failure(self, index: int) -> None:
        with self._lock:
            root = self._roots[index]
            root.failures += 1
            root.streak += 1
            if root.state == "half_open" or root.streak >= self.failure_threshold:
                root.state = "open"
                root.opened_at = self._clock()

    def is_open(self, index: int) -> bool:
        with self._lock:
            return self._roots[index].state == "open"

    def status(self) -> list[dict]:
        with self._lock:
            return [root.snapshot() for root in self._roots]


class UnderReplicatedQueue:
    """The durable repair queue at ``<primary>/under-replicated.json``.

    Holds the content addresses of objects — and the keys of manifests —
    known to be short of their replica target.  Adds are idempotent and
    persisted immediately (an entry that only lived in RAM would vanish
    with the process that noticed the deficit).
    """

    def __init__(self, primary: Path) -> None:
        self.path = Path(primary) / QUEUE_FILE
        self._lock = threading.Lock()

    def _load(self) -> dict:
        try:
            payload = json.loads(fsio.read_bytes(self.path).decode("utf-8"))
        except (OSError, ValueError):
            return {"schema": 1, "objects": [], "manifests": []}
        payload.setdefault("objects", [])
        payload.setdefault("manifests", [])
        return payload

    def _save(self, payload: dict) -> None:
        payload["objects"] = sorted(set(payload["objects"]))
        payload["manifests"] = sorted(set(payload["manifests"]))
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        try:
            fsio.publish_text(self.path, text, tmp_prefix=".urq-")
        except OSError:
            pass  # the primary itself is sick; repair's sweep still covers us

    def add_object(self, digest: str) -> None:
        with self._lock:
            payload = self._load()
            if digest not in payload["objects"]:
                payload["objects"].append(digest)
                self._save(payload)

    def add_manifest(self, key: str) -> None:
        with self._lock:
            payload = self._load()
            if key not in payload["manifests"]:
                payload["manifests"].append(key)
                self._save(payload)

    def snapshot(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(object digests, manifest keys) currently enqueued."""
        with self._lock:
            payload = self._load()
            return tuple(payload["objects"]), tuple(payload["manifests"])

    def __len__(self) -> int:
        objects, manifests = self.snapshot()
        return len(objects) + len(manifests)

    def discard(self, objects: set[str] = frozenset(), manifests: set[str] = frozenset()) -> None:
        """Drop repaired entries (called by ``repair --replicas``)."""
        if not objects and not manifests:
            return
        with self._lock:
            payload = self._load()
            payload["objects"] = [d for d in payload["objects"] if d not in objects]
            payload["manifests"] = [
                k for k in payload["manifests"] if k not in manifests
            ]
            self._save(payload)


@dataclass
class ReplicaRepairReport:
    """What one ``repair --replicas`` pass restored."""

    #: Objects whose replica set was brought back to target.
    objects_restored: int = 0
    #: Individual object copies published (across all objects).
    copies_written: int = 0
    #: Manifests re-mirrored to their secondary roots.
    manifests_mirrored: int = 0
    #: Objects that could not reach target (every source or destination
    #: root failed) — they stay in the queue.
    failed: list[str] = field(default_factory=list)
    #: Queue entries remaining after the pass.
    remaining: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed

    def render(self) -> str:
        lines = [
            f"replica repair: {self.objects_restored} object(s) restored "
            f"({self.copies_written} cop{'y' if self.copies_written == 1 else 'ies'} "
            f"written), {self.manifests_mirrored} manifest(s) re-mirrored"
        ]
        for digest in self.failed:
            lines.append(f"  FAILED {digest[:12]}… (left in the repair queue)")
        if self.remaining:
            lines.append(f"  {self.remaining} entr(ies) still queued")
        return "\n".join(lines)
