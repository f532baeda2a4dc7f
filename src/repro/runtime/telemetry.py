"""Structured progress telemetry for the execution runtime.

Every study run, at any ``jobs`` value, narrates itself as a stream of
flat JSON events — one object per line, append-only, so a crashed run
still leaves a readable prefix.  The same stream drives three consumers:

* a JSONL file (``--telemetry PATH``) for offline analysis,
* live one-line progress on stderr (``--progress``),
* the final per-unit timing table (:meth:`TelemetryLog.timing_table`).

Event schema (all events carry ``event`` and ``ts``, a Unix timestamp)::

    study_start   jobs, units, datasets, seed
    unit_start    unit, kind, attempt
    unit_retry    unit, attempt, backoff_s, error
    unit_finish   unit, kind, status, attempts, wall_s,
                  packets, bytes, cache      # counters when known
    study_finish  wall_s, units_ok, units_failed

``packets`` / ``bytes`` / ``cache`` are filled by :func:`unit_counters`
from the unit's receipt when it is a mapping carrying those keys (the
study's dataset unit does, in-process and in a worker alike); they are
``None`` for workers that return opaque values.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

from ..chaos import fsio
from ..report.model import Table

__all__ = [
    "TelemetryLog",
    "COUNTER_KEYS",
    "unit_counters",
    "read_events",
    "follow_events",
]

#: Unit-receipt keys copied into ``unit_finish`` events.
COUNTER_KEYS = ("packets", "bytes", "cache")

#: Events echoed as human-readable progress lines.
_PROGRESS_EVENTS = {"unit_start", "unit_retry", "unit_finish", "study_finish"}


def unit_counters(value: object) -> dict:
    """The ``unit_finish`` counters of one unit's receipt: every
    :data:`COUNTER_KEYS` entry of a mapping, all ``None`` otherwise."""
    if isinstance(value, Mapping):
        return {key: value.get(key) for key in COUNTER_KEYS}
    return {key: None for key in COUNTER_KEYS}


def read_events(path: str | Path, follow: bool = False, **follow_kwargs):
    """Load a telemetry JSONL file, tolerating a truncated tail.

    A run killed mid-write (power loss, SIGKILL, an injected crash)
    leaves at most a partial trailing line; ``strict`` parsing would
    throw away the whole file for it.  Returns ``(events, bad_lines)``
    where ``bad_lines`` counts lines that failed to parse — they are
    skipped, never raised.

    With ``follow=True`` this is instead a *tail*: it returns the
    :func:`follow_events` iterator (any ``follow_kwargs`` pass through),
    which polls the file and yields events as a live writer appends
    them — what ``repro-study daemon tail`` and the daemon tests use to
    watch a running daemon's alert stream.
    """
    if follow:
        return follow_events(path, **follow_kwargs)
    events: list[dict] = []
    bad_lines = 0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                bad_lines += 1
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                bad_lines += 1
    return events, bad_lines


def follow_events(
    path: str | Path,
    poll_interval: float = 0.1,
    timeout: float | None = None,
    stop: Callable[[], bool] | None = None,
) -> Iterator[dict]:
    """Tail a telemetry JSONL file, yielding events as they land.

    Built for watching a *live* writer: the file may not exist yet (the
    tail waits for it), and the writer may be mid-line when we read — a
    line is only consumed once its newline arrives, so a truncated tail
    is buffered, never mis-parsed, and completes on a later poll.
    Malformed complete lines are skipped, same as :func:`read_events`.

    The tail ends when ``stop()`` returns true (checked after draining
    each read, so a stopped writer's final events are still delivered
    but a *busy* writer cannot pin a stopped tail — the HTTP service
    tails its own request log, which grows on every poll) or when
    ``timeout`` seconds pass without the tail being stopped.  With
    neither, it follows forever — the CLI's Ctrl-C is the exit.
    """
    path = Path(path)
    deadline = None if timeout is None else time.monotonic() + timeout
    handle = None
    buffer = b""
    try:
        while True:
            if handle is None:
                try:
                    handle = open(path, "rb")
                except OSError:
                    if stop is not None and stop():
                        return
                    if deadline is not None and time.monotonic() > deadline:
                        return
                    time.sleep(poll_interval)
                    continue
            chunk = handle.read()
            if chunk:
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    text = line.decode("utf-8", errors="replace").strip()
                    if not text:
                        continue
                    try:
                        record = json.loads(text)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        yield record
                if stop is not None and stop():
                    return  # delivered what was read; don't re-poll
                continue  # drain until the file is quiet before sleeping
            if stop is not None and stop():
                return
            if deadline is not None and time.monotonic() > deadline:
                return
            time.sleep(poll_interval)
    finally:
        if handle is not None:
            handle.close()


class TelemetryLog:
    """Collects runtime events; optionally tees them to JSONL and stderr."""

    def __init__(
        self,
        path: str | Path | None = None,
        progress: bool = False,
        stream: IO[str] | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.progress = progress
        self.events: list[dict] = []
        #: JSONL lines lost to write failures (the log never raises).
        self.dropped_writes = 0
        self._stream = stream if stream is not None else sys.stderr
        self._handle: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")

    # -- emission ----------------------------------------------------------

    def emit(self, event: str, **fields: object) -> dict:
        """Record one event; mirrors it to the JSONL file and stderr.

        Each line is flushed as it is written, so a killed run's file
        still holds every completed event (at worst plus one truncated
        trailing line, which :func:`read_events` tolerates).  A failing
        disk never takes the run down with it: write errors are counted
        in :attr:`dropped_writes` and the file sink is closed, while the
        in-memory stream keeps recording.
        """
        record: dict = {"event": event, "ts": round(time.time(), 6)}
        record.update(fields)
        self.events.append(record)
        if self._handle is not None:
            try:
                fsio.guard("append", self.path)
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
            except OSError:
                self.dropped_writes += 1
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
        elif self.path is not None:
            # The sink is already dead; keep honest books on what it lost.
            self.dropped_writes += 1
        if self.progress and event in _PROGRESS_EVENTS:
            print(self._progress_line(record), file=self._stream, flush=True)
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _progress_line(record: dict) -> str:
        event = record["event"]
        if event == "unit_start":
            suffix = (
                "" if record.get("attempt", 1) == 1
                else f" (attempt {record['attempt']})"
            )
            return f"[runtime] {record['unit']} started{suffix}"
        if event == "unit_retry":
            lines = str(record.get("error", "")).strip().splitlines()
            reason = lines[-1] if lines else ""
            return (
                f"[runtime] {record['unit']} attempt {record['attempt']} failed, "
                f"retrying in {record['backoff_s']:.2f}s: {reason}"
            )
        if event == "unit_finish":
            counters = []
            if record.get("cache") is not None:
                counters.append(f"cache {record['cache']}")
            if record.get("packets") is not None:
                counters.append(f"{record['packets']} pkts")
            if record.get("bytes") is not None:
                counters.append(f"{record['bytes']} bytes")
            detail = f" ({', '.join(counters)})" if counters else ""
            return (
                f"[runtime] {record['unit']} {record['status']} "
                f"in {record['wall_s']:.2f}s{detail}"
            )
        if event == "study_finish":
            return (
                f"[runtime] done in {record['wall_s']:.2f}s: "
                f"{record['units_ok']} ok, {record['units_failed']} failed"
            )
        return f"[runtime] {event}"

    def unit_events(self, event: str) -> Iterable[dict]:
        """All recorded events of one type, in emission order."""
        return [record for record in self.events if record["event"] == event]

    def timing_table(self) -> Table:
        """The final per-unit timing table (one row per finished unit)."""
        table = Table(
            "Runtime",
            "per-unit wall time and counters",
            ["unit", "status", "attempts", "wall_s", "packets", "bytes", "cache"],
        )
        for record in self.unit_events("unit_finish"):
            table.add_row(
                record["unit"],
                record["status"],
                record.get("attempts", 1),
                round(record.get("wall_s", 0.0), 3),
                record.get("packets") if record.get("packets") is not None else "-",
                record.get("bytes") if record.get("bytes") is not None else "-",
                record.get("cache") or "-",
            )
        return table
