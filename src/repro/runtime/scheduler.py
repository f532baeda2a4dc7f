"""The process-pool scheduler: fan units out, survive worker faults.

``ProcessPoolScheduler`` runs a sequence of independent
:class:`~repro.runtime.task.Task` units across ``jobs`` worker
processes.  Each unit runs in its own forked child (one process per
unit, bounded by ``jobs``; ``jobs=1`` is a pool of one): a unit that
raises, dies, or overruns its timeout only costs that unit, never the
pool, and is retried with exponential backoff before being reported as
a failure through the :class:`~repro.analysis.errors.ErrorKind`
taxonomy (``worker_error``) instead of aborting the run.

Each attempt is one :mod:`repro.runtime.child` child; the pool keeps
only attempts, deadlines and unit results.  Two watchdog behaviors
guard the pool itself (see ``docs/runtime.md``): with
:attr:`RetryPolicy.heartbeat_timeout` set, every child sends
heartbeat pings over its result pipe, and a worker that stays *alive
but silent* past the limit is SIGKILLed and its unit requeued —
distinct from the deadline ``timeout``, which fires even while a worker
is making progress.  And a *poison unit* — one whose work reliably
kills its worker — is quarantined after :attr:`RetryPolicy.max_crashes`
hard deaths (crashes plus hang-kills) rather than grinding through
every retry: it lands in the study's ``unit_failures`` and the pool
moves on.

The worker callable must be importable at module top level and its
payloads plain picklable data; results travel back over a pipe, so they
must pickle too.  Determinism comes from the units themselves (seeded
by study seed + unit key, see :mod:`repro.runtime.task`): the scheduler
may finish units in any order, but callers index results by unit key,
so assembly order never depends on completion order.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..analysis.errors import ErrorKind, TraceError
from .child import Child, RetryPolicy, wait
from .task import Task
from .telemetry import TelemetryLog, unit_counters

__all__ = [
    "UnitResult",
    "ProcessPoolScheduler",
    "resolve_jobs",
]

#: How long the parent waits on result pipes per poll cycle.
_POLL_SECONDS = 0.05

#: How long a worker that has reported gets to exit before it is stopped.
_EXIT_GRACE_SECONDS = 2.0


def resolve_jobs(jobs: int | None) -> int:
    """Map a user-facing ``--jobs`` value to a worker count.

    ``None`` and ``0`` mean "all cores"; anything else is clamped to at
    least 1.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


@dataclass
class UnitResult:
    """What became of one unit: its value, or its accounted failure."""

    key: str
    status: str  # "ok" | "failed"
    value: object = None
    attempts: int = 0
    wall_s: float = 0.0
    error: TraceError | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class _Running:
    """Parent-side state of one in-flight unit attempt."""

    task: Task
    child: Child
    attempt: int
    deadline: float | None


def _child_main(
    send, worker: Callable[[Mapping], object], payload: Mapping
) -> None:
    """A unit's child body (see :func:`repro.runtime.child.child_entry`):
    run the worker, ship back one message."""
    try:
        value = worker(payload)
        send(("ok", value))
    except Exception:
        tail = traceback.format_exc(limit=10)
        send(("error", tail[-4000:]))


class ProcessPoolScheduler:
    """Run independent units across a bounded pool of worker processes."""

    def __init__(
        self,
        worker: Callable[[Mapping], object],
        jobs: int | None = None,
        retry: RetryPolicy | None = None,
        telemetry: TelemetryLog | None = None,
    ) -> None:
        self.worker = worker
        self.jobs = resolve_jobs(jobs)
        self.retry = retry if retry is not None else RetryPolicy()
        self.telemetry = telemetry

    # -- public API --------------------------------------------------------

    def run(
        self,
        tasks: Sequence[Task],
        done: Mapping[str, UnitResult] | None = None,
    ) -> dict[str, UnitResult]:
        """Execute every unit; returns results keyed by unit key.

        Unit keys must be unique (``ValueError`` otherwise, before any
        work starts).  ``done`` holds results the caller already has for
        some of the units: they are returned as given, never forked, and
        counted in ``study_finish``.  Never raises for unit failures — a
        unit that exhausts its retries yields a ``failed``
        :class:`UnitResult` carrying a
        :class:`~repro.analysis.errors.TraceError` of kind
        ``worker_error``.
        """
        tasks = list(tasks)
        seen: set[str] = set()
        for task in tasks:
            if task.key in seen:
                raise ValueError(f"duplicate task key {task.key!r}")
            seen.add(task.key)
        started = time.monotonic()
        results = self._run_pool(tasks, dict(done or {}))
        self._emit(
            "study_finish",
            wall_s=round(time.monotonic() - started, 6),
            units_ok=sum(1 for r in results.values() if r.ok),
            units_failed=sum(1 for r in results.values() if not r.ok),
        )
        return results

    # -- shared helpers ----------------------------------------------------

    def _emit(self, event: str, **fields: object) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event, **fields)

    def _finish_ok(
        self, task: Task, value: object, attempts: int, wall_s: float
    ) -> UnitResult:
        self._emit(
            "unit_finish",
            unit=task.key,
            kind=task.kind,
            status="ok",
            attempts=attempts,
            wall_s=round(wall_s, 6),
            **unit_counters(value),
        )
        return UnitResult(task.key, "ok", value, attempts, wall_s)

    def _finish_failed(
        self, task: Task, detail: str, attempts: int, wall_s: float
    ) -> UnitResult:
        error = TraceError(ErrorKind.WORKER_ERROR, task.key, None, detail)
        self._emit(
            "unit_finish",
            unit=task.key,
            kind=task.kind,
            status="failed",
            attempts=attempts,
            wall_s=round(wall_s, 6),
            error=detail,
            **unit_counters(None),
        )
        return UnitResult(task.key, "failed", None, attempts, wall_s, error)

    # -- pooled execution --------------------------------------------------

    def _launch(self, task: Task, attempt: int) -> _Running:
        child = Child(
            _child_main,
            self.worker,
            task.payload,
            name=f"repro-unit-{task.key}",
            retry=self.retry,
        )
        self._emit("unit_start", unit=task.key, kind=task.kind, attempt=attempt)
        timeout = self.retry.timeout
        deadline = time.monotonic() + timeout if timeout is not None else None
        return _Running(task, child, attempt, deadline)

    def _outcome(self, running: _Running) -> tuple[str, object] | None:
        """One non-blocking look at a unit: a message, a fault, or None.

        Faults are typed: ``timeout`` for a blown deadline, ``hung`` for
        a live-but-silent worker the watchdog had to SIGKILL, ``crash``
        for a worker that died without reporting.  Only ``crash`` and
        ``hung`` count against the unit's :attr:`RetryPolicy.max_crashes`
        poison budget.
        """
        child = running.child
        message = child.poll()
        if message is not None:
            return message
        if running.deadline is not None and time.monotonic() > running.deadline:
            child.stop()
            return ("timeout", f"timed out after {self.retry.timeout}s")
        silent = child.hung()
        if silent is not None:
            self._emit(
                "unit_hang",
                unit=running.task.key,
                attempt=running.attempt,
                silent_s=round(silent, 3),
            )
            return (
                "hung",
                f"worker hung: no heartbeat for {silent:.1f}s "
                f"(limit {self.retry.heartbeat_timeout}s), killed",
            )
        exitcode = child.process.exitcode
        if exitcode is not None:
            return ("crash", f"worker crashed with exit code {exitcode}")
        return None

    def _run_pool(
        self, tasks: list[Task], results: dict[str, UnitResult]
    ) -> dict[str, UnitResult]:
        running: dict[str, _Running] = {}
        first_start: dict[str, float] = {}
        retry_at: dict[str, float] = {}
        attempts: dict[str, int] = {}
        #: Workers each unit has killed (crashes + hang-kills).
        crashes: dict[str, int] = {}
        try:
            while len(results) < len(tasks):
                now = time.monotonic()
                for task in tasks:
                    if len(running) >= self.jobs:
                        break
                    if task.key in results or task.key in running:
                        continue
                    if retry_at.get(task.key, 0.0) > now:
                        continue
                    attempt = attempts.get(task.key, 0) + 1
                    attempts[task.key] = attempt
                    first_start.setdefault(task.key, now)
                    running[task.key] = self._launch(task, attempt)
                # With nothing running, every unfinished unit is waiting
                # out a backoff: the wait sleeps one poll cycle.
                wait([unit.child for unit in running.values()], _POLL_SECONDS)
                for key in list(running):
                    unit = running[key]
                    outcome = self._outcome(unit)
                    if outcome is None:
                        continue
                    del running[key]
                    unit.child.stop(grace=_EXIT_GRACE_SECONDS)
                    status, payload = outcome
                    wall = time.monotonic() - first_start[key]
                    if status == "ok":
                        results[key] = self._finish_ok(
                            unit.task, payload, unit.attempt, wall
                        )
                        continue
                    if status in ("crash", "hung"):
                        crashes[key] = crashes.get(key, 0) + 1
                        backoff = self.retry.restart_after(
                            crashes[key], unit.attempt
                        )
                    else:
                        backoff = self.retry.backoff_for(unit.attempt)
                    if backoff is None:
                        # Poison unit: it has now taken down max_crashes
                        # workers.  Quarantine it immediately — however
                        # many retries remain — so a deterministic
                        # crasher cannot stall the pool.
                        self._emit(
                            "unit_poisoned",
                            unit=key,
                            crashes=crashes[key],
                            attempt=unit.attempt,
                            error=str(payload),
                        )
                        results[key] = self._finish_failed(
                            unit.task,
                            f"poison unit quarantined after killing "
                            f"{crashes[key]} workers: {payload}",
                            unit.attempt,
                            wall,
                        )
                    elif unit.attempt > self.retry.max_retries:
                        results[key] = self._finish_failed(
                            unit.task, str(payload), unit.attempt, wall
                        )
                    else:
                        retry_at[key] = time.monotonic() + backoff
                        self._emit(
                            "unit_retry",
                            unit=key,
                            attempt=unit.attempt,
                            backoff_s=round(backoff, 6),
                            error=str(payload),
                        )
        finally:
            for unit in running.values():
                unit.child.stop()
        return results
