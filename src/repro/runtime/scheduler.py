"""The process-pool scheduler: fan units out, survive worker faults.

``ProcessPoolScheduler`` runs a sequence of independent
:class:`~repro.runtime.task.Task` units across ``jobs`` worker
processes.  Each unit runs in its own forked child (one process per
unit, bounded by ``jobs``; ``jobs=1`` is a pool of one): a unit that
raises, dies, or overruns its timeout only costs that unit, never the
pool, and is retried with exponential backoff before being reported as
a failure through the :class:`~repro.analysis.errors.ErrorKind`
taxonomy (``worker_error``) instead of aborting the run.

Two watchdog behaviors guard the pool itself (see ``docs/runtime.md``):
with :attr:`RetryPolicy.heartbeat_timeout` set, every child sends
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

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..analysis.errors import ErrorKind, TraceError
from .task import Task
from .telemetry import TelemetryLog, unit_counters

__all__ = [
    "RetryPolicy",
    "UnitResult",
    "ProcessPoolScheduler",
    "resolve_jobs",
    "start_heartbeat",
    "stop_heartbeat",
]

#: How long the parent waits on result pipes per poll cycle.
_POLL_SECONDS = 0.05

#: How long a finished worker waits for its beat thread to wind down.
_HEARTBEAT_JOIN_SECONDS = 1.0


def start_heartbeat(
    conn, send_lock: threading.Lock, interval: float
) -> tuple[threading.Thread, threading.Event]:
    """Start the liveness beat shared by pool workers and daemon feeds.

    A daemon thread sends ``("hb", ts)`` pings over ``conn`` every
    ``interval`` seconds until the returned event is set; ``send_lock``
    keeps a ping from interleaving with a real message on the pipe.  A
    process wedged hard enough to stop its threads stops beating too —
    which is exactly the signal the supervising side watches for.
    """
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(interval):
            try:
                with send_lock:
                    conn.send(("hb", time.monotonic()))
            except OSError:
                return  # supervisor went away; nothing left to prove

    thread = threading.Thread(target=_beat, name="hb", daemon=True)
    thread.start()
    return thread, stop


def stop_heartbeat(
    thread: threading.Thread | None,
    stop: threading.Event | None,
    timeout: float = _HEARTBEAT_JOIN_SECONDS,
) -> None:
    """Wind a heartbeat down promptly on normal exit.

    The join (with timeout) matters in long-lived processes: a beat
    thread left running at interpreter shutdown can wake after module
    globals are torn down and die noisily.  Accepts ``None`` for both so
    callers without a heartbeat need no branch.
    """
    if stop is not None:
        stop.set()
    if thread is not None:
        thread.join(timeout)


def resolve_jobs(jobs: int | None) -> int:
    """Map a user-facing ``--jobs`` value to a worker count.

    ``None`` and ``0`` mean "all cores"; anything else is clamped to at
    least 1.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


@dataclass(frozen=True)
class RetryPolicy:
    """How a faulty unit is retried before it is declared failed."""

    #: Re-runs after the first failure (attempts = ``max_retries + 1``).
    max_retries: int = 2
    #: First backoff in seconds; doubles per subsequent retry.
    backoff: float = 0.25
    #: Per-attempt wall-clock limit (None = no limit).
    timeout: float | None = None
    #: Watchdog: a worker silent this long (no heartbeat) while still
    #: alive is presumed hung — wedged in a syscall, stopped, or
    #: deadlocked — and is SIGKILLed and requeued.  Distinct from
    #: ``timeout``, which bounds *total* attempt time even while the
    #: worker is making progress.  ``None`` disables the watchdog.
    heartbeat_timeout: float | None = None
    #: Poison-unit quarantine: a unit that kills this many workers
    #: (crashes or hang-kills, across attempts) is declared failed
    #: immediately, even with retries to spare — a deterministic
    #: crasher must not grind through every retry the policy allows.
    max_crashes: int = 3

    def backoff_for(self, attempt: int) -> float:
        """Backoff before re-running after failed attempt ``attempt``."""
        return self.backoff * (2 ** (attempt - 1))

    @property
    def heartbeat_interval(self) -> float | None:
        """How often a worker beats (several beats per timeout window,
        so one missed scheduling slice never looks like a hang)."""
        if self.heartbeat_timeout is None:
            return None
        return self.heartbeat_timeout / 4.0


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
    """Parent-side state of one in-flight child process."""

    task: Task
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    attempt: int
    started: float
    deadline: float | None
    #: When the child last proved liveness (a heartbeat or launch time).
    last_beat: float = 0.0


def _child_main(
    conn,
    worker: Callable[[Mapping], object],
    payload: Mapping,
    heartbeat_interval: float | None = None,
) -> None:
    """Child-process entry: run the worker, ship back one message.

    With a heartbeat interval, a daemon thread sends ``("hb", ts)``
    pings while the worker runs; the parent's watchdog treats their
    absence as a hang.  The send lock keeps a ping from interleaving
    with the final result on the pipe.  A worker wedged hard enough to
    stop its threads (stopped, or stuck with the GIL held in a native
    call) stops beating too — which is exactly the signal.
    """
    send_lock = threading.Lock()
    beat: threading.Thread | None = None
    stop: threading.Event | None = None
    if heartbeat_interval is not None:
        beat, stop = start_heartbeat(conn, send_lock, heartbeat_interval)
    try:
        value = worker(payload)
        with send_lock:
            conn.send(("ok", value))
    except Exception:
        tail = traceback.format_exc(limit=10)
        with send_lock:
            conn.send(("error", tail[-4000:]))
    finally:
        stop_heartbeat(beat, stop)
        conn.close()


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
        # Fork keeps worker dispatch cheap and lets tests monkeypatch the
        # worker callable (the child inherits parent memory); fall back to
        # the platform default where fork does not exist.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    # -- public API --------------------------------------------------------

    def run(self, tasks: Sequence[Task]) -> dict[str, UnitResult]:
        """Execute every unit; returns results keyed by unit key.

        Unit keys must be unique (``ValueError`` otherwise, before any
        work starts).  Never raises for unit failures — a unit that
        exhausts its retries yields a ``failed`` :class:`UnitResult`
        carrying a :class:`~repro.analysis.errors.TraceError` of kind
        ``worker_error``.
        """
        tasks = list(tasks)
        seen: set[str] = set()
        for task in tasks:
            if task.key in seen:
                raise ValueError(f"duplicate task key {task.key!r}")
            seen.add(task.key)
        started = time.monotonic()
        results = self._run_pool(tasks)
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
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_child_main,
            args=(
                child_conn,
                self.worker,
                task.payload,
                self.retry.heartbeat_interval,
            ),
            name=f"repro-unit-{task.key}",
        )
        process.start()
        child_conn.close()
        self._emit("unit_start", unit=task.key, kind=task.kind, attempt=attempt)
        now = time.monotonic()
        deadline = (
            now + self.retry.timeout if self.retry.timeout is not None else None
        )
        return _Running(
            task, process, parent_conn, attempt, now, deadline, last_beat=now
        )

    def _reap(self, running: _Running) -> tuple[str, object] | None:
        """One non-blocking look at a child: a message, a fault, or None.

        Heartbeat pings are drained here (each refreshes ``last_beat``);
        the first real message wins.  Faults are typed: ``timeout`` for
        a blown deadline, ``hung`` for a live-but-silent worker the
        watchdog had to SIGKILL, ``crash`` for a worker that died
        without reporting.  Only ``crash`` and ``hung`` count against
        the unit's :attr:`RetryPolicy.max_crashes` poison budget.
        """
        while running.conn.poll():
            try:
                message = running.conn.recv()
            except (EOFError, OSError):
                break
            if (
                isinstance(message, tuple)
                and len(message) == 2
                and message[0] == "hb"
            ):
                running.last_beat = time.monotonic()
                continue
            if message is not None:
                return message
        now = time.monotonic()
        if running.deadline is not None and now > running.deadline:
            self._terminate(running.process)
            return ("timeout", f"timed out after {self.retry.timeout}s")
        heartbeat_timeout = self.retry.heartbeat_timeout
        if (
            heartbeat_timeout is not None
            and running.process.exitcode is None
            and now - running.last_beat > heartbeat_timeout
        ):
            silent = now - running.last_beat
            self._emit(
                "unit_hang",
                unit=running.task.key,
                attempt=running.attempt,
                silent_s=round(silent, 3),
            )
            # SIGKILL, not terminate(): a worker too wedged to beat is
            # too wedged to honor SIGTERM.
            running.process.kill()
            return (
                "hung",
                f"worker hung: no heartbeat for {silent:.1f}s "
                f"(limit {heartbeat_timeout}s), killed",
            )
        if running.process.exitcode is not None:
            return (
                "crash",
                f"worker crashed with exit code {running.process.exitcode}",
            )
        return None

    @staticmethod
    def _terminate(process: multiprocessing.process.BaseProcess) -> None:
        process.terminate()
        process.join(timeout=2.0)
        if process.exitcode is None:
            process.kill()
            process.join(timeout=2.0)

    def _run_pool(self, tasks: list[Task]) -> dict[str, UnitResult]:
        results: dict[str, UnitResult] = {}
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
                if not running:
                    # Everything unfinished is waiting out a backoff.
                    pending_at = [
                        at
                        for key, at in retry_at.items()
                        if key not in results
                    ]
                    if pending_at:
                        time.sleep(
                            max(0.0, min(pending_at) - time.monotonic())
                        )
                    continue
                multiprocessing.connection.wait(
                    [unit.conn for unit in running.values()],
                    timeout=_POLL_SECONDS,
                )
                for key in list(running):
                    unit = running[key]
                    outcome = self._reap(unit)
                    if outcome is None:
                        continue
                    del running[key]
                    unit.process.join(timeout=2.0)
                    if unit.process.exitcode is None:
                        self._terminate(unit.process)
                    unit.conn.close()
                    status, payload = outcome
                    wall = time.monotonic() - first_start[key]
                    if status in ("crash", "hung"):
                        crashes[key] = crashes.get(key, 0) + 1
                    if status == "ok":
                        results[key] = self._finish_ok(
                            unit.task, payload, unit.attempt, wall
                        )
                    elif (
                        status in ("crash", "hung")
                        and crashes[key] >= self.retry.max_crashes
                    ):
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
                        backoff = self.retry.backoff_for(unit.attempt)
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
                self._terminate(unit.process)
                unit.conn.close()
        return results
