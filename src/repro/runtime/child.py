"""One supervised child process: the life cycle the pool and the daemon share.

The pool's dataset units (:mod:`repro.runtime.scheduler`) and the
daemon's tenant feeds (:mod:`repro.daemon.supervisor`) both run as a
:class:`Child`.  Constructing one forks a process (fork keeps dispatch
cheap and lets tests monkeypatch what the child runs) that runs
``body(send, *args)`` under :func:`child_entry`: a locked ``send`` and
a ``("hb", ts)`` heartbeat.  The parent's handle drains the beats,
SIGKILLs a child silent past :attr:`RetryPolicy.heartbeat_timeout`, and
stops one with escalation; :meth:`RetryPolicy.restart_after` turns a
crash count (each caller keeps its own) into a backoff or a quarantine.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "Child",
    "RetryPolicy",
    "child_entry",
    "start_heartbeat",
    "stop_heartbeat",
    "wait",
]

#: How long a finished child waits for its beat thread to wind down.
_HEARTBEAT_JOIN_SECONDS = 1.0

#: How long each step of a stop waits for the child to exit.
_JOIN_SECONDS = 2.0

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


@dataclass(frozen=True)
class RetryPolicy:
    """How a faulty child is watched, retried and quarantined."""

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

    def restart_after(self, crashes: int, failures: int) -> float | None:
        """The crash decision: ``None`` (quarantine) once ``crashes``
        hard deaths reach :attr:`max_crashes`, otherwise the backoff
        before relaunching after failure number ``failures``."""
        if crashes >= self.max_crashes:
            return None
        return self.backoff_for(failures)

    @property
    def heartbeat_interval(self) -> float | None:
        """How often a worker beats (several beats per timeout window,
        so one missed scheduling slice never looks like a hang)."""
        if self.heartbeat_timeout is None:
            return None
        return self.heartbeat_timeout / 4.0


# -- child side ----------------------------------------------------------------


def start_heartbeat(
    conn, send_lock: threading.Lock, interval: float
) -> tuple[threading.Thread, threading.Event]:
    """Start the liveness beat of a child.

    A daemon thread sends ``("hb", ts)`` pings over ``conn`` every
    ``interval`` seconds until the returned event is set; ``send_lock``
    keeps a ping from interleaving with a real message on the pipe.  A
    process wedged hard enough to stop its threads (stopped, or stuck
    with the GIL held in a native call) stops beating too — which is
    exactly the signal the parent watches for.
    """
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(interval):
            try:
                with send_lock:
                    conn.send(("hb", time.monotonic()))
            except OSError:
                return  # the parent went away; nothing left to prove

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


def child_entry(
    conn, heartbeat_interval: float | None, body: Callable, *args
) -> None:
    """Child-process entry: run ``body(send, *args)`` under the beat.

    ``send(message)`` ships one picklable message to the parent under
    the pipe's send lock; it never raises :class:`OSError`, so a child
    whose parent went away keeps working (a feed keeps publishing to
    disk).  The beat (when ``heartbeat_interval`` is set) is wound down
    and the pipe closed however the body exits; a body that wants a
    non-zero exit code raises :class:`SystemExit`.
    """
    send_lock = threading.Lock()

    def send(message: object) -> None:
        try:
            with send_lock:
                conn.send(message)
        except OSError:
            pass  # the parent went away

    beat: threading.Thread | None = None
    stop: threading.Event | None = None
    if heartbeat_interval is not None:
        beat, stop = start_heartbeat(conn, send_lock, heartbeat_interval)
    try:
        body(send, *args)
    finally:
        stop_heartbeat(beat, stop)
        conn.close()


# -- parent side ---------------------------------------------------------------


class Child:
    """The parent's handle on one child process.

    Constructing it forks the child, which runs ``body(send, *args)``
    under :func:`child_entry`, beating every
    ``retry.heartbeat_interval`` seconds.
    """

    def __init__(self, body: Callable, *args, name: str, retry: RetryPolicy) -> None:
        self.conn, child_conn = _CTX.Pipe(duplex=False)
        self.process = _CTX.Process(
            target=child_entry,
            args=(child_conn, retry.heartbeat_interval, body, *args),
            name=name,
        )
        self.process.start()
        child_conn.close()
        self.heartbeat_timeout = retry.heartbeat_timeout
        #: When the child last proved liveness (a heartbeat or launch).
        self.last_beat = time.monotonic()

    def poll(self) -> object | None:
        """Drain heartbeats (each refreshes :attr:`last_beat`) and
        return the next real message, or ``None`` when there is none."""
        while self.conn.poll():
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                return None
            if (
                isinstance(message, tuple)
                and len(message) == 2
                and message[0] == "hb"
            ):
                self.last_beat = time.monotonic()
            elif message is not None:
                return message
        return None

    def hung(self) -> float | None:
        """If the child is alive but silent past ``heartbeat_timeout``,
        SIGKILL it and return how long it was silent; else ``None``."""
        if self.heartbeat_timeout is None or self.process.exitcode is not None:
            return None
        silent = time.monotonic() - self.last_beat
        if silent <= self.heartbeat_timeout:
            return None
        # SIGKILL, not SIGTERM: a child too wedged to beat is too
        # wedged to honor SIGTERM.
        self.process.kill()
        self.process.join(_JOIN_SECONDS)
        return silent

    def stop(self, grace: float = 0.0) -> None:
        """Stop the child and close its pipe.

        Waits ``grace`` seconds for it to exit on its own, then
        escalates: SIGTERM, join, SIGKILL, join.  A child already dead
        is only reaped.
        """
        self.process.join(grace)
        if self.process.exitcode is None:
            self.process.terminate()
            self.process.join(_JOIN_SECONDS)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join(_JOIN_SECONDS)
        self.conn.close()


def wait(children: Iterable[Child], timeout: float) -> None:
    """Block until a child has something to read, or ``timeout`` (which
    an empty set sleeps out)."""
    conns = [child.conn for child in children]
    if conns:
        multiprocessing.connection.wait(conns, timeout=timeout)
    else:
        time.sleep(timeout)
