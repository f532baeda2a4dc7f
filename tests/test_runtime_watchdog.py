"""The worker watchdog: heartbeats, hang-kills, poison-unit quarantine.

The load-bearing guarantees: a worker that is *alive but silent* (no
heartbeat inside ``heartbeat_timeout``) is SIGKILLed and its unit
requeued — a fault class the deadline ``timeout`` cannot see, and one a
slow-but-beating worker must never be blamed for; and a unit whose work
deterministically kills its workers is quarantined after
``max_crashes`` hard deaths instead of grinding through every retry.
"""

from __future__ import annotations

import os
import signal
import time

from repro.analysis.errors import ErrorKind
from repro.runtime import (
    ProcessPoolScheduler,
    RetryPolicy,
    Task,
    TelemetryLog,
)

# -- workers (module-level: they cross the fork boundary) --------------------


def stop_self_once_worker(spec):
    """Freezes its own process on the first attempt — SIGSTOP suspends
    every thread, heartbeats included, which is exactly what a worker
    wedged in an uninterruptible syscall looks like from outside.
    Succeeds on the second attempt."""
    marker = spec["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("frozen once")
        os.kill(os.getpid(), signal.SIGSTOP)
        time.sleep(60)  # unreachable unless resumed; the watchdog kills us
    return "recovered"


def slow_but_alive_worker(spec):
    """Takes longer than the heartbeat window but keeps beating (the
    daemon thread runs while the main thread sleeps)."""
    time.sleep(spec["seconds"])
    return "finished"


def crash_flag_worker(spec):
    """Dies hard when told to; otherwise succeeds."""
    if spec.get("crash"):
        os._exit(21)
    return "fine"


def hang_or_sleep_worker(spec):
    """Routes to the freezer or the slow-but-beating sleeper by payload."""
    if "marker" in spec:
        return stop_self_once_worker(spec)
    return slow_but_alive_worker(spec)


def crash_until_worker(spec):
    """Dies hard until the attempt counter file reaches ``crashes``."""
    counter = spec["counter"]
    seen = int(open(counter).read()) if os.path.exists(counter) else 0
    if seen < spec["crashes"]:
        with open(counter, "w") as handle:
            handle.write(str(seen + 1))
        os._exit(13)
    return {"survived_after": seen}


def fine_worker(spec):
    return "fine"


# -- hang detection ----------------------------------------------------------


def test_hung_worker_is_killed_and_requeued(tmp_path):
    tasks = [Task(key="wedged", payload={"marker": str(tmp_path / "marker")})]
    telemetry = TelemetryLog()
    scheduler = ProcessPoolScheduler(
        stop_self_once_worker,
        jobs=2,
        retry=RetryPolicy(max_retries=2, backoff=0.01, heartbeat_timeout=0.5),
        telemetry=telemetry,
    )
    results = scheduler.run(tasks)
    assert results["wedged"].ok
    assert results["wedged"].value == "recovered"
    assert results["wedged"].attempts == 2
    hangs = telemetry.unit_events("unit_hang")
    assert len(hangs) == 1 and hangs[0]["unit"] == "wedged"
    retries = telemetry.unit_events("unit_retry")
    assert any("no heartbeat" in event["error"] for event in retries)


def test_hang_detection_is_distinct_from_deadline_timeout(tmp_path):
    """A hang-kill blames the silence, not the clock — and a worker that
    is slow but still beating is never shot."""
    tasks = [
        Task(key="wedged", payload={"marker": str(tmp_path / "marker")}),
        Task(key="slow", payload={"seconds": 1.2}),
    ]
    scheduler = ProcessPoolScheduler(
        hang_or_sleep_worker,
        jobs=2,
        retry=RetryPolicy(
            max_retries=0, backoff=0.01, heartbeat_timeout=0.4, timeout=30.0
        ),
    )
    results = scheduler.run(tasks)
    # No retries left: the single hang becomes the unit's failure, and
    # its detail names the heartbeat, not the deadline.
    assert results["wedged"].status == "failed"
    assert "no heartbeat" in results["wedged"].error.detail
    assert "timed out" not in results["wedged"].error.detail
    # Three heartbeat windows elapsed while "slow" slept; it lived.
    assert results["slow"].ok and results["slow"].value == "finished"


def test_heartbeats_do_not_disturb_results():
    tasks = [Task(key=f"u{i}", payload={}) for i in range(4)]
    results = ProcessPoolScheduler(
        fine_worker,
        jobs=2,
        retry=RetryPolicy(max_retries=0, backoff=0.01, heartbeat_timeout=0.05),
    ).run(tasks)
    assert all(result.ok and result.value == "fine" for result in results.values())


# -- poison-unit quarantine --------------------------------------------------


def test_poison_unit_is_quarantined_before_retries_run_out():
    tasks = [
        Task(key="poison", payload={"crash": True}),
        Task(key="healthy", payload={}),
    ]
    telemetry = TelemetryLog()
    scheduler = ProcessPoolScheduler(
        crash_flag_worker,
        jobs=2,
        retry=RetryPolicy(max_retries=10, backoff=0.01, max_crashes=3),
        telemetry=telemetry,
    )
    results = scheduler.run(tasks)
    poisoned = results["poison"]
    assert poisoned.status == "failed"
    assert poisoned.attempts == 3  # max_crashes, not max_retries + 1
    assert poisoned.error.kind is ErrorKind.WORKER_ERROR
    assert "poison unit" in poisoned.error.detail
    assert "exit code 21" in poisoned.error.detail
    assert results["healthy"].ok  # the pool never stalled
    events = telemetry.unit_events("unit_poisoned")
    assert len(events) == 1
    assert events[0]["unit"] == "poison" and events[0]["crashes"] == 3


def test_crash_budget_spans_attempts_but_spares_recoverers(tmp_path):
    """Two crashes then success stays under the default budget of 3 —
    the quarantine must not catch units that do recover."""
    tasks = [
        Task(key="flaky", payload={"counter": str(tmp_path / "count"), "crashes": 2})
    ]
    results = ProcessPoolScheduler(
        crash_until_worker,
        jobs=2,
        retry=RetryPolicy(max_retries=3, backoff=0.01, max_crashes=3),
    ).run(tasks)
    assert results["flaky"].ok and results["flaky"].attempts == 3


# -- heartbeat wind-down -----------------------------------------------------


def test_heartbeat_thread_stops_promptly_on_normal_exit():
    """A finished worker must not leave its beat thread running — in a
    long-lived daemon feed that thread would outlive the work and die
    noisily at interpreter teardown.  ``child_entry`` joins it out."""
    import multiprocessing
    import threading

    from repro.runtime.child import child_entry
    from repro.runtime.scheduler import _child_main

    parent, child = multiprocessing.Pipe(duplex=False)
    before = {t for t in threading.enumerate() if t.name == "hb"}
    child_entry(child, 0.02, _child_main, fine_worker, {})
    after = [
        t for t in threading.enumerate()
        if t.name == "hb" and t not in before and t.is_alive()
    ]
    assert after == []
    # The worker's result made it out past the interleaved beats.
    messages = []
    while parent.poll(0.01):
        try:
            messages.append(parent.recv())
        except EOFError:
            break  # the child closed its end on exit, as it should
    assert ("ok", "fine") in messages


def test_start_stop_heartbeat_round_trip():
    import multiprocessing
    import threading

    from repro.runtime.child import start_heartbeat, stop_heartbeat

    parent, child = multiprocessing.Pipe(duplex=False)
    thread, stop = start_heartbeat(child, threading.Lock(), 0.01)
    deadline = time.monotonic() + 2.0
    while not parent.poll(0.01) and time.monotonic() < deadline:
        pass
    kind, ts = parent.recv()
    assert kind == "hb" and isinstance(ts, float)
    stop_heartbeat(thread, stop)
    assert not thread.is_alive()
    # None/None is a no-op for callers without a heartbeat.
    stop_heartbeat(None, None)
