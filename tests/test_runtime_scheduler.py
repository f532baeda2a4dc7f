"""The execution runtime: the unit sequence and the process-pool scheduler.

The load-bearing guarantees: a sequence with a repeated unit key is
rejected before any work starts; units run across workers (``jobs=1``
is a pool of one) with results indexed by key (never by completion
order); a crashing, raising, or hanging worker costs its
unit a retry — and after the retry budget, a ``worker_error`` failure
accounted through the PR-1 taxonomy — but never the pool or the run.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.errors import ErrorKind
from repro.runtime import (
    ProcessPoolScheduler,
    RetryPolicy,
    Task,
    TelemetryLog,
    resolve_jobs,
)

# -- workers (module-level: they cross the fork boundary) --------------------


def square_worker(spec):
    return {"value": spec["n"] ** 2, "packets": spec["n"], "bytes": 0, "cache": None}


def raising_worker(spec):
    raise RuntimeError(f"unit {spec['n']} is unlucky")


def crash_until_worker(spec):
    """Dies hard (no exception, no message) until the attempt counter
    stored in ``spec['counter']`` reaches ``spec['crashes']``."""
    counter = spec["counter"]
    seen = int(open(counter).read()) if os.path.exists(counter) else 0
    if seen < spec["crashes"]:
        with open(counter, "w") as handle:
            handle.write(str(seen + 1))
        os._exit(13)
    return {"survived_after": seen}


def sleeping_worker(spec):
    import time

    time.sleep(spec["seconds"])
    return "overslept"


def test_resolve_jobs():
    assert resolve_jobs(None) == os.cpu_count()
    assert resolve_jobs(0) == os.cpu_count()
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-2) == 1


# -- scheduling --------------------------------------------------------------


def _tasks(n=4, **extra):
    return [Task(key=f"u{i}", payload={"n": i, **extra}) for i in range(n)]


class TestScheduling:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_all_units_complete_keyed_by_unit(self, jobs):
        results = ProcessPoolScheduler(square_worker, jobs=jobs).run(_tasks(5))
        assert set(results) == {f"u{i}" for i in range(5)}
        for i in range(5):
            assert results[f"u{i}"].ok
            assert results[f"u{i}"].value["value"] == i * i

    def test_duplicate_keys_rejected(self):
        telemetry = TelemetryLog()
        tasks = [Task(key="a", payload={"n": 1}), Task(key="a", payload={"n": 2})]
        scheduler = ProcessPoolScheduler(square_worker, jobs=2, telemetry=telemetry)
        with pytest.raises(ValueError, match="duplicate task key 'a'"):
            scheduler.run(tasks)
        assert telemetry.events == []  # rejected before any unit started

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_retry_then_failure_speaks_the_taxonomy(self, jobs):
        telemetry = TelemetryLog()
        scheduler = ProcessPoolScheduler(
            raising_worker,
            jobs=jobs,
            retry=RetryPolicy(max_retries=2, backoff=0.01),
            telemetry=telemetry,
        )
        results = scheduler.run(_tasks(2))
        for key, result in results.items():
            assert result.status == "failed"
            assert result.attempts == 3
            assert result.error.kind is ErrorKind.WORKER_ERROR
            assert result.error.path == key
            assert "unlucky" in result.error.detail
        retries = telemetry.unit_events("unit_retry")
        assert len(retries) == 4  # 2 units x 2 retries

    def test_hard_crash_is_retried_then_succeeds(self, tmp_path):
        tasks = [
            Task(
                key="flaky",
                payload={"counter": str(tmp_path / "count"), "crashes": 2},
            ),
            Task(key="steady", payload={"counter": str(tmp_path / "n"), "crashes": 0}),
        ]
        telemetry = TelemetryLog()
        scheduler = ProcessPoolScheduler(
            crash_until_worker,
            jobs=2,
            retry=RetryPolicy(max_retries=2, backoff=0.01),
            telemetry=telemetry,
        )
        results = scheduler.run(tasks)
        assert results["flaky"].ok
        assert results["flaky"].attempts == 3
        assert results["flaky"].value == {"survived_after": 2}
        assert results["steady"].ok and results["steady"].attempts == 1
        crash_retries = [
            event
            for event in telemetry.unit_events("unit_retry")
            if event["unit"] == "flaky"
        ]
        assert len(crash_retries) == 2
        assert all("exit code 13" in event["error"] for event in crash_retries)

    def test_hard_crash_exhausts_retries_into_failure(self, tmp_path):
        tasks = [
            Task(
                key="doomed",
                payload={"counter": str(tmp_path / "count"), "crashes": 99},
            ),
            Task(key="fine", payload={"counter": str(tmp_path / "n"), "crashes": 0}),
        ]
        scheduler = ProcessPoolScheduler(
            crash_until_worker, jobs=2, retry=RetryPolicy(max_retries=1, backoff=0.01)
        )
        results = scheduler.run(tasks)
        assert results["doomed"].status == "failed"
        assert results["doomed"].error.kind is ErrorKind.WORKER_ERROR
        assert "exit code 13" in results["doomed"].error.detail
        assert results["fine"].ok  # the pool survived its neighbor

    def test_timeout_terminates_and_fails_the_unit(self):
        tasks = [
            Task(key="hung", payload={"seconds": 30.0}),
            Task(key="quick", payload={"seconds": 0.0}),
        ]
        scheduler = ProcessPoolScheduler(
            sleeping_worker,
            jobs=2,
            retry=RetryPolicy(max_retries=0, backoff=0.01, timeout=0.5),
        )
        results = scheduler.run(tasks)
        assert results["hung"].status == "failed"
        assert "timed out" in results["hung"].error.detail
        assert results["quick"].ok
