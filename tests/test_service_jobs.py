"""Unit tests for study-job validation and the bounded JobManager."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.jobs import JobManager, validate_study_request


# -- request validation ------------------------------------------------------


def test_defaults_fill_in():
    request = validate_study_request({})
    assert request["datasets"] == ("D0",)
    assert "engine" not in request  # one ingest engine: no switch
    assert 0 < request["scale"] <= 0.1


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown study parameters"):
        validate_study_request({"dataset": "D0"})  # the classic typo


@pytest.mark.parametrize(
    "payload",
    [
        {"scale": 0.0},
        {"scale": 0.5},           # above the service ceiling
        {"datasets": ["D9"]},
        {"datasets": []},
        {"max_windows": 0},
        {"engine": "stream"},     # the engine switch is gone
        {"error_policy": "yolo"},
        "not-an-object",
    ],
)
def test_bad_values_rejected(payload):
    with pytest.raises(ValueError):
        validate_study_request(payload)


# -- the manager -------------------------------------------------------------


def test_jobs_run_and_reach_done(tmp_path):
    manager = JobManager(
        str(tmp_path), workers=2, queue_limit=4,
        runner=lambda request, store_dir: {"seed": request["seed"]},
    )
    manager.start()
    try:
        jobs = [
            manager.submit(validate_study_request({"seed": n}))
            for n in range(3)
        ]
        assert all(job is not None for job in jobs)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if all(job.terminal for job in jobs):
                break
            time.sleep(0.01)
        for n, job in enumerate(jobs):
            assert job.state == "done"
            assert job.result == {"seed": n}
            assert job.payload()["wall_s"] >= 0
    finally:
        manager.close()


def test_runner_exception_marks_failed_not_crashed(tmp_path):
    def boom(request, store_dir):
        raise RuntimeError("study exploded")

    manager = JobManager(str(tmp_path), workers=1, runner=boom)
    manager.start()
    try:
        job = manager.submit(validate_study_request({}))
        deadline = time.monotonic() + 10
        while not job.terminal and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.state == "failed"
        assert "study exploded" in job.error
        # The worker survived: the next job still runs.
        follow_up = manager.submit(validate_study_request({}))
        while not follow_up.terminal and time.monotonic() < deadline:
            time.sleep(0.01)
        assert follow_up.terminal
    finally:
        manager.close()


def test_full_queue_returns_none_immediately(tmp_path):
    release = threading.Event()
    manager = JobManager(
        str(tmp_path), workers=1, queue_limit=1,
        runner=lambda request, store_dir: (release.wait(10), {})[1],
    )
    manager.start()
    try:
        submitted = []
        refused = None
        started = time.monotonic()
        for _ in range(5):
            job = manager.submit(validate_study_request({}))
            if job is None:
                refused = True
                break
            submitted.append(job)
        assert refused, "queue never filled"
        assert time.monotonic() - started < 5, "submit must never block"
        assert manager.retry_after() >= 1
        # A refused job leaves no ghost in the table.
        assert len(manager.jobs()) == len(submitted)
    finally:
        release.set()
        manager.close()


def test_close_fails_queued_jobs(tmp_path):
    release = threading.Event()
    manager = JobManager(
        str(tmp_path), workers=1, queue_limit=3,
        runner=lambda request, store_dir: (release.wait(10), {})[1],
    )
    manager.start()
    first = manager.submit(validate_study_request({}))
    deadline = time.monotonic() + 5
    while first.state == "queued" and time.monotonic() < deadline:
        time.sleep(0.01)
    queued = [manager.submit(validate_study_request({})) for _ in range(2)]
    assert all(job is not None for job in queued)
    release.set()
    manager.close(wait=True)
    for job in queued:
        # Either it drained before close popped it, or close failed it —
        # never an eternal "queued" a poller would spin on.
        assert job.terminal
    assert manager.submit(validate_study_request({})) is None  # closed
