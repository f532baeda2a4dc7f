"""Background study jobs: bounded queue, worker threads, backpressure.

``POST /studies`` does not run a study inside the request handler — a
study takes seconds to minutes, and an HTTP client deserves an answer in
milliseconds.  Instead the handler submits a :class:`StudyJob` to the
:class:`JobManager`, gets a run id back immediately, and the client
polls ``GET /jobs/<id>`` until the job reports ``done`` (or ``failed``).

Execution rides the PR-3 runtime: the default runner calls
:func:`repro.core.study.run_study` with the submitted worker count, so a
job's datasets fan out across the process-pool scheduler with its retry
and watchdog machinery, and the finished analyses land in the service's
ConnStore — where the query endpoints (and the response cache's state
token) pick them up on the next request.

Backpressure is explicit and bounded: the pending queue holds at most
``queue_limit`` jobs.  A submit against a full queue returns ``None``
and the handler answers **429 Too Many Requests** with a
``Retry-After`` estimate — the service never queues unboundedly and
never hangs a client waiting for capacity.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from typing import Callable

from ..analysis.errors import ErrorPolicy
from ..gen.datasets import DATASET_ORDER

__all__ = ["StudyJob", "JobManager", "validate_study_request"]

#: Submitted-parameter defaults: a deliberately small study, so a bare
#: ``POST /studies`` probes the pipeline rather than occupying a worker
#: for minutes.
_DEFAULTS = {
    "seed": 0,
    "scale": 0.004,
    "datasets": ("D0",),
    "max_windows": 2,
    "jobs": 2,
    "error_policy": ErrorPolicy.TOLERANT.value,
}

#: Hard ceiling on submitted scale: the service is a query front end,
#: not a batch cluster; a full-volume run must go through the CLI.
_MAX_SCALE = 0.1

_TERMINAL = frozenset({"done", "failed"})


def validate_study_request(payload: object) -> dict:
    """Normalize one ``POST /studies`` body; raises ``ValueError``.

    Unknown keys are rejected (a typoed ``dataset`` silently running
    the default study would be worse than a 400), and every accepted
    value is range-checked before it gets near a worker.
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ValueError("study request must be a JSON object")
    unknown = set(payload) - set(_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown study parameters: {sorted(unknown)}")
    request = dict(_DEFAULTS)
    request.update(payload)
    request["seed"] = int(request["seed"])
    request["scale"] = float(request["scale"])
    if not 0.0 < request["scale"] <= _MAX_SCALE:
        raise ValueError(
            f"scale must be in (0, {_MAX_SCALE}] for service jobs, "
            f"got {request['scale']}"
        )
    datasets = tuple(request["datasets"])
    for name in datasets:
        if name not in DATASET_ORDER:
            raise ValueError(
                f"unknown dataset {name!r} (one of {list(DATASET_ORDER)})"
            )
    if not datasets:
        raise ValueError("datasets must name at least one dataset")
    request["datasets"] = datasets
    if request["max_windows"] is not None:
        request["max_windows"] = int(request["max_windows"])
        if request["max_windows"] < 1:
            raise ValueError("max_windows must be >= 1")
    request["jobs"] = max(0, int(request["jobs"]))
    request["error_policy"] = ErrorPolicy.coerce(request["error_policy"]).value
    return request


class StudyJob:
    """One submitted study: its request, lifecycle, and outcome."""

    def __init__(self, request: dict) -> None:
        self.id = uuid.uuid4().hex[:16]
        self.request = request
        self.state = "queued"  # queued | running | done | failed
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.result: dict | None = None
        self.error: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def payload(self) -> dict:
        """The ``GET /jobs/<id>`` body."""
        body: dict = {
            "id": self.id,
            "state": self.state,
            "request": {
                **self.request,
                "datasets": list(self.request["datasets"]),
            },
            "submitted": round(self.submitted, 6),
        }
        if self.started is not None:
            body["started"] = round(self.started, 6)
        if self.finished is not None:
            body["finished"] = round(self.finished, 6)
            body["wall_s"] = round(self.finished - (self.started or self.finished), 6)
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        return body


def _run_study_job(request: dict, store_dir: str) -> dict:
    """The default runner: the study through the PR-3 runtime, results
    into the service's store (import deferred so the service module can
    load without pulling the whole pipeline in)."""
    from ..core.study import run_study

    results = run_study(
        seed=request["seed"],
        scale=request["scale"],
        datasets=request["datasets"],
        max_windows=request["max_windows"],
        error_policy=request["error_policy"],
        store_dir=store_dir,
        jobs=request["jobs"],
    )
    return {
        "datasets": {
            name: {
                "packets": analysis.total_packets,
                "conns": len(analysis.conns),
                "errors": analysis.total_errors,
            }
            for name, analysis in results.analyses.items()
        },
        "unit_failures": len(results.unit_failures),
    }


class JobManager:
    """Bounded background execution of submitted studies."""

    def __init__(
        self,
        store_dir: str,
        workers: int = 1,
        queue_limit: int = 4,
        runner: Callable[[dict, str], dict] | None = None,
    ) -> None:
        self.store_dir = str(store_dir)
        self.workers = max(1, int(workers))
        self.queue_limit = max(1, int(queue_limit))
        self.runner = runner if runner is not None else _run_study_job
        self._queue: queue.Queue[StudyJob | None] = queue.Queue(
            maxsize=self.queue_limit
        )
        self._jobs: dict[str, StudyJob] = {}
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._closed = False
        #: Rolling mean job wall time, seeding the Retry-After estimate.
        self._mean_wall = 2.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"job-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and wind the workers down.

        Queued-but-unstarted jobs are marked failed (the client polling
        them deserves a terminal state, not an eternal ``queued``).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        drained: list[StudyJob] = []
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                drained.append(job)
        for job in drained:
            job.state = "failed"
            job.error = "service shut down before the job started"
            job.finished = time.time()
        for _ in self._threads:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                pass
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)

    # -- submission and polling --------------------------------------------

    def submit(self, request: dict) -> StudyJob | None:
        """Enqueue one validated request; ``None`` means "queue full".

        Never blocks: the whole point of the bounded queue is that a
        saturated service answers 429 immediately instead of hanging
        the client until capacity appears.
        """
        job = StudyJob(request)
        with self._lock:
            if self._closed:
                return None
            self._jobs[job.id] = job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                del self._jobs[job.id]
            return None
        return job

    def get(self, job_id: str) -> StudyJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[StudyJob]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.submitted)

    def retry_after(self) -> int:
        """Whole seconds a 429'd client should wait before retrying:
        roughly one mean job per queued-or-running job, floor 1s."""
        backlog = self._queue.qsize() + sum(
            1 for job in self.jobs() if job.state == "running"
        )
        return max(1, int(self._mean_wall * max(1, backlog)))

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "queued": self._queue.qsize(),
            "states": states,
        }

    # -- execution ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            job.state = "running"
            job.started = time.time()
            try:
                job.result = self.runner(job.request, self.store_dir)
            except Exception as exc:  # any failure is the job's, not the pool's
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
            else:
                job.state = "done"
            finally:
                job.finished = time.time()
                wall = job.finished - job.started
                # Exponential moving average; cheap and lock-free (the
                # estimate only feeds Retry-After, approximate by design).
                self._mean_wall = 0.7 * self._mean_wall + 0.3 * max(wall, 0.05)
