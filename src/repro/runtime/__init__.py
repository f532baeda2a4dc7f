"""Parallel execution runtime: independent units, a process-pool
scheduler, worker fault recovery, and structured progress telemetry.

The paper's datasets are embarrassingly parallel — each tap period is an
independent trace — and this package encodes that shape as a reusable
subsystem: split work into seeded :class:`Task` units, fan them out
across processes with :class:`ProcessPoolScheduler`, and account every
fault through the ingestion error taxonomy instead of aborting.  See
``docs/runtime.md``.
"""

from .scheduler import (
    ProcessPoolScheduler,
    RetryPolicy,
    UnitResult,
    resolve_jobs,
    start_heartbeat,
    stop_heartbeat,
)
from .task import Task
from .telemetry import TelemetryLog, follow_events, read_events

__all__ = [
    "Task",
    "ProcessPoolScheduler",
    "RetryPolicy",
    "UnitResult",
    "resolve_jobs",
    "start_heartbeat",
    "stop_heartbeat",
    "TelemetryLog",
    "follow_events",
    "read_events",
]
