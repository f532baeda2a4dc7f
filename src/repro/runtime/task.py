"""The unit-of-work model for the parallel execution runtime.

A study decomposes into independent :class:`Task` units, one per
dataset, handed to the scheduler as a plain sequence whose keys are
unique.  Payloads must be plain picklable data (dicts, tuples,
scalars): they cross a process boundary into a worker.

Determinism note: tasks carry no RNG state of their own.  Every unit
derives its random streams from the *study* seed plus its own stable
key (see :mod:`repro.util.rng`), so the bytes a unit produces cannot
depend on which worker ran it, in what order, or how many workers there
were.  ``docs/runtime.md`` spells out the seeding rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["Task"]


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``key`` is the unit's stable identity — it names the unit in
    telemetry events and results, and seeds its RNG streams.
    ``payload`` is the picklable spec handed to the worker callable;
    ``kind`` groups units for display ("dataset", ...).
    """

    key: str
    payload: Mapping
    kind: str = "unit"
