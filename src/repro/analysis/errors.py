"""Error policies, taxonomy, and budgets for resilient trace ingestion.

Real measurement pipelines meet real measurement pathology: the paper's
traces (§2) included header-only snaplen-68 captures, capture drops the
kernel never reported, and partially written files.  This module gives
the ingestion layer one vocabulary for those defects and three ways to
react to them:

* ``strict`` — raise a typed :class:`IngestionError` on the first defect
  (the historical behavior, and still the default).
* ``tolerant`` — record the defect, salvage what can be salvaged, and
  quarantine a trace only when its :class:`ErrorBudget` is exhausted.
* ``skip-trace`` — quarantine a trace on its first defect but keep the
  rest of the study running.

The taxonomy (:class:`ErrorKind`) is deliberately small and closed: every
defect the reader, decoder, or engine can meet maps onto one of ten
kinds, so error accounting stays comparable across datasets and runs.
(``worker_error`` belongs to the parallel execution runtime: a work unit
that crashed, raised, or timed out in a worker process after exhausting
its retries — see :mod:`repro.runtime`.  ``flow_overflow`` and
``early_eviction`` are the ingest engine's graceful-degradation
notes — a bounded flow table shedding state under pressure rather than
raising (see :mod:`repro.analysis.flow`); they are counted in the data-quality
section but never consume a trace's :class:`ErrorBudget`.)
Nothing in this module imports the rest of the analysis package; the
pcap reader imports it lazily to avoid a package cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "ErrorKind",
    "ErrorPolicy",
    "IngestionError",
    "TraceQuarantined",
    "TraceError",
    "ErrorBudget",
    "TraceErrorLog",
    "CircuitBreaker",
    "AnalyzerFailure",
]


class ErrorKind(str, Enum):
    """The closed taxonomy of ingestion defects."""

    #: The file's magic number is not a pcap magic (either byte order).
    BAD_MAGIC = "bad_magic"
    #: The global or a per-record header was cut short.
    TRUNCATED_HEADER = "truncated_header"
    #: A record body holds fewer bytes than its header claims (or the
    #: claim itself is beyond any sane capture length).
    TRUNCATED_BODY = "truncated_body"
    #: A captured frame too short to carry an Ethernet header.
    RUNT_FRAME = "runt_frame"
    #: Packet decoding or flow ingestion failed on a captured record.
    DECODE_ERROR = "decode_error"
    #: An application analyzer hook raised.
    ANALYZER_ERROR = "analyzer_error"
    #: A runtime work unit crashed, raised, or timed out in a worker
    #: process and exhausted its retries (see :mod:`repro.runtime`).
    WORKER_ERROR = "worker_error"
    #: The bounded flow table hit ``max_flows`` and had to evict a live
    #: flow to admit a new one (see :mod:`repro.analysis.flow`).
    FLOW_OVERFLOW = "flow_overflow"
    #: A live flow was emitted before its natural end (idle/hard timeout
    #: or table overflow) and later saw more packets, splitting what the
    #: default knobs would have reported as one connection.
    EARLY_EVICTION = "early_eviction"
    #: A storage-plane I/O operation failed (ENOSPC, EIO, a lost
    #: rename) while publishing shards, checkpoints, or telemetry; the
    #: tolerant policies degrade to the cold path and account the loss
    #: here instead of aborting the run (see :mod:`repro.chaos`).
    IO_ERROR = "io_error"


class ErrorPolicy(str, Enum):
    """How the ingestion layer reacts to a recorded defect."""

    STRICT = "strict"
    TOLERANT = "tolerant"
    SKIP_TRACE = "skip-trace"

    @classmethod
    def coerce(cls, value: "ErrorPolicy | str") -> "ErrorPolicy":
        """Accept an :class:`ErrorPolicy` or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(policy.value for policy in cls)
            raise ValueError(
                f"unknown error policy {value!r} (expected one of: {names})"
            ) from None


class IngestionError(ValueError):
    """A typed, located ingestion defect (raised under ``strict``).

    Subclasses :class:`ValueError` so callers written against the
    strict-fail reader keep working unchanged.
    """

    def __init__(
        self,
        kind: ErrorKind,
        path: str = "<stream>",
        offset: int | None = None,
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.path = path
        self.offset = offset
        self.detail = detail
        where = path if offset is None else f"{path} at offset {offset}"
        message = f"{kind.value} in {where}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class TraceQuarantined(Exception):
    """Internal signal: abandon the current trace but keep the study."""

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        self.reason = reason
        super().__init__(f"trace {path} quarantined: {reason}")


@dataclass(frozen=True)
class TraceError:
    """One recorded defect (a sample kept for the data-quality report)."""

    kind: ErrorKind
    path: str
    offset: int | None
    detail: str


@dataclass(frozen=True)
class ErrorBudget:
    """How much damage one trace may accumulate before quarantine.

    A trace is quarantined when it exceeds ``max_errors`` defects
    outright, or — once at least ``min_records`` records were ingested
    cleanly — when defects make up more than ``max_fraction`` of all
    records seen.  The fraction test waits for ``min_records`` so a bad
    first packet cannot quarantine an otherwise healthy trace.
    """

    max_errors: int = 1000
    max_fraction: float = 0.25
    min_records: int = 50

    def exceeded(self, errors: int, records_ok: int) -> bool:
        """True when (errors, clean records) breaks this budget."""
        if errors > self.max_errors:
            return True
        if records_ok >= self.min_records:
            return errors / (errors + records_ok) > self.max_fraction
        return False


class TraceErrorLog:
    """Per-trace defect accumulator enforcing one policy and budget.

    The reader and the engine both report into the same log, so the
    budget covers structural file damage and per-packet decode failures
    together.  ``record`` raises :class:`IngestionError` under
    ``strict`` and :class:`TraceQuarantined` when the policy or budget
    says the trace is no longer worth reading.
    """

    #: How many individual defects are kept verbatim per trace.
    SAMPLE_CAP = 20

    def __init__(
        self,
        policy: ErrorPolicy | str = ErrorPolicy.STRICT,
        budget: ErrorBudget | None = None,
        path: str = "<stream>",
    ) -> None:
        self.policy = ErrorPolicy.coerce(policy)
        self.budget = budget if budget is not None else ErrorBudget()
        self.path = path
        self.counts: dict[str, int] = {}
        self.samples: list[TraceError] = []
        #: Records ingested without defect (the budget's denominator);
        #: bumped by whichever layer drives ingestion.
        self.records_ok = 0
        self.quarantined = False

    @property
    def total(self) -> int:
        """Total defects recorded so far."""
        return sum(self.counts.values())

    def record(
        self,
        kind: ErrorKind,
        offset: int | None = None,
        detail: str = "",
        fatal: bool = False,
    ) -> None:
        """Account one defect; may raise depending on the policy.

        ``fatal`` marks defects after which nothing in the trace can be
        trusted (an unreadable global header, say): they quarantine even
        under ``tolerant``.
        """
        if self.policy is ErrorPolicy.STRICT:
            raise IngestionError(kind, self.path, offset, detail)
        self.counts[kind.value] = self.counts.get(kind.value, 0) + 1
        if len(self.samples) < self.SAMPLE_CAP:
            self.samples.append(TraceError(kind, self.path, offset, detail))
        if self.policy is ErrorPolicy.SKIP_TRACE:
            self.quarantined = True
            raise TraceQuarantined(self.path, f"{kind.value} under skip-trace policy")
        if fatal:
            self.quarantined = True
            raise TraceQuarantined(self.path, f"unreadable trace: {kind.value}")
        if self.budget.exceeded(self.total, self.records_ok):
            self.quarantined = True
            raise TraceQuarantined(
                self.path,
                f"error budget exceeded ({self.total} defects, "
                f"{self.records_ok} clean records)",
            )


class CircuitBreaker:
    """Failure counter that disables a misbehaving analyzer.

    One breaker guards one analyzer: after ``max_failures`` exceptions
    from any of its hooks the breaker opens and the engine stops calling
    the analyzer, so a crashing analyzer cannot abort the study or slow
    every remaining packet down with raise/catch churn.
    """

    def __init__(self, name: str, max_failures: int = 3) -> None:
        self.name = name
        self.max_failures = max_failures
        self.failures = 0
        self.first_error = ""
        self.last_error = ""
        self.open = False

    def record_failure(self, hook: str, exc: BaseException) -> bool:
        """Count one hook failure; returns True once the breaker is open."""
        self.failures += 1
        description = f"{hook}: {exc!r}"
        if not self.first_error:
            self.first_error = description
        self.last_error = description
        if self.failures >= self.max_failures:
            self.open = True
        return self.open


@dataclass(frozen=True)
class AnalyzerFailure:
    """Stand-in stored in ``analyzer_results`` for a failed analyzer.

    Downstream report builders can test for this type to render a
    placeholder instead of crashing on a missing report object.
    """

    name: str
    failures: int
    first_error: str
    disabled: bool = True
    errors: tuple[TraceError, ...] = field(default=())

    def __bool__(self) -> bool:  # a failed analyzer is "no result"
        return False
