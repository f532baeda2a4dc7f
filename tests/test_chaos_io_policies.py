"""Storage faults meet the error policies: degrade, account, never lose.

The load-bearing guarantees from the chaos fault plane's consumers: a
shard publication that fails mid-write degrades a tolerant run to the
cold path with an ``io_error`` data-quality row (strict raises a typed
:class:`IngestionError`), a checkpoint that cannot publish degrades the
stream run to in-memory buffering without losing a single connection,
telemetry survives a dying log disk, and none of it ever leaks a stale
temp file.
"""

from __future__ import annotations

import pytest

from repro.analysis.errors import ErrorKind, IngestionError
from repro.chaos import FaultKind, FaultPlane, FaultRule, activate, deactivate
from repro.core.study import analyze_dataset
from repro.gen.capture import generate_dataset
from repro.gen.topology import Enterprise, Role
from repro.report.quality import data_quality_table
from repro.runtime.telemetry import TelemetryLog, read_events
from repro.store import ConnStore
from repro.analysis.engine import StreamConfig


@pytest.fixture(autouse=True)
def honest_io():
    deactivate()
    yield
    deactivate()


@pytest.fixture(scope="module")
def small_traces(tmp_path_factory):
    """One tiny generated D0 dataset shared by the policy tests."""
    out = tmp_path_factory.mktemp("chaos-traces")
    enterprise = Enterprise(seed=3)
    traces = generate_dataset(
        "D0", enterprise, out / "D0", seed=3, scale=0.004, max_windows=2
    )
    scanners = tuple(host.ip for host in enterprise.servers(Role.SCANNER))
    return traces, scanners


def _shard_fault(kind: FaultKind) -> FaultPlane:
    """A plane failing the first shard-object publication."""
    return FaultPlane(rules=[FaultRule(kind, op="publish", path="*.rcs", at=(1,))])


# -- shard publication -------------------------------------------------------


@pytest.mark.parametrize("kind", [FaultKind.ENOSPC, FaultKind.EIO])
def test_strict_raises_on_failed_shard_publication(small_traces, tmp_path, kind):
    traces, scanners = small_traces
    store = ConnStore(tmp_path / "store")
    activate(_shard_fault(kind))
    with pytest.raises(IngestionError) as excinfo:
        analyze_dataset("D0", traces, scanners, error_policy="strict", store=store)
    assert excinfo.value.kind is ErrorKind.IO_ERROR
    assert "shard publication failed" in excinfo.value.detail
    deactivate()
    # Nothing half-published: with the in-flight grace disabled, the gc
    # sweep finds zero temp files of any age.
    report = store.gc(dry_run=True, tmp_grace_s=0.0)
    assert report.stale_tmp == 0


def test_tolerant_degrades_to_cold_path_with_quality_row(small_traces, tmp_path):
    traces, scanners = small_traces
    store = ConnStore(tmp_path / "store")
    activate(_shard_fault(FaultKind.ENOSPC))
    analysis = analyze_dataset(
        "D0", traces, scanners, error_policy="tolerant", store=store
    )
    deactivate()
    # The analysis itself is whole — only the cache entry was lost.
    assert analysis.conns
    assert analysis.io_errors == {"shard_publication": 1}
    assert analysis.error_totals()[ErrorKind.IO_ERROR.value] == 1
    table = data_quality_table({"D0": analysis})
    assert table.cell(f"errors: {ErrorKind.IO_ERROR.value}", "D0") == 1
    assert store.gc(dry_run=True, tmp_grace_s=0.0).stale_tmp == 0
    # An honest retry populates the cache and carries no io_error rows.
    clean = analyze_dataset(
        "D0", traces, scanners, error_policy="tolerant", store=store
    )
    assert clean.io_errors == {}
    assert ErrorKind.IO_ERROR.value not in clean.error_totals()


# -- checkpoint publication --------------------------------------------------


def _checkpoint_fault() -> FaultPlane:
    """Fail the first checkpoint publication (manifest or state shard).

    The ``rename`` guard inside :func:`~repro.chaos.fsio.publish_bytes`
    shares the publication counter, so targeting the checkpoint
    manifest path catches the run mid-checkpoint regardless of which
    store op lands first.
    """
    return FaultPlane(
        rules=[FaultRule(FaultKind.EIO, op="publish", path="*ckpt-*", at=(1,))]
    )


def test_strict_raises_on_failed_checkpoint(small_traces, tmp_path):
    traces, scanners = small_traces
    store = ConnStore(tmp_path / "store")
    activate(_checkpoint_fault())
    with pytest.raises(IngestionError) as excinfo:
        analyze_dataset(
            "D0",
            traces,
            scanners,
            error_policy="strict",
            store=store,
            stream=StreamConfig(checkpoint_every=100),
        )
    assert excinfo.value.kind is ErrorKind.IO_ERROR
    assert "checkpoint publication failed" in excinfo.value.detail


def test_tolerant_checkpoint_failure_buffers_in_memory(small_traces, tmp_path):
    traces, scanners = small_traces
    baseline = analyze_dataset("D0", traces, scanners, error_policy="tolerant")
    store = ConnStore(tmp_path / "store")
    activate(_checkpoint_fault())
    analysis = analyze_dataset(
        "D0",
        traces,
        scanners,
        error_policy="tolerant",
        store=store,
        stream=StreamConfig(checkpoint_every=100),
    )
    deactivate()
    # Not one connection lost to the failed checkpoint...
    assert analysis.conns == baseline.conns
    # ...and the degradation is accounted, not hidden.
    assert analysis.error_totals().get(ErrorKind.IO_ERROR.value, 0) >= 1
    assert store.gc(dry_run=True, tmp_grace_s=0.0).stale_tmp == 0


# -- telemetry ----------------------------------------------------------------


def test_telemetry_survives_a_dying_log_disk(tmp_path):
    path = tmp_path / "events.jsonl"
    activate(FaultPlane(rules=[FaultRule(FaultKind.EIO, op="append", at=(2,))]))
    with TelemetryLog(path=path) as log:
        log.emit("study_start", jobs=1)
        log.emit("unit_start", unit="dataset:D0")  # the write that dies
        log.emit("unit_finish", unit="dataset:D0")
        assert log.dropped_writes == 2  # sink closed after first failure
        assert len(log.events) == 3  # in-memory stream keeps recording
    deactivate()
    events, bad = read_events(path)
    assert [event["event"] for event in events] == ["study_start"]
    assert bad == 0


def test_read_events_tolerates_a_truncated_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    with TelemetryLog(path=path) as log:
        log.emit("study_start", jobs=1)
        log.emit("unit_finish", unit="dataset:D0", status="ok")
    # Simulate a kill mid-write: a partial trailing line.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "study_fin')
    events, bad = read_events(path)
    assert [event["event"] for event in events] == ["study_start", "unit_finish"]
    assert bad == 1
