"""The runtime wired through the study pipeline and the CLI.

The load-bearing guarantees: any ``jobs`` value renders byte-identical
tables and figures from the same seed (the acceptance bar for the
parallel path); a worker crash costs the study one quarantined dataset
under the tolerant policies and a typed raise under strict; warm store
runs short-circuit inside the workers; and the CLI flags surface all of
it without perturbing stdout.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import repro.core.study as study_module
from repro.analysis.errors import ErrorKind, IngestionError
from repro.core.cli import main
from repro.core.study import _dataset_unit_worker, run_study
from repro.runtime import RetryPolicy

_PARAMS = dict(seed=7, scale=0.004, datasets=("D0", "D1"), max_windows=2)
_TABLES = (1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_FAST_RETRY = RetryPolicy(max_retries=1, backoff=0.01)


def _study_digest(results) -> str:
    """One digest over every rendered table and figure of a run."""
    digest = hashlib.sha256()
    for number in _TABLES:
        digest.update(results.render_table(number).encode())
    for number in range(1, 11):
        digest.update(results.render_figure(number).encode())
    digest.update(results.render_data_quality().encode())
    return digest.hexdigest()


# -- workers (module-level: they cross the fork boundary) --------------------


def _crash_d1_worker(spec):
    """The real dataset worker, except D1 dies hard every time."""
    if spec["dataset"] == "D1":
        os._exit(23)
    return _dataset_unit_worker(spec)


# -- determinism -------------------------------------------------------------


class TestDeterminism:
    def test_same_digest_at_jobs_1_2_4(self):
        digests = {
            jobs: _study_digest(run_study(jobs=jobs, **_PARAMS))
            for jobs in (1, 2, 4)
        }
        assert digests[1] == digests[2] == digests[4]

    def test_parallel_run_against_store_matches_and_hits_cache(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = run_study(jobs=2, store_dir=store_dir, **_PARAMS)
        warm = run_study(jobs=2, store_dir=store_dir, **_PARAMS)
        assert _study_digest(cold) == _study_digest(warm)
        cold_caches = {
            event["unit"]: event["cache"]
            for event in cold.telemetry.unit_events("unit_finish")
        }
        warm_caches = {
            event["unit"]: event["cache"]
            for event in warm.telemetry.unit_events("unit_finish")
        }
        assert set(cold_caches.values()) == {"miss"}
        assert set(warm_caches.values()) == {"hit"}

    def test_parallel_matches_sequential_store_bytes(self, tmp_path):
        """A parallel cold run and a sequential cold run shard to
        interchangeable stores: the sequential reader warm-loads what
        parallel workers wrote."""
        par_dir = str(tmp_path / "par")
        run_study(jobs=2, store_dir=par_dir, **_PARAMS)
        warm_sequential = run_study(jobs=1, store_dir=par_dir, **_PARAMS)
        sequential = run_study(jobs=1, **_PARAMS)
        assert _study_digest(warm_sequential) == _study_digest(sequential)
        hit = [
            event["cache"]
            for event in warm_sequential.telemetry.unit_events("unit_finish")
        ]
        assert set(hit) == {"hit"}

    def test_out_dir_pcaps_identical_across_jobs(self, tmp_path):
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        run_study(jobs=1, out_dir=str(seq_dir), **_PARAMS)
        run_study(jobs=4, out_dir=str(par_dir), **_PARAMS)
        seq_files = sorted(p.relative_to(seq_dir) for p in seq_dir.rglob("*.pcap"))
        par_files = sorted(p.relative_to(par_dir) for p in par_dir.rglob("*.pcap"))
        assert seq_files == par_files and seq_files
        for rel in seq_files:
            assert (seq_dir / rel).read_bytes() == (par_dir / rel).read_bytes(), rel


def _receipts(results) -> dict[str, tuple]:
    """Each unit's ``(packets, bytes, cache)`` from its ``unit_finish``."""
    return {
        event["unit"]: (event["packets"], event["bytes"], event["cache"])
        for event in results.telemetry.unit_events("unit_finish")
    }


class TestReceipts:
    def test_jobs_1_and_2_report_the_same_receipts(self, tmp_path):
        """Both paths run the same dataset unit, so a cold store, a warm
        store and no store each give identical per-unit counters."""
        runs = {}
        for jobs in (1, 2):
            store_dir = str(tmp_path / f"store-{jobs}")
            runs[jobs] = {
                "cold": _receipts(run_study(jobs=jobs, store_dir=store_dir, **_PARAMS)),
                "warm": _receipts(run_study(jobs=jobs, store_dir=store_dir, **_PARAMS)),
                "none": _receipts(run_study(jobs=jobs, **_PARAMS)),
            }
        assert runs[1] == runs[2]
        runs = runs[1]
        assert set(runs["cold"]) == {"dataset:D0", "dataset:D1"}
        for unit, (packets, size, cache) in runs["cold"].items():
            assert packets > 0 and size > 0 and cache == "miss"
            assert runs["warm"][unit] == (packets, 0, "hit")
            assert runs["none"][unit] == (packets, size, None)


# -- fault recovery ----------------------------------------------------------


class TestWorkerFaults:
    def test_tolerant_policy_quarantines_the_failed_unit(self, monkeypatch):
        monkeypatch.setattr(
            study_module, "_dataset_unit_worker", _crash_d1_worker
        )
        results = run_study(
            jobs=2, error_policy="tolerant", retry=_FAST_RETRY, **_PARAMS
        )
        assert set(results.analyses) == {"D0"}  # D1 quarantined, study alive
        assert len(results.unit_failures) == 1
        failure = results.unit_failures[0]
        assert failure.kind is ErrorKind.WORKER_ERROR
        assert failure.path == "dataset:D1"
        assert "exit code 23" in failure.detail
        assert results.total_errors >= 1
        quality = results.render_data_quality()
        assert "unit dataset:D1 failed (worker_error)" in quality
        retries = results.telemetry.unit_events("unit_retry")
        assert [event["unit"] for event in retries] == ["dataset:D1"]

    def test_strict_policy_raises_typed_worker_error(self, monkeypatch):
        monkeypatch.setattr(
            study_module, "_dataset_unit_worker", _crash_d1_worker
        )
        with pytest.raises(IngestionError) as info:
            run_study(jobs=2, retry=_FAST_RETRY, **_PARAMS)
        assert info.value.kind is ErrorKind.WORKER_ERROR
        assert "dataset:D1" in str(info.value)

    def test_unknown_dataset_rejected_before_any_worker_starts(self):
        with pytest.raises(KeyError):
            run_study(jobs=2, seed=7, scale=0.004, datasets=("D0", "DX"))


# -- the CLI -----------------------------------------------------------------

_CLI_ARGS = [
    "--seed", "7", "--scale", "0.004", "--datasets", "D0", "D1",
    "--max-windows", "2", "--tables", "2", "--figures",
]


class TestCli:
    def test_jobs_flag_leaves_stdout_byte_identical(self, capsys):
        assert main(_CLI_ARGS) == 0
        sequential = capsys.readouterr().out
        assert main(_CLI_ARGS + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_progress_and_telemetry_flags(self, tmp_path, capsys):
        telemetry_path = tmp_path / "events.jsonl"
        assert main(
            _CLI_ARGS
            + ["--jobs", "2", "--progress", "--telemetry", str(telemetry_path)]
        ) == 0
        captured = capsys.readouterr()
        assert "[runtime] dataset:D0" in captured.err
        assert "Runtime: per-unit wall time" in captured.err  # timing table
        records = [
            json.loads(line)
            for line in telemetry_path.read_text().strip().splitlines()
        ]
        events = [record["event"] for record in records]
        assert events[0] == "study_start"
        assert events[-1] == "study_finish"
        assert events.count("unit_finish") == 2
