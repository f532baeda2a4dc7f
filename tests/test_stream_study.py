"""The ingest knobs wired through the study pipeline and the CLI.

The acceptance bar: checkpointing leaves the rendered study byte for
byte unchanged; turned-down eviction knobs fork the cache key;
bounded-table degradation surfaces as typed data-quality rows instead
of errors; the removed engine switch fails loudly instead of being
ignored; and the ``stream`` subcommand exposes all of it with live
window narration on stderr.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.engine import StreamConfig
from repro.core.cli import main
from repro.core.study import analyze_dataset, run_study
from repro.store.cache import ConnStore

_PARAMS = dict(seed=7, scale=0.004, datasets=("D0", "D1"), max_windows=2)
_TABLES = (1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)


def _study_digest(results) -> str:
    """One digest over every rendered table and figure of a run."""
    digest = hashlib.sha256()
    for number in _TABLES:
        digest.update(results.render_table(number).encode())
    for number in range(1, 11):
        digest.update(results.render_figure(number).encode())
    digest.update(results.render_data_quality().encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def plain_digest():
    return _study_digest(run_study(**_PARAMS))


class TestDigestParity:
    def test_checkpointed_run_matches_plain(self, plain_digest, tmp_path):
        checkpointed = run_study(
            stream=StreamConfig(checkpoint_every=300),
            store_dir=str(tmp_path),
            **_PARAMS,
        )
        assert _study_digest(checkpointed) == plain_digest
        # Completed traces retire their checkpoint manifests.
        assert list(ConnStore(tmp_path).checkpoints()) == []

    def test_unknown_engine_rejected(self):
        # The benchmark's ``engine="stream"`` is the only engine name
        # analyze_dataset still takes; run_study has no switch at all.
        with pytest.raises(ValueError, match="unknown engine"):
            analyze_dataset("D0", None, engine="batch")
        with pytest.raises(TypeError):
            run_study(engine="stream", **_PARAMS)


class TestCacheSharing:
    def test_non_parity_knobs_fork_the_cache_key(self, tmp_path):
        run_study(store_dir=str(tmp_path), **_PARAMS)
        store = ConnStore(tmp_path)
        before = len(list(store.manifests()))
        run_study(
            stream=StreamConfig(max_flows=4),
            store_dir=str(tmp_path),
            **_PARAMS,
        )
        assert len(list(store.manifests())) > before


class TestDegradation:
    def test_tiny_flow_table_degrades_to_quality_rows(self):
        results = run_study(stream=StreamConfig(max_flows=4), **_PARAMS)
        totals = {
            name: analysis.error_totals()
            for name, analysis in results.analyses.items()
        }
        assert any(t.get("flow_overflow", 0) > 0 for t in totals.values())
        rendered = results.render_data_quality()
        assert "errors: flow_overflow" in rendered
        assert "errors: early_eviction" in rendered

    def test_overflow_never_raises_under_strict(self):
        # error_policy defaults to strict in _PARAMS-style runs: the
        # overflow counters must not consume the error budget.
        results = run_study(
            stream=StreamConfig(max_flows=2),
            error_policy="strict",
            **_PARAMS,
        )
        assert not results.unit_failures
        assert all(not a.quarantined_traces() for a in results.analyses.values())


class TestStreamCli:
    def test_stream_subcommand_renders_tables(self, capsys):
        code = main(
            [
                "stream",
                "--seed", "7", "--scale", "0.004",
                "--datasets", "D0",
                "--max-windows", "1",
                "--tables", "2",
                "--figures",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Table 2" in captured.out

    def test_stream_subcommand_matches_main_stdout(self, capsys):
        flags = [
            "--seed", "7", "--scale", "0.004",
            "--datasets", "D0",
            "--max-windows", "1",
            "--tables", "2", "3",
            "--figures", "2",
        ]
        main(flags)
        main_out = capsys.readouterr().out
        main(["stream", *flags])
        stream_out = capsys.readouterr().out
        assert stream_out == main_out

    def test_progress_narrates_windows_on_stderr(self, capsys):
        code = main(
            [
                "stream",
                "--seed", "7", "--scale", "0.004",
                "--datasets", "D0",
                "--max-windows", "1",
                "--window", "60",
                "--tables", "2",
                "--figures",
                "--progress",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "[stream] window" in captured.err
        assert "[stream]" not in captured.out

    def test_engine_flag_on_main_command(self, capsys):
        # The switch is gone: an old invocation naming it must fail
        # loudly, not silently run something else.
        with pytest.raises(SystemExit) as info:
            main(["--engine", "stream", "--seed", "7", "--tables", "2"])
        assert info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_checkpoint_flags_reach_the_engine(self, tmp_path, capsys):
        code = main(
            [
                "stream",
                "--seed", "7", "--scale", "0.004",
                "--datasets", "D0",
                "--max-windows", "1",
                "--store-dir", str(tmp_path),
                "--checkpoint-every", "200",
                "--max-flows", "100000",
                "--tables", "2",
                "--figures",
            ]
        )
        capsys.readouterr()
        assert code == 0
        store = ConnStore(tmp_path)
        assert list(store.manifests())  # the analysis was cached
        assert list(store.checkpoints()) == []  # and checkpoints retired
