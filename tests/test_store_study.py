"""The store wired through the study pipeline and the CLI.

The load-bearing guarantees: a warm-cache run renders byte-identical
tables and figures while never opening a pcap; same-seed runs shard to
byte-identical stores; mutated trace bytes can never be served a stale
cached analysis; and a damaged store degrades by policy — strict raises,
tolerant falls back to a cold run.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro.analysis.engine as engine_module
from repro.core.cli import main
from repro.core.study import analyze_dataset, run_study
from repro.gen.faults import corrupt_dataset
from repro.store import ConnStore, ShardError

_PARAMS = dict(seed=7, scale=0.004, datasets=("D0",), max_windows=4)

_TABLES = (1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)


def _forbid_pcap_parsing(monkeypatch):
    """Make any pcap ingestion attempt fail loudly."""

    def explode(self, path):
        raise AssertionError(f"warm run opened a pcap: {path}")

    monkeypatch.setattr(
        engine_module.DatasetAnalyzer, "process_pcap", explode
    )


def test_warm_run_matches_cold_without_touching_pcaps(
    store_study, monkeypatch
):
    cold, root = store_study
    _forbid_pcap_parsing(monkeypatch)
    warm = run_study(store_dir=str(root), **_PARAMS)
    for number in _TABLES:
        assert warm.render_table(number) == cold.render_table(number), number
    for number in range(1, 11):
        assert warm.render_figure(number) == cold.render_figure(number), number
    assert warm.render_data_quality() == cold.render_data_quality()
    assert warm.config.store_dir == str(root)


def test_no_reuse_store_forces_a_cold_run(store_study, tmp_path):
    cold, root = store_study
    private = tmp_path / "store"
    shutil.copytree(root, private)
    rerun = run_study(store_dir=str(private), reuse_store=False, **_PARAMS)
    for number in _TABLES:
        assert rerun.render_table(number) == cold.render_table(number), number


def test_same_seed_runs_shard_byte_identically(tmp_path):
    digests = []
    for name in ("a", "b"):
        root = tmp_path / name
        run_study(seed=11, scale=0.004, datasets=("D0",), max_windows=2,
                  store_dir=str(root))
        digests.append(sorted(p.name for p in root.glob("objects/*/*.rcs")))
    assert digests[0] == digests[1]
    assert digests[0]  # non-empty: 2 trace shards + 1 dataset shard


def test_default_knob_cache_keys_are_pinned(tmp_path):
    """The content and generation keys of a default run are fixed hex
    values, so a change to the engine's options cannot silently orphan
    every existing store."""
    run_study(seed=7, scale=0.002, datasets=("D1",), max_windows=1,
              store_dir=str(tmp_path))
    assert sorted(p.stem for p in (tmp_path / "manifests").glob("*.json")) == [
        "a654f1a042457b6369977b5f3a2f0feb0c6e1f3d05543c0617ee617b5ae702fa",
        "gen-6fadea57f5a2722016e93867d0b4d901cb5860f904e62251855f1ec3c2abd774",
    ]


def test_changed_parameters_miss_the_generation_cache(store_study, monkeypatch):
    _, root = store_study
    _forbid_pcap_parsing(monkeypatch)
    with pytest.raises(AssertionError, match="opened a pcap"):
        run_study(seed=8, scale=0.004, datasets=("D0",), max_windows=4,
                  store_dir=str(root))


def test_corrupted_traces_miss_the_content_cache(tmp_path):
    """``corrupt_dataset`` mutations must force a cold re-parse."""
    root = tmp_path / "store"
    params = dict(seed=5, scale=0.004, datasets=("D0",), max_windows=2,
                  store_dir=str(root))
    run_study(**params)
    store = ConnStore(root)
    keys = {manifest["key"] for manifest in store.manifests()}
    assert len(keys) == 1
    # Wire-legal faults only, so even a strict analysis succeeds — the
    # point is the key, not the defect handling.
    mutated = run_study(
        mutate_traces=lambda name, traces: corrupt_dataset(
            traces, seed=5, faults=["duplicate_records"]
        ),
        error_policy="tolerant",
        **params,
    )
    keys_after = {manifest["key"] for manifest in store.manifests()}
    assert len(keys_after) == 2 and keys < keys_after
    assert mutated.analyses["D0"].conns


def test_damaged_store_strict_raises_tolerant_falls_back(store_study, tmp_path):
    cold, root = store_study
    private = tmp_path / "store"
    shutil.copytree(root, private)
    victim = sorted(private.glob("objects/*/*.rcs"))[0]
    victim.write_bytes(victim.read_bytes()[:-16])
    with pytest.raises(ShardError):
        run_study(store_dir=str(private), **_PARAMS)
    recovered = run_study(
        store_dir=str(private), error_policy="tolerant", **_PARAMS
    )
    for number in _TABLES:
        assert recovered.render_table(number) == cold.render_table(number)


def test_analyze_dataset_reuses_the_content_cache(store_study, monkeypatch, tmp_path):
    """A direct ``analyze_dataset`` call hits the same cache by content."""
    cold, root = store_study
    out = tmp_path / "traces"
    regenerated = run_study(out_dir=str(out), **_PARAMS)
    _forbid_pcap_parsing(monkeypatch)
    analysis = analyze_dataset(
        "D0",
        regenerated.traces["D0"],
        known_scanners=tuple(sorted(cold.analyses["D0"].scanner_sources)),
        store=ConnStore(root),
    )
    assert analysis.conns == cold.analyses["D0"].conns


def test_out_dir_is_created_with_parents(tmp_path):
    target = tmp_path / "fresh" / "nested" / "dir"
    results = run_study(out_dir=str(target), **_PARAMS)
    pcaps = list((target / "D0").glob("*.pcap"))
    assert len(pcaps) == len(results.traces["D0"].traces)


def test_warm_run_rewrites_trace_paths_under_out_dir(store_study, tmp_path):
    _, root = store_study
    out = tmp_path / "kept"
    warm = run_study(store_dir=str(root), out_dir=str(out), **_PARAMS)
    for trace in warm.traces["D0"].traces:
        assert Path(trace.path).is_absolute()
        assert str(trace.path).startswith(str(out))


# -- CLI --------------------------------------------------------------------


def test_cli_store_ls_and_gc(store_study, tmp_path, capsys):
    _, root = store_study
    private = tmp_path / "store"
    shutil.copytree(root, private)
    assert main(["store", "ls", "--store-dir", str(private)]) == 0
    out = capsys.readouterr().out
    assert "1 cached analyses" in out
    assert "D0" in out
    assert main(["store", "gc", "--store-dir", str(private)]) == 0
    assert "removed 0 unreferenced objects" in capsys.readouterr().out


def test_cli_store_query(store_study, capsys):
    _, root = store_study
    assert main([
        "store", "query", "--store-dir", str(root),
        "--by", "proto", "--locality", "ent-ent",
    ]) == 0
    out = capsys.readouterr().out
    assert "store query by proto" in out
    assert "total" in out


def test_cli_study_accepts_store_flags(store_study, capsys):
    _, root = store_study
    assert main([
        "--seed", "7", "--scale", "0.004", "--datasets", "D0",
        "--max-windows", "4", "--store-dir", str(root),
        "--tables", "2", "--figures",
    ]) == 0
    assert "Table 2" in capsys.readouterr().out
