"""Tests of the benchmark itself; run with ``python -m pytest bench/test_bench.py``.

They are not part of the tier-1 suite (``testpaths`` is ``tests``): the
workload tests start servers and child processes.
"""

from __future__ import annotations

import json
import re
import shutil
import socket
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pipeline  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracer import SHOULD_MOVE, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [metric["name"] for metric in SPEC["end_to_end"]]
LAYERS = [metric["name"] for metric in SPEC["per_layer"]]

#: Each workload's datasets at a size that runs in a few seconds.
TINY = {"scale": 0.001, "max_windows": 1}


# -- statistics ----------------------------------------------------------------


class TestPercentiles:
    def test_min_samples_leaves_ten_beyond_the_percentile(self):
        assert stats.min_samples(95.0) == 200
        assert stats.min_samples(50.0) == 20
        for q in (50.0, 90.0, 95.0, 99.0):
            n = stats.min_samples(q)
            assert stats.beyond(n, q) >= stats.BEYOND > stats.beyond(n - 1, q)

    def test_bursts_are_sized_for_their_percentiles(self):
        assert stats.beyond(pipeline.HIT_BURST, pipeline.HIT_TAIL) >= stats.BEYOND
        cold_burst = pipeline.COLD_CLIENTS * len(pipeline.SERVE_PATHS)
        assert stats.beyond(cold_burst, 50.0) >= stats.BEYOND

    def test_fast_state_is_the_tenth_percentile_or_its_mirror(self):
        samples = [float(v) for v in range(1, 21)]
        assert stats.fast_state(samples) == 2.0
        assert stats.fast_state(samples, higher_is_better=True) == 18.0
        assert stats.fast_state([3.0, 1.0, 2.0]) == 1.0
        assert stats.fast_state([]) == 0.0

    def test_summary_matches_statistics_quantiles(self):
        summary = stats.summary([5.0, 1.0, 4.0, 2.0, 3.0])
        assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
        assert stats.summary([2.0])["q1"] == 2.0


# -- tracer ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTracer:
    def test_self_time_on_a_nested_tree_with_a_lazy_child(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        leaf = tracer.wrap("leaf", lambda: clock.advance(2.0))

        def packets():
            # Lazy: this body runs inside the consumer's next(), so the
            # leaf it calls is the consumer's child, not the caller's.
            clock.advance(1.0)
            leaf()
            yield 1

        def write_all(stream):
            clock.advance(3.0)
            for _ in stream:
                pass
            clock.advance(1.0)

        writer = tracer.wrap("writer", write_all, keep_span=True)
        outer = tracer.wrap(
            "outer", lambda: (clock.advance(0.5), writer(packets())), keep_span=True
        )
        outer()

        assert tracer.total == {"leaf": 2.0, "writer": 7.0, "outer": 7.5}
        assert tracer.self_time == {"leaf": 2.0, "writer": 5.0, "outer": 0.5}
        assert tracer.calls == {"leaf": 1, "writer": 1, "outer": 1}
        # Only coarse seams keep spans; the writer's parent is the outer span.
        assert tracer.spans == [[None, "outer", 0.0, 7.5], [0, "writer", 0.5, 7.5]]
        writer(iter(()))
        assert tracer.span_tree() == [(0, "outer", 1, 7.5), (1, "writer", 1, 7.0),
                                      (0, "writer", 1, 4.0)]

    def test_counters_and_patching_round_trip(self):
        class Base:
            def inherited(self, data):
                return len(data)

        class Store(Base):
            @staticmethod
            def digest(data):
                return data[::-1]

            def own(self):
                return "own"

        tracer = Tracer()
        originals = (Store.__dict__["digest"], Store.__dict__["own"])
        tracer.patch(Store, "digest", "d", count=lambda args, _: [("bytes", len(args[0]))])
        tracer.patch(Store, "own", "o")
        tracer.patch(Store, "inherited", "i")
        store = Store()
        assert Store.digest("abc") == "cba"
        assert store.digest("ab") == "ba"
        assert store.own() == "own"
        assert store.inherited("xyz") == 3
        assert tracer.calls == {"d": 2, "o": 1, "i": 1}
        assert tracer.counts == {"bytes": 5}
        tracer.uninstall()
        assert (Store.__dict__["digest"], Store.__dict__["own"]) == originals
        assert "inherited" not in Store.__dict__

    def test_install_seams_patches_and_restores_the_program(self):
        from repro.core import study
        from repro.net import tcp

        before = (study.run_study, tcp.internet_checksum)
        tracer = Tracer()
        tracer.install_seams()
        assert study.run_study is not before[0]
        assert tcp.internet_checksum is not before[1]
        tracer.uninstall()
        assert (study.run_study, tcp.internet_checksum) == before


# -- the definition ------------------------------------------------------------------


class TestDefinition:
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_benchmark_json_schema(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert 1 <= len(SPEC["end_to_end"]) <= 16
        assert 1 <= len(SPEC["per_layer"]) <= 128
        names = [w["name"] for w in SPEC["workloads"]] + E2E + LAYERS
        assert len(names) == len(set(names))
        for name in names:
            assert self.NAME.match(name), name
        for metric in SPEC["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert metric["better"] in ("lower", "higher")
            assert 0 < metric["bound"] <= 0.25
        for metric in SPEC["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
            assert metric["better"] in ("lower", "higher")
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    def test_workloads_match_the_code(self):
        assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
            name: workload.why for name, workload in pipeline.WORKLOADS.items()
        }

    def test_every_layer_metric_names_what_it_should_move(self):
        assert set(SHOULD_MOVE) == set(LAYERS)
        for name, (moves, workloads) in SHOULD_MOVE.items():
            assert set(moves) <= set(E2E), name
            assert workloads and set(workloads) <= set(pipeline.WORKLOADS), name
            assert moves or name == "trace.overhead_pct", name

    def test_pins_cover_every_workload(self):
        pins = json.loads(run.PINS_PATH.read_text())
        assert set(pins["digests"]) == set(pipeline.WORKLOADS)
        for digests in pins["digests"].values():
            assert set(digests) == {"study", "ingest"}


class TestVerdict:
    A = {"median": 100.0, "q1": 98.0, "q3": 102.0, "n": 3}

    def summary(self, median, spread=2.0):
        return {"median": median, "q1": median - spread, "q3": median + spread, "n": 3}

    def test_within_the_bound_is_ok(self):
        assert run.verdict(self.A, self.summary(95.0), "higher", 0.10)[1] == "ok"

    def test_beyond_the_bound_with_disjoint_quartiles(self):
        assert run.verdict(self.A, self.summary(80.0), "higher", 0.10)[1] == "worse"
        assert run.verdict(self.A, self.summary(80.0), "lower", 0.10)[1] == "better"
        assert run.verdict(self.A, self.summary(120.0), "lower", 0.10)[1] == "worse"

    def test_beyond_the_bound_with_overlapping_quartiles_is_unresolved(self):
        wide = self.summary(85.0, spread=20.0)
        assert run.verdict(self.A, wide, "higher", 0.10)[1] == "unresolved"


# -- workloads, reduced ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_reduced_workload_measures_every_metric_correctly(name, tmp_path):
    workload = replace(pipeline.WORKLOADS[name], **TINY)
    result = pipeline.run_workload(workload, seed=3, seconds=0.5, workdir=tmp_path)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(E2E)
    assert all(value > 0 for value in result["metrics"].values()), result["metrics"]


def test_reduced_traced_run_reports_every_layer_metric(tmp_path):
    workload = replace(pipeline.WORKLOADS["d0d3-two-datasets"], **TINY)
    result = pipeline.run_workload(workload, seed=3, seconds=0.1, workdir=tmp_path, trace=True)
    assert result["correct"], result["problems"]
    assert set(result["metrics"]) == set(LAYERS)
    assert result["metrics"]["service.hit_ratio"] == 1.0
    for name in ("gen.realize_s", "net.checksum_calls", "net.decode_calls",
                 "analysis.conns", "store.bytes_read", "report.renders"):
        assert result["metrics"][name] > 0, name


def test_a_lost_server_stops_all_later_serve_traffic(tmp_path):
    with socket.socket() as sock:  # a port with nothing listening
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    run_ = pipeline.PipelineRun(pipeline.WORKLOADS["d1-headers"], 1, tmp_path)
    ledger = pipeline.Ledger()
    targets = [("/health", b"")]
    never = lambda done: False  # noqa: E731
    assert run_._serve_loop(pipeline.Client(port), targets, 0, never, "hit", ledger, None) == 1
    assert (ledger.failed, run_.server_lost) == (1, True)
    assert run_._serve_loop(pipeline.Client(port), targets, 0, never, "hit", ledger, None) == 0


def test_wrong_pinned_digest_exits_non_zero(tmp_path, monkeypatch, capsys):
    name = "d1-headers"
    monkeypatch.setitem(
        pipeline.WORKLOADS, name, replace(pipeline.WORKLOADS[name], **TINY)
    )
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps(
        {"seed": 7, "digests": {name: {"study": "0" * 64, "ingest": "0" * 64}}}
    ))
    monkeypatch.setattr(run, "PINS_PATH", pins)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(tempfile, "tempdir", None)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] > 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "d1-headers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
