"""The ingest engine's single pass (repro.analysis.engine).

The contracts under test: a trace analyzed from an in-memory packet
iterable matches the same trace read from disk; checkpointing — and a
run interrupted mid-trace that resumes from its last checkpoint —
changes none of the products, including under the tolerant error
policy on corrupted traces; and the live window aggregates cover every
packet.  Byte identity of the rendered study is pinned separately
(``tests/test_study_golden.py``).
"""

from __future__ import annotations

import pytest

from repro.analysis.analyzers import DEFAULT_ANALYZERS
from repro.analysis.engine import DatasetAnalyzer
from repro.analysis.errors import ErrorPolicy
from repro.gen.capture import generate_dataset
from repro.gen.faults import corrupt_dataset
from repro.gen.topology import ENTERPRISE_NET, Enterprise
from repro.store.cache import ConnStore
from repro.stream.source import PacketSource


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One small full-payload dataset, generated once per module."""
    out = tmp_path_factory.mktemp("stream-traces")
    return generate_dataset(
        "D0", Enterprise(seed=7), out, seed=7, scale=0.004, max_windows=3
    )


def _run(analyzer, traces):
    for trace in traces.traces:
        analyzer.process_pcap(trace.path)
    return analyzer.finish()


def _make(traces, policy=ErrorPolicy.STRICT, **kwargs):
    return DatasetAnalyzer(
        "D0",
        full_payload=traces.config.full_payload,
        internal_net=ENTERPRISE_NET,
        analyzers=[c() for c in DEFAULT_ANALYZERS],
        error_policy=policy,
        **kwargs,
    )


def _assert_same_analysis(expected, actual):
    assert len(actual.conns) == len(expected.conns)
    for ours, theirs in zip(actual.conns, expected.conns):
        assert ours == theirs
    assert len(actual.traces) == len(expected.traces)
    for ours, theirs in zip(actual.traces, expected.traces):
        assert ours.packets == theirs.packets
        assert ours.l2_counts == theirs.l2_counts
        assert ours.errors == theirs.errors
        assert ours.quarantined == theirs.quarantined
        if theirs.utilization is None:
            assert ours.utilization is None
        else:
            assert ours.utilization.bins() == theirs.utilization.bins()


class TestParity:
    def test_tolerant_policy_parity_on_corrupt_traces(
        self, tmp_path_factory
    ):
        out = tmp_path_factory.mktemp("corrupt")
        corrupt = generate_dataset(
            "D0", Enterprise(seed=7), out, seed=7, scale=0.004, max_windows=3
        )
        corrupt_dataset(corrupt, seed=3)
        plain = _run(_make(corrupt, policy=ErrorPolicy.TOLERANT), corrupt)
        checked = _run(
            _make(
                corrupt,
                policy=ErrorPolicy.TOLERANT,
                checkpoint_every=1000,
                store=ConnStore(out / "store"),
            ),
            corrupt,
        )
        assert sum(sum(t.errors.values()) for t in plain.traces) > 0
        _assert_same_analysis(plain, checked)

    def test_in_memory_packets_match_pcap(self, dataset):
        from repro.pcap.reader import read_pcap

        trace = dataset.traces[0]
        via_file = _make(dataset)
        via_file.process_pcap(trace.path)
        via_memory = _make(dataset)
        via_memory.process_packets(read_pcap(trace.path))
        a, b = via_file.finish(), via_memory.finish()
        assert a.conns == b.conns


class TestWindows:
    def test_window_summaries_per_trace(self, dataset):
        analyzer = _make(dataset, window=30.0)
        _run(analyzer, dataset)
        assert len(analyzer.window_summaries) == len(dataset.traces)
        for summary in analyzer.window_summaries:
            assert summary["window_seconds"] == 30.0
            assert summary["windows"] > 0
            assert summary["mbps_max"] >= summary["mbps_mean"] >= 0.0

    def test_window_observer_covers_every_packet(self, dataset):
        seen = []
        analyzer = _make(dataset, window=30.0, window_observer=seen.append)
        stats = analyzer.process_pcap(dataset.traces[0].path)
        assert seen
        assert [w.index for w in seen] == sorted(w.index for w in seen)
        # Decoded (non-runt) packets all land in some window.
        assert sum(w.packets for w in seen) == stats.packets
        assert sum(sum(w.conn_starts.values()) for w in seen) > 0


class TestCheckpointResume:
    def test_checkpointed_run_matches_plain(self, dataset, tmp_path):
        store = ConnStore(tmp_path / "store")
        plain = _run(_make(dataset), dataset)
        checked = _run(
            _make(dataset, checkpoint_every=200, store=store, checkpoint_base="ck"),
            dataset,
        )
        _assert_same_analysis(plain, checked)
        # Finished traces retire their checkpoint manifests.
        assert list(store.checkpoints()) == []

    def test_crash_resume_equals_uninterrupted(
        self, dataset, tmp_path, monkeypatch
    ):
        store = ConnStore(tmp_path / "store")
        plain = _run(_make(dataset), dataset)

        real_iter = PacketSource.__iter__
        budget = {"left": 350}

        def crashing(self):
            for pkt in real_iter(self):
                budget["left"] -= 1
                if budget["left"] < 0:
                    raise RuntimeError("simulated crash")
                yield pkt

        monkeypatch.setattr(PacketSource, "__iter__", crashing)
        crashed = _make(
            dataset, checkpoint_every=100, store=store, checkpoint_base="ck"
        )
        with pytest.raises(RuntimeError):
            for trace in dataset.traces:
                crashed.process_pcap(trace.path)
        monkeypatch.setattr(PacketSource, "__iter__", real_iter)
        # The crash left a live checkpoint behind.
        assert list(store.checkpoints())
        resumed = _run(
            _make(dataset, checkpoint_every=100, store=store, checkpoint_base="ck"),
            dataset,
        )
        _assert_same_analysis(plain, resumed)
        assert list(store.checkpoints()) == []

    def test_checkpoint_without_a_format_is_retired_and_reread(
        self, dataset, tmp_path, monkeypatch
    ):
        """A checkpoint from before the format stamp (its state has no
        ``format`` and no aggregator ``base``) must not crash the resume:
        it is retired and the trace is ingested from offset 0."""
        import json

        from repro.store.cache import shard_analysis
        from repro.stream.checkpoint import decode_state, encode_state

        store = ConnStore(tmp_path / "store")
        plain = _run(_make(dataset), dataset)

        real_iter = PacketSource.__iter__
        budget = {"left": 150}

        def crashing(self):
            for pkt in real_iter(self):
                budget["left"] -= 1
                if budget["left"] < 0:
                    raise RuntimeError("simulated crash")
                yield pkt

        monkeypatch.setattr(PacketSource, "__iter__", crashing)
        crashed = _make(
            dataset, checkpoint_every=100, store=store, checkpoint_base="ck"
        )
        with pytest.raises(RuntimeError):
            crashed.process_pcap(dataset.traces[0].path)
        monkeypatch.setattr(PacketSource, "__iter__", real_iter)

        (path,) = sorted(store.manifests_dir.glob("ckpt-*.json"))
        manifest = json.loads(path.read_text())
        state = decode_state(store.get_object(manifest["state"]))
        state.pop("format", None)
        del state["aggregator"]["base"]
        manifest["state"] = store.put_object(encode_state(state))
        path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")

        resumed = _run(
            _make(dataset, checkpoint_every=100, store=store, checkpoint_base="ck"),
            dataset,
        )
        _assert_same_analysis(plain, resumed)
        digests = ["0" * 64] * len(dataset.traces)
        assert shard_analysis(resumed, dataset, digests) == shard_analysis(
            plain, dataset, digests
        )
        assert list(store.checkpoints()) == []

    @pytest.mark.parametrize(
        "policy", [ErrorPolicy.STRICT, ErrorPolicy.TOLERANT],
        ids=["strict", "tolerant"],
    )
    def test_damaged_checkpoint_state_costs_a_reread(
        self, dataset, tmp_path, monkeypatch, policy
    ):
        """A state object that no longer verifies: strict raises the
        store's ShardError, tolerant retires the checkpoint and ingests
        the trace from offset 0."""
        import json

        from repro.store import ShardError

        store = ConnStore(tmp_path / "store")
        plain = _run(_make(dataset, policy=policy), dataset)

        real_iter = PacketSource.__iter__
        budget = {"left": 250}

        def crashing(self):
            for pkt in real_iter(self):
                budget["left"] -= 1
                if budget["left"] < 0:
                    raise RuntimeError("simulated crash")
                yield pkt

        monkeypatch.setattr(PacketSource, "__iter__", crashing)
        crashed = _make(
            dataset, policy=policy, checkpoint_every=100, store=store,
            checkpoint_base="ck",
        )
        with pytest.raises(RuntimeError):
            crashed.process_pcap(dataset.traces[0].path)
        monkeypatch.setattr(PacketSource, "__iter__", real_iter)

        (path,) = sorted(store.manifests_dir.glob("ckpt-*.json"))
        state = json.loads(path.read_text())["state"]
        store._object_path(state).write_bytes(b"not the state it was")

        resumed = _make(
            dataset, policy=policy, checkpoint_every=100, store=store,
            checkpoint_base="ck",
        )
        if policy is ErrorPolicy.STRICT:
            with pytest.raises(ShardError):
                _run(resumed, dataset)
            return
        _assert_same_analysis(plain, _run(resumed, dataset))
        assert list(store.checkpoints()) == []
