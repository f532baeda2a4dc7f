"""The daemon supervisor: restart, quarantine, drain, watchdog.

Real forked feed processes throughout — the fault injection rides the
fork: monkeypatching ``repro.daemon.feed.run_feed`` in the parent is
inherited by every child the supervisor launches, which gives each test
a deterministic crash script without touching the supervisor itself.
The chaos-plane variant (checked separately) kills the feed inside the
fsio publish seam instead, exactly as the CI soak does.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro.daemon.feed as feed_module
from repro.chaos import FaultKind, FaultPlane, FaultRule, activate, deactivate
from repro.chaos.faults import CRASH_EXIT_CODE
from repro.daemon import (
    AlertEngine,
    AlertRule,
    DaemonConfig,
    DaemonSupervisor,
    TenantSpec,
    parse_tenant,
    tenant_dir,
    tenant_digest,
)
from repro.gen.capture import generate_dataset
from repro.gen.topology import Enterprise
from repro.runtime import RetryPolicy, TelemetryLog

REAL_RUN_FEED = feed_module.run_feed


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("daemon-sup-traces")
    return generate_dataset(
        "D0", Enterprise(seed=7), out, seed=7, scale=0.004, max_windows=3
    )


def fast_config(**overrides):
    defaults = dict(
        checkpoint_every=200,
        retry=RetryPolicy(backoff=0.05, heartbeat_timeout=5.0, max_crashes=3),
    )
    defaults.update(overrides)
    return DaemonConfig(**defaults)


def supervise(tenants, store, *, config=None, alerts=None):
    telemetry = TelemetryLog()
    supervisor = DaemonSupervisor(
        tenants, store, config=config or fast_config(),
        alerts=alerts, telemetry=telemetry,
    )
    return supervisor.run(install_signals=False), telemetry


def crash_until(counter: Path, crashes: int, exit_code: int = 13):
    """A run_feed wrapper that dies hard on its first ``crashes`` runs."""
    def wrapper(payload, drain, send):
        seen = int(counter.read_text()) if counter.exists() else 0
        if seen < crashes:
            counter.write_text(str(seen + 1))
            os._exit(exit_code)
        return REAL_RUN_FEED(payload, drain, send)
    return wrapper


def crash_after_each_trace(counter: Path, crashes: int):
    """Dies hard right after each trace-completion message, ``crashes``
    times — every crash is preceded by forward progress."""
    def wrapper(payload, drain, send):
        seen = int(counter.read_text()) if counter.exists() else 0

        def tripwire(kind, body):
            send(kind, body)
            if kind == "trace" and seen < crashes:
                counter.write_text(str(seen + 1))
                os._exit(29)

        return REAL_RUN_FEED(payload, drain, tripwire)
    return wrapper


def freeze_once(marker: Path):
    """SIGSTOPs its own process on the first run — every thread freezes,
    heartbeats included, which is what a wedged feed looks like."""
    def wrapper(payload, drain, send):
        if not marker.exists():
            marker.write_text("frozen")
            os.kill(os.getpid(), signal.SIGSTOP)
            time.sleep(60)  # unreachable unless resumed; watchdog kills us
        return REAL_RUN_FEED(payload, drain, send)
    return wrapper


def ignore_sigterm():
    """A run_feed wrapper that ignores SIGTERM (so never drains) and
    sleeps; its heartbeat thread keeps beating."""
    def wrapper(payload, drain, send):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(60)  # only the drain's SIGKILL ends this
    return wrapper


class TestHappyPath:
    def test_two_tenants_run_to_done(self, dataset, tmp_path):
        tenants = [
            TenantSpec("alpha", dataset.traces[0].path),
            TenantSpec("beta", dataset.traces[1].path),
        ]
        alerts = AlertEngine([AlertRule(
            name="busy", metric="packets", threshold=1.0, clear_threshold=1.0,
        )])
        statuses, telemetry = supervise(tenants, tmp_path / "store",
                                        alerts=alerts)
        assert statuses == {"alpha": "done", "beta": "done"}
        for name in ("alpha", "beta"):
            result = json.loads(
                (tenant_dir(tmp_path / "store", name) / "result.json")
                .read_text()
            )
            assert result["tenant"] == name and result["packets"] > 0
        events = {e["event"] for e in telemetry.events}
        assert {"daemon_start", "feed_start", "feed_window", "feed_trace",
                "feed_complete", "daemon_stop", "alert_raise"} <= events
        stop = telemetry.unit_events("daemon_stop")[0]
        assert stop["quarantined"] == 0 and stop["drained"] == 0
        # Windows flowed through telemetry for both tenants.
        seen = {e["tenant"] for e in telemetry.unit_events("feed_window")}
        assert seen == {"alpha", "beta"}

    def test_validation_rejects_bad_tenant_sets(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            DaemonSupervisor([], tmp_path)
        spec = TenantSpec("a", dataset.traces[0].path)
        with pytest.raises(ValueError, match="duplicate"):
            DaemonSupervisor([spec, TenantSpec("a", dataset.traces[1].path)],
                             tmp_path)


class TestRestart:
    def test_crashing_feed_restarts_with_exponential_backoff(
        self, dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            feed_module, "run_feed",
            crash_until(tmp_path / "crashes", 2),
        )
        statuses, telemetry = supervise(
            [TenantSpec("flaky", dataset.traces[0].path)], tmp_path / "store"
        )
        assert statuses == {"flaky": "done"}
        crashes = telemetry.unit_events("feed_crash")
        assert [e["crashes"] for e in crashes] == [1, 2]
        assert all(e["exit_code"] == 13 for e in crashes)
        restarts = telemetry.unit_events("feed_restart")
        # The scheduler's doubling curve: backoff * 2**(streak-1).
        assert [e["backoff_s"] for e in restarts] == [0.05, 0.1]
        starts = telemetry.unit_events("feed_start")
        assert [e["attempt"] for e in starts] == [1, 2, 3]

    def test_trace_completion_resets_the_crash_streak(self, dataset, tmp_path,
                                                      monkeypatch):
        # Three crashes — at the quarantine budget — but each one comes
        # right after a completed trace, so none are consecutive.
        monkeypatch.setattr(
            feed_module, "run_feed",
            crash_after_each_trace(tmp_path / "crashes", 3),
        )
        statuses, telemetry = supervise(
            [TenantSpec("steady", dataset.traces[0].path.parent)],
            tmp_path / "store",
        )
        assert statuses == {"steady": "done"}
        assert telemetry.unit_events("feed_quarantined") == []
        crashes = telemetry.unit_events("feed_crash")
        assert len(crashes) == 3
        assert all(e["crashes"] == 1 for e in crashes)

    def test_hung_feed_is_killed_and_restarted(self, dataset, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(
            feed_module, "run_feed", freeze_once(tmp_path / "frozen"),
        )
        config = fast_config(
            retry=RetryPolicy(backoff=0.05, heartbeat_timeout=0.6,
                              max_crashes=3),
        )
        statuses, telemetry = supervise(
            [TenantSpec("wedged", dataset.traces[0].path)],
            tmp_path / "store", config=config,
        )
        assert statuses == {"wedged": "done"}
        hangs = telemetry.unit_events("feed_hang")
        assert len(hangs) == 1 and hangs[0]["silent_s"] >= 0.6
        # The hang-kill is accounted as a crash, then the retry finishes.
        assert [e["crashes"] for e in telemetry.unit_events("feed_crash")] == [1]


class TestQuarantine:
    def test_poison_feed_is_quarantined_and_neighbors_unaffected(
        self, dataset, tmp_path
    ):
        # Reference: the healthy tenant alone, no faults.
        solo, _ = supervise(
            [TenantSpec("good", dataset.traces[0].path)], tmp_path / "solo"
        )
        assert solo == {"good": "done"}
        reference = tenant_digest(tmp_path / "solo", "good")

        # The chaos plane kills tenant bad inside its first window
        # publish; per-process fault counters re-arm in every restarted
        # child, so the crash is deterministic across incarnations.
        store = tmp_path / "store"
        plane = FaultPlane(seed=3, rules=[FaultRule(
            FaultKind.CRASH, op="publish", path="*daemon/bad/windows/*",
            at=(1,),
        )])
        activate(plane)
        try:
            statuses, telemetry = supervise(
                [
                    TenantSpec("good", dataset.traces[0].path),
                    TenantSpec("bad", dataset.traces[1].path),
                ],
                store,
            )
        finally:
            deactivate()
        assert statuses == {"good": "done", "bad": "quarantined"}

        crashes = telemetry.unit_events("feed_crash")
        assert [e["crashes"] for e in crashes] == [1, 2, 3]
        assert all(e["exit_code"] == CRASH_EXIT_CODE for e in crashes)
        assert all(e["kind"] == "worker_error" for e in crashes)

        quarantined = telemetry.unit_events("feed_quarantined")
        assert len(quarantined) == 1
        event = quarantined[0]
        assert event["tenant"] == "bad"
        assert event["crashes"] == 3
        assert event["kind"] == "worker_error"

        record = json.loads(
            (tenant_dir(store, "bad") / "quarantined.json").read_text()
        )
        assert record["kind"] == "worker_error" and record["crashes"] == 3

        # The healthy tenant's artifacts are byte-identical to its solo
        # run — the isolation guarantee, measured.
        assert tenant_digest(store, "good") == reference
        stop = telemetry.unit_events("daemon_stop")[0]
        assert stop["quarantined"] == 1


class TestDrain:
    def test_graceful_drain_checkpoints_and_resumes_byte_identically(
        self, dataset, tmp_path
    ):
        tenants = [
            TenantSpec("alpha", dataset.traces[0].path),
            TenantSpec("beta", dataset.traces[1].path),
        ]
        solo, _ = supervise(tenants, tmp_path / "reference")
        assert set(solo.values()) == {"done"}
        reference = {
            name: tenant_digest(tmp_path / "reference", name)
            for name in ("alpha", "beta")
        }

        # Pace the feeds so the stop lands mid-trace, then drain.
        store = tmp_path / "store"
        supervisor = DaemonSupervisor(
            tenants, store,
            config=fast_config(packet_rate=300.0, drain_timeout=20.0),
            telemetry=TelemetryLog(),
        )
        threading.Timer(0.7, supervisor.request_stop).start()
        statuses = supervisor.run(install_signals=False)
        assert set(statuses.values()) <= {"drained", "done"}
        assert "drained" in statuses.values()

        # Restart at full speed: resumes the checkpoints, finishes, and
        # the window artifacts match the uninterrupted run exactly.
        resumed, _ = supervise(tenants, store)
        assert resumed == {"alpha": "done", "beta": "done"}
        for name, digest in reference.items():
            assert tenant_digest(store, name) == digest


    def test_drain_cancels_a_pending_restart(self, dataset, tmp_path,
                                             monkeypatch):
        """A feed waiting out a long restart backoff is drained at once,
        not after the backoff."""
        monkeypatch.setattr(
            feed_module, "run_feed", crash_until(tmp_path / "crashes", 1),
        )
        telemetry = TelemetryLog()
        supervisor = DaemonSupervisor(
            [TenantSpec("flaky", dataset.traces[0].path)], tmp_path / "store",
            config=fast_config(
                retry=RetryPolicy(backoff=20.0, heartbeat_timeout=5.0,
                                  max_crashes=3),
                drain_timeout=2.0,
            ),
            telemetry=telemetry,
        )
        stopped = []

        def stop():
            stopped.append(time.monotonic())
            supervisor.request_stop()

        threading.Timer(1.0, stop).start()
        statuses = supervisor.run(install_signals=False)
        assert time.monotonic() - stopped[0] < 1.0  # well inside drain_timeout
        assert statuses == {"flaky": "drained"}
        assert len(telemetry.unit_events("feed_start")) == 1
        assert [e["backoff_s"] for e in telemetry.unit_events("feed_restart")] == [20.0]

    def test_feed_ignoring_sigterm_is_killed_at_the_drain_timeout(
        self, dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(feed_module, "run_feed", ignore_sigterm())
        telemetry = TelemetryLog()
        supervisor = DaemonSupervisor(
            [TenantSpec("deaf", dataset.traces[0].path)], tmp_path / "store",
            config=fast_config(drain_timeout=1.0),
            telemetry=telemetry,
        )
        stopped = []

        def stop():
            stopped.append(time.monotonic())
            supervisor.request_stop()

        threading.Timer(0.5, stop).start()
        statuses = supervisor.run(install_signals=False)
        elapsed = time.monotonic() - stopped[0]
        assert 1.0 <= elapsed < 1.0 + 5.0
        assert statuses == {"deaf": "drained"}
        assert telemetry.unit_events("feed_crash") == []
        assert len(telemetry.unit_events("feed_start")) == 1


class TestTenantParsing:
    def test_parse_tenant_splits_name_and_source(self, dataset):
        spec = parse_tenant(f"edge={dataset.traces[0].path}")
        assert spec.name == "edge"
        assert spec.traces() == [dataset.traces[0].path]

    def test_directory_tenant_globs_sorted_pcaps(self, dataset):
        spec = parse_tenant(f"site={dataset.traces[0].path.parent}")
        assert spec.traces() == sorted(t.path for t in dataset.traces)

    @pytest.mark.parametrize("text", [
        "no-equals", "=path", "name=", "a/b=path", "a b=path", "a.b=path",
    ])
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_tenant(text)


class TestIdleMaintenance:
    def test_idle_ticks_scrub_and_compact_the_store(self, dataset, tmp_path):
        store = tmp_path / "store"
        statuses, telemetry = supervise(
            [TenantSpec("alpha", dataset.traces[0].path)], store,
            config=fast_config(
                maintenance_idle_s=0.0,
                maintenance_interval=0.0,
                maintenance_budget=16,
            ),
        )
        assert statuses == {"alpha": "done"}
        ticks = telemetry.unit_events("maintenance")
        assert ticks, "idle daemon never ran a maintenance increment"
        assert telemetry.unit_events("maintenance_error") == []
        # The increments made real progress and persisted their cursor.
        assert any(e["objects_checked"] > 0 or e["manifests_checked"] > 0
                   or e["scrub_phase"] == "objects" for e in ticks)
        assert (store / "scrub-cursor.json").exists()

    def test_no_maintenance_disables_the_idle_tick(self, dataset, tmp_path):
        store = tmp_path / "store"
        statuses, telemetry = supervise(
            [TenantSpec("alpha", dataset.traces[0].path)], store,
            config=fast_config(
                maintenance=False,
                maintenance_idle_s=0.0,
                maintenance_interval=0.0,
            ),
        )
        assert statuses == {"alpha": "done"}
        events = {e["event"] for e in telemetry.events}
        assert "maintenance" not in events
        assert not (store / "scrub-cursor.json").exists()
