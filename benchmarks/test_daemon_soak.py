"""Daemon chaos soak: SIGKILL the live daemon, restart, compare digests.

Not a paper artifact — this drives the always-on ``repro-study daemon``
through the failure drill its design promises to survive:

* a 2-tenant daemon, paced so the kill lands **mid-window**, running
  under a fixed-seed fault plane (an injected checkpoint-write EIO on
  one tenant), is SIGKILLed and restarted — the per-tenant rolling-
  window digests must be **byte-identical** to an uninterrupted run's;
* a poison tenant (a chaos crash rule that re-arms in every restarted
  feed) is quarantined after three consecutive crashes while its
  neighbor's digest is untouched, and a chaos-free restart finishes the
  quarantined tenant from its published markers;
* SIGTERM to the daemon process drains it: it exits 0 inside its
  ``--drain-timeout`` with every tenant ``drained`` or ``done``, and a
  restart resumes to the same digests;
* after all of it, ``store gc`` + ``repro store scrub`` come back clean.

Run via ``make daemon-soak``.  CI runs it as the daemon chaos smoke.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.chaos import CHAOS_ENV, FaultKind, FaultPlane, FaultRule
from repro.core.cli import main as cli_main
from repro.daemon import tenant_digest
from repro.gen.capture import generate_dataset
from repro.gen.topology import Enterprise
from repro.runtime.telemetry import read_events

_REPO = Path(__file__).resolve().parent.parent

#: One fixed seed for the whole soak: the acceptance bar is determinism.
_SEED = 7


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    out = tmp_path_factory.mktemp("daemon-soak-traces")
    dataset = generate_dataset(
        "D0", Enterprise(seed=_SEED), out, seed=_SEED,
        scale=0.004, max_windows=3,
    )
    return [trace.path for trace in dataset.traces]


def _daemon_args(store: Path, traces, **extra: str) -> list[str]:
    args = [
        "daemon",
        "--store-dir", str(store),
        "--tenant", f"alpha={traces[0]}",
        "--tenant", f"beta={traces[1]}",
        "--checkpoint-every", "200",
        "--backoff", "0.05",
    ]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", value]
    return args


def _run(args: list[str], plane: FaultPlane | None = None):
    env = dict(os.environ, PYTHONPATH="src")
    env.pop(CHAOS_ENV, None)
    if plane is not None:
        env[CHAOS_ENV] = plane.to_env()
    return subprocess.run(
        [sys.executable, "-m", "repro.core.cli", *args],
        env=env, cwd=_REPO, capture_output=True, text=True, timeout=600,
    )


def _assert_store_scrubs_clean(store: Path) -> None:
    """Post-soak: only verifiable state, zero stranded temp files."""
    at = ["--store-dir", str(store), "--tmp-grace", "0"]
    assert cli_main(["store", "gc"] + at) == 0
    assert cli_main(["store", "scrub"] + at) == 0


@pytest.fixture(scope="module")
def reference(traces, tmp_path_factory):
    """Per-tenant digests of an uninterrupted, fault-free run."""
    store = tmp_path_factory.mktemp("daemon-soak-ref")
    proc = _run(_daemon_args(store, traces))
    assert proc.returncode == 0, proc.stderr
    return {name: tenant_digest(store, name) for name in ("alpha", "beta")}


def test_sigkill_mid_window_then_restart_matches_reference(
    traces, tmp_path, reference, emit
):
    store = tmp_path / "store"
    # The fault plane rides along: tenant alpha's first checkpoint write
    # fails with EIO in every incarnation — the tolerant policy degrades
    # checkpointing, never the published windows.
    plane = FaultPlane(seed=_SEED, rules=[FaultRule(
        FaultKind.EIO, op="publish", path="*ckpt-daemon-alpha*", at=(1,),
    )])
    env = dict(os.environ, PYTHONPATH="src", **{CHAOS_ENV: plane.to_env()})
    # Paced feeds so the SIGKILL lands mid-window, mid-trace.  The
    # daemon gets its own session so the kill takes the forked feed
    # processes down with it — a hard machine-style stop, no drain.
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.core.cli",
         *_daemon_args(store, traces, packet_rate="250")],
        env=env, cwd=_REPO, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        time.sleep(1.5)
        os.killpg(daemon.pid, signal.SIGKILL)
        daemon.wait(timeout=30)
    finally:
        if daemon.poll() is None:
            os.killpg(daemon.pid, signal.SIGKILL)
    assert daemon.returncode == -signal.SIGKILL
    killed = {name: tenant_digest(store, name) for name in reference}
    assert killed != reference  # the kill really landed mid-run

    # Restart at full speed, chaos-free: resumes checkpoints/markers.
    resumed = _run(_daemon_args(store, traces))
    assert resumed.returncode == 0, resumed.stderr
    for name, digest in reference.items():
        assert tenant_digest(store, name) == digest
    _assert_store_scrubs_clean(store)
    emit(
        "daemon soak: 2-tenant daemon SIGKILLed mid-window under a "
        "checkpoint-EIO fault plane; restart resumed to byte-identical "
        "per-tenant window digests, post-soak store clean"
    )


def test_sigterm_drains_the_daemon_then_restart_matches_reference(
    traces, tmp_path, reference, emit
):
    store = tmp_path / "store"
    drain_timeout = 10.0
    env = dict(os.environ, PYTHONPATH="src")
    env.pop(CHAOS_ENV, None)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.core.cli",
         *_daemon_args(store, traces, packet_rate="250",
                       drain_timeout=str(drain_timeout))],
        env=env, cwd=_REPO, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(1.5)
        os.kill(daemon.pid, signal.SIGTERM)  # the daemon only, not its feeds
        stopped = time.monotonic()
        out, err = daemon.communicate(timeout=drain_timeout + 20)
        elapsed = time.monotonic() - stopped
    finally:
        if daemon.poll() is None:
            os.killpg(daemon.pid, signal.SIGKILL)
            daemon.wait(timeout=30)
    assert daemon.returncode == 0, err
    assert elapsed < drain_timeout + 5
    statuses = dict(
        line.removeprefix("[daemon] ").split(": ")
        for line in out.splitlines() if line.startswith("[daemon] ")
    )
    assert set(statuses) == {"alpha", "beta"}
    assert set(statuses.values()) <= {"drained", "done"}
    assert "drained" in statuses.values()  # the stop landed mid-run

    resumed = _run(_daemon_args(store, traces))
    assert resumed.returncode == 0, resumed.stderr
    for name, digest in reference.items():
        assert tenant_digest(store, name) == digest
    _assert_store_scrubs_clean(store)
    emit(
        f"daemon soak: SIGTERM drained the paced 2-tenant daemon in "
        f"{elapsed:.1f}s ({statuses}); restart resumed to byte-identical "
        "per-tenant window digests, post-soak store clean"
    )


def test_poison_tenant_quarantined_then_recovers_chaos_free(
    traces, tmp_path, reference, emit
):
    store = tmp_path / "store"
    telemetry = tmp_path / "events.jsonl"
    # Beta's first window publish kills the feed; the per-process fault
    # counter re-arms in every restarted child, so the crash repeats
    # until the supervisor calls it poison.
    plane = FaultPlane(seed=_SEED, rules=[FaultRule(
        FaultKind.CRASH, op="publish", path="*daemon/beta/windows/*", at=(1,),
    )])
    poisoned = _run(
        _daemon_args(store, traces, telemetry=str(telemetry)), plane=plane
    )
    assert poisoned.returncode == 1  # a quarantined tenant is not success
    assert "beta: quarantined" in poisoned.stdout
    assert "alpha: done" in poisoned.stdout
    events, _ = read_events(telemetry)
    quarantined = [e for e in events if e["event"] == "feed_quarantined"]
    assert len(quarantined) == 1
    assert quarantined[0]["tenant"] == "beta"
    assert quarantined[0]["crashes"] == 3
    assert quarantined[0]["kind"] == "worker_error"
    record = json.loads(
        (store / "daemon" / "beta" / "quarantined.json").read_text()
    )
    assert record["kind"] == "worker_error"
    # The healthy tenant never noticed.
    assert tenant_digest(store, "alpha") == reference["alpha"]

    # Chaos-free restart: alpha skips by marker, beta finally finishes,
    # and both digests match the uninterrupted reference.
    recovered = _run(_daemon_args(store, traces))
    assert recovered.returncode == 0, recovered.stderr
    for name, digest in reference.items():
        assert tenant_digest(store, name) == digest
    _assert_store_scrubs_clean(store)
    emit(
        "daemon soak: poison tenant quarantined after 3 consecutive "
        "injected crashes (worker_error), neighbor digest untouched; "
        "chaos-free restart recovered both tenants, store clean"
    )
