"""The analysis service over real HTTP: endpoints, cache, jobs, daemon
read-through, and the telemetry tail's shutdown behavior.

One module-scoped service runs against the shared ``store_study`` store;
each test talks to it through a real client connection, so the whole
stack — ThreadingHTTPServer, handler dispatch, response cache, JSON
rendering — is exercised exactly as production traffic would.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.runtime.telemetry import TelemetryLog
from repro.service import ReproService


def _request(port: int, method: str, path: str, body: dict | None = None):
    """One request on a fresh connection; returns (status, headers, json)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"} if payload else {},
        )
        response = conn.getresponse()
        raw = response.read()
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, headers, json.loads(raw) if raw else None
    finally:
        conn.close()


def _get(port: int, path: str):
    return _request(port, "GET", path)


@pytest.fixture(scope="module")
def service(store_study, tmp_path_factory):
    _, root = store_study
    telemetry = TelemetryLog(
        path=tmp_path_factory.mktemp("svc-telemetry") / "service.jsonl"
    )
    svc = ReproService(
        str(root),
        port=0,
        job_workers=1,
        job_queue=2,
        job_runner=lambda request, store_dir: {"ok": True, "seed": request["seed"]},
        telemetry=telemetry,
    )
    svc.start_background()
    yield svc
    svc.shutdown()


def test_health(service):
    status, _, body = _get(service.port, "/health")
    assert status == 200
    assert body["status"] == "ok"
    assert body["store"]["manifests"] >= 1
    assert set(body["cache"]) >= {"hits", "misses", "entries"}
    assert body["jobs"]["queue_limit"] == 2


def test_health_on_a_store_never_written(tmp_path):
    """A store root nothing was written to yet is empty, not down."""
    svc = ReproService(str(tmp_path / "fresh-store"), port=0)
    svc.start_background()
    try:
        status, _, body = _get(svc.port, "/health")
    finally:
        svc.shutdown()
    assert status == 200
    assert body["status"] == "ok"
    (root,) = body["store"]["tier"]["roots"]
    assert root["status"] == "ok" and root["objects"] == 0


def test_studies_lists_the_cached_analysis(service):
    status, headers, body = _get(service.port, "/studies")
    assert status == 200
    assert body["count"] >= 1
    entry = body["studies"][0]
    assert entry["dataset"] == "D0"
    assert entry["packets"] > 0
    assert len(entry["key"]) == 64  # a content address, not a label


def test_query_aggregates_and_filters(service):
    status, _, body = _get(service.port, "/query?by=proto")
    assert status == 200
    assert body["by"] == "proto"
    assert body["total"]["conns"] > 0
    groups = {row["group"] for row in body["rows"]}
    assert "tcp" in groups
    # A filter must strictly narrow the unfiltered total.
    _, _, filtered = _get(service.port, "/query?by=proto&proto=tcp")
    assert 0 < filtered["total"]["conns"] <= body["total"]["conns"]


def test_query_rejects_bad_dimension_and_subnet(service):
    status, _, body = _get(service.port, "/query?by=nonsense")
    assert status == 400
    assert "dimension" in body["error"]
    status, _, body = _get(service.port, "/query?subnet=not-a-cidr")
    assert status == 400
    status, _, body = _get(service.port, "/query?since=yesterday")
    assert status == 400


def test_cdf_endpoint(service):
    status, _, body = _get(service.port, "/cdf?field=total_bytes")
    assert status == 200
    assert body["n"] > 0
    quantiles = body["quantiles"]
    assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
    assert body["points"]  # plottable
    status, _, body = _get(service.port, "/cdf?field=bogus")
    assert status == 400


def test_tables(service):
    for name in ("load", "retransmission", "quality", "2", "3"):
        status, _, body = _get(service.port, f"/tables/{name}")
        assert status == 200, name
        table = body["table"]
        assert table["columns"] and table["rendered"]
    status, _, body = _get(service.port, "/tables/99")
    assert status == 404
    status, _, body = _get(service.port, "/tables/figment")
    assert status == 404


def test_unknown_endpoint_and_method(service):
    status, _, _ = _get(service.port, "/nope")
    assert status == 404
    status, _, _ = _request(service.port, "POST", "/query", body={})
    assert status == 405


def test_cache_hit_replays_identical_bytes(service):
    path = "/query?by=category&proto=tcp"
    service.cache.clear()
    s1, h1, b1 = _get(service.port, path)
    s2, h2, b2 = _get(service.port, path)
    s3, h3, b3 = _get(service.port, path + "&cache_bypass=1")
    assert (s1, s2, s3) == (200, 200, 200)
    assert h1["x-cache"] == "miss"
    assert h2["x-cache"] == "hit"
    assert h3["x-cache"] == "bypass"
    # Same content address -> byte-identical, cold, cached, or bypassed.
    assert b1 == b2 == b3
    stats = service.cache.stats()
    assert stats["hits"] >= 1


def test_cache_distinguishes_queries(service):
    service.cache.clear()
    _get(service.port, "/query?by=category")
    _, headers, _ = _get(service.port, "/query?by=proto")
    assert headers["x-cache"] == "miss"  # different query, different key


def test_job_submit_poll_done(service):
    status, _, body = _request(
        service.port, "POST", "/studies", body={"seed": 99, "jobs": 0}
    )
    assert status == 202
    job_id = body["id"]
    assert body["poll"] == f"/jobs/{job_id}"
    deadline = time.monotonic() + 30
    state = None
    while time.monotonic() < deadline:
        _, _, polled = _get(service.port, f"/jobs/{job_id}")
        state = polled["state"]
        if state in ("done", "failed"):
            break
        time.sleep(0.05)
    assert state == "done"
    assert polled["result"] == {"ok": True, "seed": 99}
    assert polled["wall_s"] >= 0
    # And it shows up in the listing.
    _, _, listing = _get(service.port, "/jobs")
    assert job_id in {job["id"] for job in listing["jobs"]}


def test_job_validation_rejected_with_400(service):
    status, _, body = _request(
        service.port, "POST", "/studies", body={"scale": 5.0}
    )
    assert status == 400
    status, _, body = _request(
        service.port, "POST", "/studies", body={"dataset": "D0"}  # typo
    )
    assert status == 400
    assert "unknown study parameters" in body["error"]
    status, _, _ = _get(service.port, "/jobs/deadbeef")
    assert status == 404


def test_saturated_queue_answers_429_not_hang(store_study, tmp_path):
    """Fill a 1-deep queue behind a blocked worker: the next submit must
    come back immediately as 429 + Retry-After, and unblocking must let
    the backlog drain."""
    _, root = store_study
    release = threading.Event()
    svc = ReproService(
        str(root),
        port=0,
        job_workers=1,
        job_queue=1,
        job_runner=lambda request, store_dir: (release.wait(30), {"ok": True})[1],
    )
    svc.start_background()
    try:
        accepted = []
        saw_429 = None
        started = time.monotonic()
        for _ in range(6):
            status, headers, body = _request(
                svc.port, "POST", "/studies", body={"jobs": 0}
            )
            if status == 202:
                accepted.append(body["id"])
            elif status == 429:
                saw_429 = headers
                break
        elapsed = time.monotonic() - started
        assert saw_429 is not None, "queue never saturated"
        assert elapsed < 10, "a full queue must answer immediately, not hang"
        assert int(saw_429["retry-after"]) >= 1
        release.set()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, _, listing = _get(svc.port, "/jobs")
            states = {job["id"]: job["state"] for job in listing["jobs"]}
            if all(states[jid] == "done" for jid in accepted):
                break
            time.sleep(0.05)
        assert all(states[jid] == "done" for jid in accepted)
    finally:
        release.set()
        svc.shutdown()


def test_daemon_read_through(store_study, tmp_path):
    """The service reads per-tenant window artifacts exactly as the
    daemon publishes them — no daemon process required."""
    import shutil

    _, root = store_study
    mirror = tmp_path / "store"
    shutil.copytree(root, mirror)
    tdir = mirror / "daemon" / "acme"
    (tdir / "windows").mkdir(parents=True)
    for trace in (0, 1):
        for index in range(3):
            (tdir / "windows" / f"t{trace:03d}-w{index:06d}.json").write_text(
                json.dumps({
                    "tenant": "acme", "trace": trace, "index": index,
                    "packets": 10 * (index + 1), "bytes": 1000, "duration": 60.0,
                    "tcp_packets": 8, "retransmits": 0, "conn_starts": {},
                    "start_ts": 0.0,
                })
            )
    (tdir / "windows" / "t000-w000099.json").write_text("{corrupt")
    (tdir / "result.json").write_text(json.dumps({"tenant": "acme", "traces": 2}))

    svc = ReproService(str(mirror), port=0)
    svc.start_background()
    try:
        _, _, listing = _get(svc.port, "/daemon")
        assert listing["tenants"][0]["tenant"] == "acme"
        assert listing["tenants"][0]["windows"] == 7  # incl. the corrupt one
        assert listing["tenants"][0]["complete"] is True

        _, _, body = _get(svc.port, "/daemon/acme/windows")
        assert body["count"] == 6
        assert body["skipped"] == 1  # corrupt artifact skipped, counted

        _, _, body = _get(svc.port, "/daemon/acme/windows?trace=1&since=1")
        assert body["count"] == 2
        assert all(w["trace"] == 1 and w["index"] >= 1 for w in body["windows"])

        _, _, body = _get(svc.port, "/daemon/acme/windows?limit=2")
        assert body["count"] == 2 and body["truncated"] is True

        _, _, body = _get(svc.port, "/daemon/acme/result")
        assert body["result"]["traces"] == 2

        status, _, _ = _get(svc.port, "/daemon/ghost/windows")
        assert status == 404
    finally:
        svc.shutdown()


def test_events_tail_ends_on_shutdown(store_study, tmp_path):
    """A live /events tail must end promptly when the service drains —
    the follow stop predicate at work — even while the log stays busy."""
    _, root = store_study
    svc = ReproService(
        str(root), port=0,
        telemetry=TelemetryLog(path=tmp_path / "svc.jsonl"),
    )
    svc.start_background()
    received: list[dict] = []
    done = threading.Event()

    def tail() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=60)
        try:
            conn.request("GET", "/events?timeout=60")
            response = conn.getresponse()
            for raw in response:
                line = raw.strip()
                if line:
                    received.append(json.loads(line))
        except (OSError, http.client.HTTPException):
            pass
        finally:
            conn.close()
            done.set()

    thread = threading.Thread(target=tail, daemon=True)
    thread.start()
    # Traffic keeps the telemetry file growing while the tail runs.
    for _ in range(5):
        _get(svc.port, "/health")
        time.sleep(0.05)
    started = time.monotonic()
    svc.shutdown()
    assert done.wait(10.0), "tail did not end on shutdown"
    assert time.monotonic() - started < 10.0
    assert any(event.get("event") == "request" for event in received)


def test_events_404_without_telemetry(store_study):
    _, root = store_study
    svc = ReproService(str(root), port=0)
    svc.start_background()
    try:
        status, _, body = _get(svc.port, "/events")
        assert status == 404
    finally:
        svc.shutdown()
