"""Analysis-as-a-service: the long-running HTTP query front end.

``ReproService`` puts a :class:`ThreadingHTTPServer` (stdlib, no new
dependencies) in front of a :class:`~repro.store.ConnStore`:

* **Store queries** — ``/studies`` (cached analyses), ``/query``
  (filtered aggregations), ``/cdf`` (sample CDFs), ``/tables/...``
  (paper tables plus the load / retransmission / data-quality tables)
  — all served from shards by content address, behind the
  :class:`~repro.service.cache.ResponseCache`: a hit replays stored
  bytes without touching a shard, and invalidation is free because
  content addresses are immutable.
* **Background studies** — ``POST /studies`` submits a run to the
  bounded :class:`~repro.service.jobs.JobManager` (the PR-3 runtime
  underneath) and returns a run id; ``GET /jobs/<id>`` polls it.  A
  full queue answers **429 + Retry-After** instead of hanging.
* **Daemon read-through** — ``/daemon/...`` reads the ingestion
  daemon's per-tenant ``windows/`` JSON artifacts straight off disk.
  The daemon publishes them atomically (PR-5 fsio), so the service can
  watch a *live* daemon's windows without coordinating with it.
* **Telemetry tail** — ``/events`` follows the service's own JSONL
  stream using :func:`~repro.runtime.telemetry.read_events` in follow
  mode; the service's shutdown event is the tail's ``stop`` predicate,
  so in-flight tails end promptly instead of busy-waiting forever.

Every response body is JSON (one endpoint streams NDJSON).  The server
is intentionally boring: one handler class, thread-per-request, shared
state limited to the store (read-only, concurrency-tested), the locked
response cache, and the locked job table.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from ..analysis.load import load_report
from ..report import quality as quality_builders
from ..report import tables as table_builders
from ..report.findings import table5 as findings_table5
from ..report.model import Table
from ..runtime.telemetry import TelemetryLog, read_events
from ..store.cache import DAEMON_DIR, ConnStore
from ..store.query import (
    ConnFilter,
    GROUP_DIMENSIONS,
    SAMPLE_FIELDS,
    StoreQuery,
)
from .cache import CachedResponse, ResponseCache, store_state_token
from .jobs import JobManager, validate_study_request

__all__ = ["ReproService", "ServiceError"]

_JSON = "application/json"
_NDJSON = "application/x-ndjson"

#: GET paths served through the response cache (everything that reads
#: shards; daemon artifacts and job state are live, never cached).
_CACHEABLE = ("/studies", "/query", "/cdf", "/tables/")

#: CDF quantiles reported by ``/cdf`` (the paper's usual key points).
_CDF_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)

#: Paper tables buildable from stored analyses alone (Table 1 needs
#: generation-time trace metadata the shards do not carry).
_PAPER_TABLES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)

#: Events-tail bounds: a tail holds one handler thread, so both the
#: wait and the event count are capped.
_EVENTS_MAX_TIMEOUT = 60.0
_EVENTS_MAX_COUNT = 10_000


class ServiceError(Exception):
    """A client-attributable request failure (rendered as 4xx)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _encode(payload: object) -> bytes:
    """Canonical JSON bytes: sorted keys make cold and cached responses
    for the same logical query byte-identical by construction."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _table_payload(table: Table) -> dict:
    return {
        "id": table.id,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "rendered": table.render(),
    }


def _single(params: dict[str, list[str]], name: str) -> str | None:
    values = params.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise ServiceError(400, f"parameter {name!r} given more than once")
    return values[0]


def _number(params: dict, name: str, kind=float):
    raw = _single(params, name)
    if raw is None:
        return None
    try:
        return kind(raw)
    except ValueError:
        raise ServiceError(
            400, f"parameter {name!r} must be a {kind.__name__}, got {raw!r}"
        ) from None


def _etag_match(header: str | None, etag: str) -> bool:
    """RFC 9110 §13.1.2 If-None-Match against one strong validator.

    Weak-prefixed candidates compare by opaque value (the weak
    comparison is all a 304 needs); ``*`` matches any representation.
    """
    if header is None:
        return False
    if header.strip() == "*":
        return True
    candidates = (value.strip() for value in header.split(","))
    return any(
        value[2:] == etag if value.startswith("W/") else value == etag
        for value in candidates
    )


def _flag(params: dict, name: str) -> bool:
    raw = _single(params, name)
    if raw is None:
        return False
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ServiceError(400, f"parameter {name!r} must be boolean, got {raw!r}")


#: ``/query`` and ``/cdf`` filter parameters → ConnFilter fields.
_FILTER_PARAMS = (
    "dataset", "proto", "service", "locality", "subnet", "state",
)


def _filter_from(params: dict) -> ConnFilter:
    kwargs: dict = {
        name: _single(params, name) for name in _FILTER_PARAMS
    }
    kwargs["since"] = _number(params, "since", float)
    kwargs["until"] = _number(params, "until", float)
    kwargs["min_bytes"] = _number(params, "min_bytes", int)
    kwargs["include_scanners"] = _flag(params, "include_scanners")
    flt = ConnFilter(**kwargs)
    if flt.subnet is not None:
        try:
            flt._subnet()
        except Exception:
            raise ServiceError(400, f"bad subnet {flt.subnet!r}") from None
    return flt


class ReproService:
    """The service: a store, a cache, a job manager, and an HTTP server."""

    def __init__(
        self,
        store_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_entries: int = 256,
        job_workers: int = 1,
        job_queue: int = 4,
        job_runner=None,
        telemetry: TelemetryLog | None = None,
    ) -> None:
        self.store = ConnStore(store_dir)
        self.host = host
        self.port = port
        self.cache = ResponseCache(cache_entries)
        self.jobs = JobManager(
            str(store_dir),
            workers=job_workers,
            queue_limit=job_queue,
            runner=job_runner,
        )
        self.telemetry = telemetry
        self._telemetry_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._status_counts: dict[str, int] = {}
        self._started_monotonic = time.monotonic()
        self._stopping = threading.Event()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the listener and start the job workers (non-blocking)."""
        service = self

        class _Handler(_RequestHandler):
            pass

        _Handler.service = service
        self._server = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self.jobs.start()
        self.emit(
            "service_start",
            host=self.host,
            port=self.port,
            store=str(self.store.root),
            cache_entries=self.cache.max_entries,
            job_workers=self.jobs.workers,
            job_queue=self.jobs.queue_limit,
        )

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (CLI mode)."""
        if self._server is None:
            self.start()
        self._server.serve_forever(poll_interval=0.1)

    def start_background(self) -> None:
        """Serve from a daemon thread (tests, benchmarks, embedding)."""
        if self._server is None:
            self.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service",
            daemon=True,
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Graceful stop: new accepts cease, live event tails end (the
        stop predicate), job workers drain, queued jobs fail closed."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        self.jobs.close(wait=True)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.emit("service_stop", **self.status_counts())
        if self.telemetry is not None:
            self.telemetry.close()

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- shared accounting -------------------------------------------------

    def emit(self, event: str, **fields: object) -> None:
        """Thread-safe telemetry emission (handler threads share one log)."""
        if self.telemetry is None:
            return
        with self._telemetry_lock:
            self.telemetry.emit(event, **fields)

    def count_status(self, status: int) -> None:
        bucket = f"{status // 100}xx"
        with self._stats_lock:
            self._status_counts[bucket] = self._status_counts.get(bucket, 0) + 1

    def status_counts(self) -> dict:
        with self._stats_lock:
            return dict(self._status_counts)

    # -- store views -------------------------------------------------------

    def analyses(self) -> dict:
        """Latest cached analysis per dataset (lowest manifest key wins,
        so the pick is deterministic when a dataset is cached under
        several analysis configurations)."""
        chosen: dict[str, dict] = {}
        for manifest in self.store.manifests():
            name = manifest["dataset"]
            if name not in chosen or manifest["key"] < chosen[name]["key"]:
                chosen[name] = manifest
        return {
            name: self.store.load_analysis(manifest).analysis
            for name, manifest in sorted(chosen.items())
        }

    def load_table(self) -> Table:
        """Per-dataset §6 load profile (peak Mbps by timescale)."""
        analyses = self._require_analyses()
        table = Table(
            "Service load",
            "peak utilization per trace, by timescale (Mbps)",
            ["dataset", "traces", "peak 1s", "peak 10s", "peak 60s",
             "median util"],
        )
        for name, analysis in analyses.items():
            report = load_report(analysis.traces)
            cells: list[object] = [name, len(analysis.traces)]
            for scale in (1.0, 10.0, 60.0):
                cdf = report.peak_cdfs.get(scale)
                cells.append(round(cdf.max, 4) if cdf is not None and len(cdf) else "-")
            median = report.utilization_cdfs.get("median")
            cells.append(
                round(median.median, 4) if median is not None and len(median) else "-"
            )
            table.add_row(*cells)
        return table

    def retransmission_table(self) -> Table:
        """Per-dataset §6 retransmission rates, enterprise vs WAN —
        the comparative-rates view the related Pentikousis study argues
        for serving as data rather than prose."""
        analyses = self._require_analyses()
        table = Table(
            "Service retransmission",
            "TCP retransmission rate per trace (ent vs wan, keep-alives "
            "excluded)",
            ["dataset", "where", "traces", "mean", "max", "frac >1%"],
        )
        for name, analysis in analyses.items():
            report = load_report(analysis.traces)
            for where in ("ent", "wan"):
                rates = report.retransmit_rates.get(where, [])
                mean = sum(rates) / len(rates) if rates else 0.0
                table.add_row(
                    name,
                    where,
                    len(rates),
                    round(mean, 6),
                    round(max(rates), 6) if rates else 0.0,
                    round(report.fraction_above(where, 0.01), 6),
                )
        return table

    def _require_analyses(self) -> dict:
        analyses = self.analyses()
        if not analyses:
            raise ServiceError(404, "the store holds no cached analyses yet")
        return analyses

    def build_table(self, name: str) -> Table:
        """One named or numbered table from the cached analyses."""
        if name == "load":
            return self.load_table()
        if name == "retransmission":
            return self.retransmission_table()
        if name == "quality":
            return quality_builders.data_quality_table(self._require_analyses())
        try:
            number = int(name)
        except ValueError:
            raise ServiceError(
                404,
                f"unknown table {name!r} (load, retransmission, quality, "
                f"or a paper table number in {list(_PAPER_TABLES)})",
            ) from None
        if number not in _PAPER_TABLES:
            raise ServiceError(
                404, f"paper table {number} is not servable from the store "
                f"(available: {list(_PAPER_TABLES)})"
            )
        analyses = self._require_analyses()
        if number == 4:
            return table_builders.table4()
        if number == 5:
            return findings_table5(analyses)
        builder = getattr(table_builders, f"table{number}")
        try:
            return builder(analyses)
        except Exception as exc:
            raise ServiceError(
                422,
                f"table {number} cannot be built from the cached analyses: "
                f"{type(exc).__name__}: {exc}",
            ) from None

    # -- daemon read-through -----------------------------------------------

    def daemon_root(self) -> Path:
        return self.store.root / DAEMON_DIR

    def daemon_tenants(self) -> list[dict]:
        root = self.daemon_root()
        tenants = []
        if root.is_dir():
            for path in sorted(p for p in root.iterdir() if p.is_dir()):
                windows = path / "windows"
                tenants.append(
                    {
                        "tenant": path.name,
                        "windows": (
                            sum(1 for _ in windows.glob("*.json"))
                            if windows.is_dir()
                            else 0
                        ),
                        "traces_done": (
                            sum(1 for _ in (path / "traces").glob("t*.json"))
                            if (path / "traces").is_dir()
                            else 0
                        ),
                        "quarantined": (path / "quarantined.json").exists(),
                        "complete": (path / "result.json").exists(),
                    }
                )
        return tenants

    def daemon_windows(
        self,
        tenant: str,
        trace: int | None = None,
        since: int | None = None,
        limit: int = 500,
    ) -> dict:
        """One tenant's rolling windows, straight off the artifact tree.

        Reads are safe against a live daemon: windows are published via
        atomic rename, so every ``*.json`` present is complete.  A file
        that fails to parse anyway (bit rot) is skipped and counted —
        the scrubber's problem, not the reader's.
        """
        windows_dir = self.daemon_root() / tenant / "windows"
        if not windows_dir.is_dir():
            raise ServiceError(404, f"no daemon artifacts for tenant {tenant!r}")
        windows: list[dict] = []
        skipped = 0
        truncated = False
        for path in sorted(windows_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_bytes().decode("utf-8"))
            except (OSError, ValueError):
                skipped += 1
                continue
            if trace is not None and payload.get("trace") != trace:
                continue
            if since is not None and payload.get("index", 0) < since:
                continue
            if len(windows) >= limit:
                truncated = True
                break
            windows.append(payload)
        return {
            "tenant": tenant,
            "windows": windows,
            "count": len(windows),
            "skipped": skipped,
            "truncated": truncated,
        }

    def daemon_result(self, tenant: str) -> dict:
        base = self.daemon_root() / tenant
        if not base.is_dir():
            raise ServiceError(404, f"no daemon artifacts for tenant {tenant!r}")
        payload: dict = {"tenant": tenant}
        result = base / "result.json"
        if result.exists():
            try:
                payload["result"] = json.loads(result.read_bytes().decode("utf-8"))
            except (OSError, ValueError):
                payload["result"] = None
        quarantined = base / "quarantined.json"
        if quarantined.exists():
            try:
                payload["quarantined"] = json.loads(
                    quarantined.read_bytes().decode("utf-8")
                )
            except (OSError, ValueError):
                payload["quarantined"] = {}
        if "result" not in payload and "quarantined" not in payload:
            raise ServiceError(
                404, f"tenant {tenant!r} has no result yet (feed still running?)"
            )
        return payload


class _RequestHandler(BaseHTTPRequestHandler):
    """Thread-per-request handler; all state lives on ``self.service``."""

    service: ReproService  # injected by ReproService.start()
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    #: Headers and body leave as separate small writes; without this the
    #: second write sits behind Nagle + the client's delayed ACK and
    #: every response eats a ~40ms floor on loopback.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        pass  # requests are telemetry events, not stderr noise

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str = _JSON,
        extra_headers: dict | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(
        self, status: int, payload: object, extra_headers: dict | None = None
    ) -> None:
        self._respond(status, _encode(payload), extra_headers=extra_headers)

    def _finish(self, status: int, started: float, cache_state: str | None) -> None:
        service = self.service
        service.count_status(status)
        service.emit(
            "request",
            method=self.command,
            path=self.path.split("?", 1)[0],
            status=status,
            ms=round((time.monotonic() - started) * 1000, 3),
            cache=cache_state,
        )

    # -- dispatch ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = time.monotonic()
        cache_state: str | None = None
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        try:
            params = parse_qs(split.query, keep_blank_values=True)
            if method == "GET" and path.startswith(_CACHEABLE):
                cache_state, status = self._cached_get(path, params)
            elif method == "GET" and path == "/events":
                status = self._get_events(params)
            else:
                status = self._route(method, path, params)
        except ServiceError as exc:
            status = exc.status
            headers = (
                {"Retry-After": str(self.service.jobs.retry_after())}
                if status == 429
                else None
            )
            self._respond_json(
                status, {"error": str(exc)}, extra_headers=headers
            )
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away mid-response; nothing to send
        except Exception as exc:  # a bug, honestly reported as 500
            status = 500
            try:
                self._respond_json(
                    status, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass
        self._finish(status, started, cache_state)

    def _route(self, method: str, path: str, params: dict) -> int:
        service = self.service
        if path == "/health" and method == "GET":
            self._respond_json(200, self._health())
            return 200
        if path == "/studies" and method == "POST":
            return self._post_study()
        if path == "/jobs" and method == "GET":
            self._respond_json(
                200, {"jobs": [job.payload() for job in service.jobs.jobs()]}
            )
            return 200
        if path.startswith("/jobs/") and method == "GET":
            job = service.jobs.get(path[len("/jobs/"):])
            if job is None:
                raise ServiceError(404, f"unknown job {path[len('/jobs/'):]!r}")
            self._respond_json(200, job.payload())
            return 200
        if path == "/daemon" and method == "GET":
            self._respond_json(200, {"tenants": service.daemon_tenants()})
            return 200
        if path.startswith("/daemon/") and method == "GET":
            return self._get_daemon(path[len("/daemon/"):], params)
        if method != "GET":
            raise ServiceError(405, f"{method} not supported on {path}")
        raise ServiceError(404, f"unknown endpoint {path}")

    # -- cacheable store queries -------------------------------------------

    def _cached_get(self, path: str, params: dict) -> tuple[str, int]:
        """Serve one store query through the response cache; returns the
        cache disposition (hit / miss / bypass / 304) and the status.

        The cache key — SHA-256 of the canonical query and the
        store-state token — *is* the response's content identity, so it
        doubles as the ETag: as long as the manifest listing is
        unchanged, the same request maps to the same key and a client
        replaying its stored validator gets ``304 Not Modified`` with
        an empty body, whether or not the entry still sits in the
        response cache.  Compaction and rebalance never rename a
        manifest, so validators survive both.
        """
        service = self.service
        bypass = _flag(params, "cache_bypass")
        canonical = "&".join(
            f"{name}={value}"
            for name in sorted(params)
            if name != "cache_bypass"
            for value in sorted(params[name])
        )
        token = store_state_token(service.store.root)
        key = service.cache.key_for(path, canonical, token)
        etag = f'"{key[:32]}"'
        if not bypass:
            if _etag_match(self.headers.get("If-None-Match"), etag):
                self._respond(
                    304, b"", extra_headers={"X-Cache": "hit", "ETag": etag}
                )
                return "304", 304
            entry = service.cache.get(key)
            if entry is not None:
                self._respond(
                    entry.status, entry.body, entry.content_type,
                    extra_headers={"X-Cache": "hit", "ETag": etag},
                )
                return "hit", 200
        body = _encode(self._build_query(path, params))
        if not bypass:
            service.cache.put(key, CachedResponse(200, _JSON, body))
        self._respond(
            200, body,
            extra_headers={
                "X-Cache": "bypass" if bypass else "miss", "ETag": etag,
            },
        )
        return ("bypass" if bypass else "miss"), 200

    def _build_query(self, path: str, params: dict) -> dict:
        """Compute one store-query response body (the cold path)."""
        service = self.service
        query = StoreQuery(service.store)
        if path == "/studies":
            manifests = [
                {
                    "dataset": manifest["dataset"],
                    "key": manifest["key"],
                    "schema": manifest["schema"],
                    "traces": len(manifest["traces"]),
                    "packets": sum(
                        entry["packet_count"] for entry in manifest["traces"]
                    ),
                }
                for manifest in service.store.manifests()
            ]
            manifests.sort(key=lambda entry: (entry["dataset"], entry["key"]))
            return {"studies": manifests, "count": len(manifests)}
        if path == "/query":
            by = _single(params, "by") or "category"
            if by not in GROUP_DIMENSIONS:
                raise ServiceError(
                    400, f"unknown group dimension {by!r} "
                    f"(one of {list(GROUP_DIMENSIONS)})"
                )
            rows = query.aggregate(_filter_from(params), by=by)
            return {
                "by": by,
                "rows": [
                    {
                        "group": row.group,
                        "conns": row.conns,
                        "bytes": row.bytes,
                        "pkts": row.pkts,
                    }
                    for row in rows
                ],
                "total": {
                    "conns": sum(row.conns for row in rows),
                    "bytes": sum(row.bytes for row in rows),
                    "pkts": sum(row.pkts for row in rows),
                },
            }
        if path == "/cdf":
            field = _single(params, "field")
            if field not in SAMPLE_FIELDS:
                raise ServiceError(
                    400, f"field must be one of {list(SAMPLE_FIELDS)}, "
                    f"got {field!r}"
                )
            cdf = query.cdf(field, _filter_from(params))
            if not len(cdf):
                return {"field": field, "n": 0, "quantiles": {}, "points": []}
            return {
                "field": field,
                "n": len(cdf),
                "quantiles": {
                    f"p{int(q * 100)}": cdf.quantile(q) for q in _CDF_QUANTILES
                },
                "min": cdf.min,
                "max": cdf.max,
                "points": cdf.points(max_points=200),
            }
        if path.startswith("/tables/"):
            name = path[len("/tables/"):]
            return {"table": _table_payload(service.build_table(name))}
        raise ServiceError(404, f"unknown endpoint {path}")

    # -- jobs --------------------------------------------------------------

    def _post_study(self) -> int:
        service = self.service
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except ValueError:
            raise ServiceError(400, "request body must be JSON") from None
        try:
            request = validate_study_request(payload)
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from None
        job = service.jobs.submit(request)
        if job is None:
            raise ServiceError(
                429,
                "job queue is full; retry after the Retry-After interval",
            )
        service.emit("job_submitted", job=job.id, **{
            "seed": request["seed"],
            "scale": request["scale"],
            "datasets": list(request["datasets"]),
        })
        self._respond_json(
            202,
            {"id": job.id, "state": job.state, "poll": f"/jobs/{job.id}"},
        )
        return 202

    # -- daemon ------------------------------------------------------------

    def _get_daemon(self, rest: str, params: dict) -> int:
        service = self.service
        parts = rest.split("/")
        if len(parts) == 2 and parts[1] == "windows":
            payload = service.daemon_windows(
                parts[0],
                trace=_number(params, "trace", int),
                since=_number(params, "since", int),
                limit=min(_number(params, "limit", int) or 500, 5000),
            )
            self._respond_json(200, payload)
            return 200
        if len(parts) == 2 and parts[1] == "result":
            self._respond_json(200, service.daemon_result(parts[0]))
            return 200
        raise ServiceError(
            404,
            "daemon endpoints: /daemon, /daemon/<tenant>/windows, "
            "/daemon/<tenant>/result",
        )

    # -- events tail -------------------------------------------------------

    def _get_events(self, params: dict) -> int:
        """Stream the service telemetry as NDJSON until timeout, count
        limit, or service shutdown — whichever comes first."""
        service = self.service
        telemetry = service.telemetry
        if telemetry is None or telemetry.path is None:
            raise ServiceError(
                404, "the service was started without --telemetry; "
                "there is no event stream to tail"
            )
        timeout = min(
            _number(params, "timeout", float) or 10.0, _EVENTS_MAX_TIMEOUT
        )
        limit = min(
            _number(params, "max", int) or 1000, _EVENTS_MAX_COUNT
        )
        wanted_raw = _single(params, "events")
        wanted = set(wanted_raw.split(",")) if wanted_raw else None
        self.send_response(200)
        self.send_header("Content-Type", _NDJSON)
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        # The service's shutdown event is the stop predicate: a live
        # tail ends promptly when the server drains instead of holding
        # its handler thread until the timeout.
        for event in read_events(
            telemetry.path,
            follow=True,
            timeout=timeout,
            stop=lambda: service.stopping or sent >= limit,
        ):
            if wanted is not None and event.get("event") not in wanted:
                continue
            try:
                self.wfile.write(_encode(event))
                self.wfile.flush()
            except OSError:
                break  # client hung up; the tail has no one to talk to
            sent += 1
        return 200

    # -- health ------------------------------------------------------------

    def _health(self) -> dict:
        service = self.service
        store_stats = service.store.stats()
        # A multi-root store with a dead root still serves (replicas cover
        # it) but an operator must see the degradation here, not in a
        # post-mortem: any down root or queued repair flips the status.
        tier = store_stats["tier"]
        under = tier["under_replicated"]
        degraded = any(
            root["status"] == "down" for root in tier["roots"]
        ) or under["objects"] or under["manifests"]
        return {
            "status": "degraded" if degraded else "ok",
            "uptime_s": round(
                time.monotonic() - service._started_monotonic, 3
            ),
            "store": store_stats,
            "cache": service.cache.stats(),
            "jobs": service.jobs.stats(),
            "responses": service.status_counts(),
        }
