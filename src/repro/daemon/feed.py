"""One tenant's feed worker: the child-process side of the daemon.

A feed runs in its own forked process (one per tenant), ingesting the
tenant's traces through the ingest engine and publishing three
kinds of durable artifacts under ``<store>/daemon/<tenant>/``:

* ``windows/t{T:03d}-w{W:06d}.json`` — one file per closed rolling
  window.  Content is a pure function of the trace bytes and the
  streaming config, and every publish goes through the chaos-safe
  :func:`~repro.chaos.fsio.publish_text` seam, so a feed killed at any
  point republishes *byte-identical* files on restart — per-tenant
  window digests are therefore independent of interruption history.
* ``traces/t{T:03d}.json`` — the per-trace completion marker (stats,
  scan verdict, window summary).  Its existence is what lets a
  restarted feed skip finished traces; it is published strictly after
  the engine clears the trace's resume checkpoint, so a kill in the
  gap merely reprocesses one trace into identical artifacts.
* ``result.json`` — the whole-feed rollup, written last.

The feed is a :mod:`repro.runtime.child` child, like a pool unit:
``(kind, payload)`` progress messages flow back over the child's pipe,
interleaved with the child module's ``("hb", ts)`` liveness beats.
SIGTERM sets the engine's drain event: the feed flushes a final
checkpoint mid-trace, reports ``drained``, and exits — that is the
daemon's graceful shutdown.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

from ..analysis.errors import IngestionError, TraceQuarantined
from ..chaos import fsio
from ..pcap.reader import PcapReader
from ..store.cache import DAEMON_DIR, ConnStore
from ..analysis.engine import DatasetAnalyzer, StreamConfig, StreamDrained
from ..stream.source import PacketSource

__all__ = ["PacedSource", "run_feed", "tenant_dir", "feed_child"]

#: Packets between pacing sleeps (keeps the sleep syscall rate low).
_PACE_BATCH = 64


def tenant_dir(store_root: str | Path, tenant: str) -> Path:
    """Where one tenant's daemon artifacts live."""
    return Path(store_root) / DAEMON_DIR / tenant


class PacedSource(PacketSource):
    """A :class:`PacketSource` throttled to ~``packet_rate`` pkts/s.

    Replayed pcaps arrive as fast as the disk allows; a live capture
    does not.  Pacing restores the live shape — and gives tests a
    deterministic "the daemon is mid-window *now*" handle to kill at.
    """

    def __init__(self, packets, path: str = "<memory>",
                 packet_rate: float = 0.0) -> None:
        super().__init__(packets, path=path)
        self.packet_rate = packet_rate

    @classmethod
    def open_paced(cls, path, *, errors=None,
                   packet_rate: float = 0.0) -> "PacedSource":
        return cls(PcapReader.open(path, errors=errors),
                   packet_rate=packet_rate)

    def __iter__(self):
        if self.packet_rate <= 0:
            yield from super().__iter__()
            return
        pause = _PACE_BATCH / self.packet_rate
        for count, pkt in enumerate(super().__iter__(), 1):
            yield pkt
            if count % _PACE_BATCH == 0:
                time.sleep(pause)


def _publish_json(path: Path, payload: dict) -> None:
    """Durably publish one JSON artifact (atomic, fsynced, idempotent).

    ``sort_keys`` makes republication after a kill byte-identical —
    the whole digest-stability story rests on this plus the engine's
    determinism.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fsio.publish_text(
        path, json.dumps(payload, sort_keys=True) + "\n",
        tmp_prefix=f".{path.stem}-",
    )


def _load_assign(base: Path) -> dict:
    """The tenant's persistent source-name -> trace-index table.

    Positional indices break the moment the source *set* changes
    mid-run: a new file sorting before an old one would shift every
    later index, colliding checkpoint keys and window/marker filenames
    across incarnations.  The assignment table is append-only — a
    source keeps its index forever, new sources get the next free one —
    so watching a directory can never rewrite history.
    """
    try:
        payload = json.loads(
            fsio.read_bytes(base / "assign.json").decode("utf-8")
        )
        return {
            "sources": dict(payload.get("sources", {})),
            "next": int(payload.get("next", 0)),
        }
    except (OSError, ValueError):
        return {"sources": {}, "next": 0}


def _assign_indices(base: Path, assign: dict, traces: list[Path]) -> list[str]:
    """Give every new source a stable index; returns the new names.

    Published atomically *before* any new trace is processed, so a kill
    between assignment and processing resumes with the same indices.
    """
    fresh = []
    for path in traces:
        if path.name not in assign["sources"]:
            assign["sources"][path.name] = assign["next"]
            assign["next"] += 1
            fresh.append(path.name)
    if fresh:
        _publish_json(base / "assign.json", assign)
    return fresh


def run_feed(payload: dict, drain: threading.Event, send) -> str:
    """Ingest every trace of one tenant; returns ``"done"``/``"drained"``.

    ``payload`` carries the plain-data feed spec (see the supervisor);
    ``send(kind, body)`` ships progress messages to the supervisor and
    must never raise.  Runs one :class:`DatasetAnalyzer` per
    trace with a per-trace checkpoint key, so a restarted feed resumes
    the interrupted trace exactly where its last checkpoint left it
    while completed traces are skipped by marker.

    With ``payload["watch"]`` (and a directory source) the feed never
    finishes on its own: after draining the current trace list it
    rescans the directory every ``watch_interval`` seconds, ingesting
    pcaps dropped in *during* the run — not only at (re)start — until
    SIGTERM drains it.  Trace indices come from the persistent
    assignment table, so late arrivals extend the artifact tree without
    perturbing any existing index.
    """
    tenant = payload["tenant"]
    store = ConnStore(payload["store_root"])
    base = tenant_dir(payload["store_root"], tenant)
    config = StreamConfig(
        window=payload["window"],
        max_flows=payload["flow_budget"],
        checkpoint_every=payload["checkpoint_every"],
    )
    rate = payload.get("packet_rate", 0.0)
    source = payload.get("source")
    watch = (
        bool(payload.get("watch"))
        and source is not None
        and Path(source).is_dir()
    )
    watch_interval = payload.get("watch_interval", 2.0)
    assign = _load_assign(base)
    traces = [Path(text) for text in payload["traces"]]
    first_scan = True
    while True:
        if not first_scan:
            traces = sorted(Path(source).glob("*.pcap"))
        fresh = _assign_indices(base, assign, traces)
        if fresh and not first_scan:
            send(
                "rescan",
                {"tenant": tenant, "new": fresh, "total": len(traces)},
            )
        outcome = _run_traces(
            payload, drain, send, store, base, config, rate, assign, traces
        )
        if outcome == "drained":
            return "drained"
        result = _rollup(base, tenant)
        _publish_json(base / "result.json", result)
        if not watch:
            send("done", result)
            return "done"
        first_scan = False
        if drain.wait(timeout=watch_interval):
            send("drained", {"tenant": tenant, "trace": -1, "packets": 0})
            return "drained"


def _run_traces(
    payload: dict,
    drain: threading.Event,
    send,
    store,
    base: Path,
    config: StreamConfig,
    rate: float,
    assign: dict,
    traces: list[Path],
) -> str:
    """One pass over a trace list; returns ``"done"`` or ``"drained"``."""
    tenant = payload["tenant"]
    for trace_path in traces:
        gidx = assign["sources"][Path(trace_path).name]
        marker = base / "traces" / f"t{gidx:03d}.json"
        if marker.exists():
            continue  # finished in a previous incarnation
        if drain.is_set():
            send("drained", {"tenant": tenant, "trace": gidx, "packets": 0})
            return "drained"

        def publish_window(window, _trace=gidx):
            body = {"tenant": tenant, "trace": _trace, **window.payload()}
            _publish_json(
                base / "windows" / f"t{_trace:03d}-w{window.index:06d}.json",
                body,
            )
            send("window", body)

        analyzer = DatasetAnalyzer(
            tenant,
            full_payload=False,
            error_policy=payload["error_policy"],
            store=store,
            checkpoint_base=f"daemon-{tenant}-t{gidx:03d}",
            window_observer=publish_window,
            drain_event=drain,
            **asdict(config),
        )
        label = str(trace_path)
        errors = analyzer._new_error_log(label)
        try:
            source = PacedSource.open_paced(
                trace_path, errors=errors, packet_rate=rate
            )
        except TraceQuarantined as exc:
            stats = analyzer._quarantined_trace(label, errors, exc.reason)
        else:
            try:
                with source:
                    stats = analyzer.process_packets(
                        source, label=label, errors=errors
                    )
            except StreamDrained as exc:
                send(
                    "drained",
                    {"tenant": tenant, "trace": gidx, "packets": exc.packets},
                )
                return "drained"
        analysis = analyzer.finish()
        scanners = sorted(analysis.scanner_sources)
        if scanners:
            send("scan", {"tenant": tenant, "trace": gidx, "sources": scanners})
        summary = (
            analyzer.window_summaries[-1] if analyzer.window_summaries else {}
        )
        record = {
            "tenant": tenant,
            "trace": gidx,
            "source": Path(trace_path).name,
            "packets": stats.packets,
            "conns": len(analysis.conns),
            "errors": dict(stats.errors),
            "quarantined": stats.quarantined,
            "scanners": scanners,
            "windows": summary,
        }
        _publish_json(marker, record)
        send(
            "trace",
            {
                "tenant": tenant,
                "trace": gidx,
                "packets": stats.packets,
                "conns": len(analysis.conns),
                "quarantined": stats.quarantined,
            },
        )
    return "done"


def _rollup(base: Path, tenant: str) -> dict:
    """Aggregate the on-disk trace markers into the feed result.

    Read back from disk rather than from memory so a feed that
    completed traces across several incarnations still rolls up every
    one of them.
    """
    traces = []
    for path in sorted((base / "traces").glob("t*.json")):
        try:
            traces.append(json.loads(fsio.read_bytes(path).decode("utf-8")))
        except (OSError, ValueError):
            continue  # unreadable marker: the trace will re-run next start
    return {
        "tenant": tenant,
        "traces": len(traces),
        "packets": sum(t.get("packets", 0) for t in traces),
        "conns": sum(t.get("conns", 0) for t in traces),
        "quarantined_traces": [
            t["trace"] for t in traces if t.get("quarantined")
        ],
        "windows": sum(
            t.get("windows", {}).get("windows", 0) for t in traces
        ),
    }


def feed_child(send, payload: dict) -> None:
    """A feed's child body (see :func:`repro.runtime.child.child_entry`).

    SIGTERM flips the engine's drain event instead of killing the
    process, so the final checkpoint gets flushed before exit.  A feed
    that fails reports an ``error`` message and exits with code 1.
    """
    drain = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: drain.set())
    try:
        run_feed(payload, drain, lambda kind, body: send((kind, body)))
    except Exception as exc:
        typed = isinstance(exc, IngestionError)
        send(("error", {
            "tenant": payload["tenant"],
            "kind": exc.kind.value if typed else "worker_error",
            "detail": str(exc) if typed else f"{type(exc).__name__}: {exc}",
        }))
        sys.exit(1)
