"""Outside-in tracing: wrap the program's functions at its layer seams.

The tracer patches module and class attributes in the process that runs
the workload, and only there; nothing in the program knows it is being
traced.  Every wrapped call pushes a frame on one stack, so a call made
while another wrapped call is running is its child -- including the lazy
case, where ``realize_session`` runs inside the first ``next()`` that
``PcapWriter.write_all`` takes from its packet generator.

A seam's *self time* is its total time minus the time of its wrapped
children.  Per-packet seams (checksum, decode, flow update) keep only
per-seam aggregates -- calls, total and self time -- so a quarter of a
million calls do not become span objects; coarse seams also keep a span
``(parent, name, start, end)``.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Iterable

#: ``count(args, result)`` yields ``(counter name, amount)`` pairs.
Counter = Callable[[tuple, object], Iterable[tuple[str, int]]]

_EVERY = ("d1-headers", "d4-flows", "d0d3-two-datasets")
_PAYLOAD = ("d0d3-two-datasets", "d4-flows")
_GENERATE = ("study_pkts_per_s", "setup_s")
_INGEST = ("ingest_pkts_per_s", "study_pkts_per_s", "setup_s")
_STORE_WRITE = ("study_pkts_per_s", "setup_s")
_SERVE_HIT = ("serve_hit_p50_ms", "serve_hit_p95_ms")
_SERVE_COLD = ("serve_cold_rps", "serve_cold_p50_ms")
_STORE_READ = ("warm_study_ms",) + _SERVE_COLD

#: Per-layer metric -> (end-to-end metrics it should move, the workloads
#: where it should move them most), written down before measuring.  Every
#: layer moves nothing on the metrics it is not listed for: the generator,
#: for one, never runs in the ingest or serve phases.
SHOULD_MOVE: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "gen.sessions_s": (_GENERATE, _EVERY),
    "gen.sessions": (_GENERATE, _EVERY),
    "gen.realize_s": (_GENERATE, _EVERY),
    "gen.packets": (_GENERATE, _EVERY),
    "net.checksum_s": (_GENERATE, _PAYLOAD),
    "net.checksum_calls": (_GENERATE, _EVERY),
    "net.checksum_bytes": (_GENERATE, _PAYLOAD),
    "pcap.write_s": (_GENERATE, _PAYLOAD),
    "pcap.bytes_written": (_GENERATE, _PAYLOAD),
    "gen.generate_dataset_s": (_GENERATE, _EVERY),
    "pcap.read_s": (_INGEST, _PAYLOAD),
    "pcap.bytes_read": (_INGEST, _PAYLOAD),
    "net.decode_s": (_INGEST, ("d1-headers", "d4-flows")),
    "net.decode_calls": (_INGEST, ("d1-headers", "d4-flows")),
    "analysis.flow_s": (_INGEST, ("d4-flows",)),
    "analysis.conns": (_INGEST, ("d4-flows",)),
    "analysis.ingest_loop_s": (_INGEST, _EVERY),
    "analysis.analyzers_s": (_INGEST, _PAYLOAD),
    **{
        f"analysis.analyzer.{name}_s": (_INGEST, _PAYLOAD)
        for name in ("http", "email", "dns", "netbios", "windows", "nfs", "ncp", "backup")
    },
    "analysis.scanfilter_s": (_INGEST, ("d4-flows",)),
    "analysis.finish_s": (_INGEST, ("d4-flows",)),
    # Peak RSS follows each seed's input too closely (60-160 MB across ten
    # seeds of one workload) to hold an end-to-end bound; it is watched here.
    "analysis.ingest_peak_mb": (_INGEST, ("d4-flows",)),
    "store.file_digest_s": (_STORE_WRITE, _PAYLOAD),
    "store.file_digest_bytes": (_STORE_WRITE, _PAYLOAD),
    "store.save_analysis_s": (_STORE_WRITE, _EVERY),
    "store.put_object_s": (_STORE_WRITE, _EVERY),
    "store.bytes_written": (_STORE_WRITE, _EVERY),
    "store.load_analysis_s": (_STORE_READ, ("d0d3-two-datasets",)),
    "store.get_object_s": (_STORE_READ, ("d0d3-two-datasets",)),
    "store.bytes_read": (_STORE_READ, ("d0d3-two-datasets",)),
    "store.lookup_s": (("warm_study_ms",), _EVERY),
    "store.lookups": (("warm_study_ms",), _EVERY),
    "report.render_s": (("warm_study_ms", "study_pkts_per_s") + _SERVE_COLD, _EVERY),
    "report.renders": (("warm_study_ms", "study_pkts_per_s"), _EVERY),
    "report.category_breakdown_s": (("warm_study_ms", "study_pkts_per_s"), _EVERY),
    "core.study_self_s": (("warm_study_ms",), _EVERY),
    "service.analyses_ms": (_SERVE_COLD, ("d0d3-two-datasets",)),
    "service.build_table_ms": (_SERVE_COLD, ("d0d3-two-datasets",)),
    "service.store_state_token_us": (_SERVE_HIT, _EVERY),
    "service.server_cpu_us_per_hit": (_SERVE_HIT, _EVERY),
    "service.server_cpu_ms_per_cold": (_SERVE_COLD, _EVERY),
    "service.hit_ratio": (_SERVE_HIT, _EVERY),
    # The tracer's own cost: it moves no metric of the untraced runs.
    "trace.overhead_pct": ((), _EVERY),
}


class Tracer:
    """A stack of open frames plus per-seam aggregates and coarse spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: ``[parent span index or None, seam, start, end]`` per coarse call.
        self.spans: list[list] = []
        self._stack: list[list] = []  # [seam, start, child seconds, span index]
        self._patches: list[tuple[object, str, object]] = []

    # -- frames ----------------------------------------------------------

    def enter(self, seam: str, keep_span: bool = False) -> None:
        start = self.clock()
        span = None
        if keep_span:
            parent = next(
                (frame[3] for frame in reversed(self._stack) if frame[3] is not None),
                None,
            )
            span = len(self.spans)
            self.spans.append([parent, seam, start, None])
        self._stack.append([seam, start, 0.0, span])

    def exit(self) -> None:
        seam, start, children, span = self._stack.pop()
        end = self.clock()
        elapsed = end - start
        self.calls[seam] = self.calls.get(seam, 0) + 1
        self.total[seam] = self.total.get(seam, 0.0) + elapsed
        self.self_time[seam] = self.self_time.get(seam, 0.0) + elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed
        if span is not None:
            self.spans[span][3] = end

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        seam: str,
        fn: Callable,
        keep_span: bool = False,
        count: Counter | None = None,
    ) -> Callable:
        """``fn`` timed as ``seam``; ``count`` tallies what each call did."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(seam, keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                for name, amount in count(args, result):
                    self.count(name, amount)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(
        self,
        owner: object,
        attr: str,
        seam: str,
        keep_span: bool = False,
        count: Counter | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a class's method)
        with its traced wrapper until :meth:`uninstall`."""
        own = vars(owner).get(attr)
        if isinstance(own, staticmethod):
            replacement = staticmethod(self.wrap(seam, own.__func__, keep_span, count))
        else:
            replacement = self.wrap(seam, getattr(owner, attr), keep_span, count)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back as it was."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, own)

    def install_seams(self) -> None:
        """Patch every layer seam the per-layer metrics read."""
        from repro.analysis import scanfilter
        from repro.analysis import engine as batch_engine
        from repro.analysis.analyzers import DEFAULT_ANALYZERS
        from repro.analysis.flow import FlowTable
        from repro.core import study
        from repro.gen import packetize
        from repro.gen.capture import ALL_GENERATORS
        from repro.net import icmp, ipv4, tcp, udp
        from repro.pcap.writer import PcapWriter
        from repro.store.cache import ConnStore
        from repro.stream import engine as stream_engine
        from repro.stream.flowtable import StreamFlowTable

        self.patch(study, "run_study", "core.study", keep_span=True)
        self.patch(
            study, "generate_dataset", "gen.generate_dataset", keep_span=True,
            count=lambda args, traces: [
                ("pcap.bytes_written",
                 sum(os.path.getsize(trace.path) for trace in traces.traces)),
            ],
        )
        for cls in ALL_GENERATORS:
            self.patch(
                cls, "generate", "gen.sessions",
                count=lambda args, sessions: [("gen.sessions", len(sessions))],
            )
        self.patch(
            packetize, "realize_session", "gen.realize",
            count=lambda args, packets: [("gen.packets", len(packets))],
        )
        for module in (tcp, udp, ipv4, icmp):
            self.patch(
                module, "internet_checksum", "net.checksum",
                count=lambda args, _: [("net.checksum_bytes", len(args[0]))],
            )
        self.patch(PcapWriter, "write_all", "pcap.write", keep_span=True)
        for module in (batch_engine, stream_engine):
            self.patch(module, "decode_packet", "net.decode")
        for cls in (FlowTable, StreamFlowTable):
            self.patch(cls, "process", "analysis.flow")
        for cls in (batch_engine.DatasetAnalyzer, stream_engine.StreamDatasetAnalyzer):
            self.patch(cls, "process_pcap", "analysis.ingest_loop", keep_span=True)
        for cls in DEFAULT_ANALYZERS:
            for hook in ("on_connection", "on_udp", "result"):
                self.patch(cls, hook, f"analysis.analyzer.{cls.name}")
        self.patch(scanfilter, "find_scanners", "analysis.scanfilter", keep_span=True)
        self.patch(
            batch_engine.DatasetAnalyzer, "finish", "analysis.finish", keep_span=True,
            count=lambda args, analysis: [("analysis.conns", len(analysis.conns))],
        )
        self.patch(
            ConnStore, "file_digest", "store.file_digest", keep_span=True,
            count=lambda args, _: [("store.file_digest_bytes", os.path.getsize(args[0]))],
        )
        self.patch(ConnStore, "save_analysis", "store.save_analysis", keep_span=True)
        self.patch(
            ConnStore, "put_object", "store.put_object",
            count=lambda args, _: [("store.bytes_written", len(args[1]))],
        )
        self.patch(ConnStore, "load_analysis", "store.load_analysis", keep_span=True)
        self.patch(
            ConnStore, "get_object", "store.get_object",
            count=lambda args, data: [("store.bytes_read", len(data))],
        )
        self.patch(
            ConnStore, "lookup", "store.lookup",
            count=lambda args, _: [("store.lookups", 1)],
        )
        for method in ("render_table", "render_figure", "render_data_quality"):
            self.patch(
                study.StudyResults, method, "report.render", keep_span=True,
                count=lambda args, _: [("report.renders", 1)],
            )
        self.patch(
            study, "category_breakdown", "report.category_breakdown", keep_span=True
        )

    def span_tree(self) -> list[tuple[int, str, int, float]]:
        """Coarse spans folded by call path, in first-seen order:
        ``(depth, seam, calls, seconds)`` per distinct path."""
        paths: list[tuple[str, ...]] = []
        folded: dict[tuple[str, ...], list] = {}
        for parent, seam, start, end in self.spans:
            path = (seam,) if parent is None else paths[parent] + (seam,)
            paths.append(path)
            entry = folded.setdefault(path, [0, 0.0])
            entry[0] += 1
            entry[1] += (end if end is not None else start) - start
        return [(len(path) - 1, path[-1], calls, seconds)
                for path, (calls, seconds) in folded.items()]

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """The traced per-layer metrics, averaged per pipeline pass."""
        per = 1.0 / max(1, passes)

        def self_s(seam: str) -> float:
            return self.self_time.get(seam, 0.0) * per

        def counted(name: str) -> float:
            return self.counts.get(name, 0) * per

        analyzers = sorted(
            seam for seam in self.self_time if seam.startswith("analysis.analyzer.")
        )
        metrics = {
            "gen.sessions_s": self_s("gen.sessions"),
            "gen.sessions": counted("gen.sessions"),
            "gen.realize_s": self_s("gen.realize"),
            "gen.packets": counted("gen.packets"),
            "net.checksum_s": self_s("net.checksum"),
            "net.checksum_calls": self.calls.get("net.checksum", 0) * per,
            "net.checksum_bytes": counted("net.checksum_bytes"),
            "pcap.write_s": self_s("pcap.write"),
            "pcap.bytes_written": counted("pcap.bytes_written"),
            "gen.generate_dataset_s": self.total.get("gen.generate_dataset", 0.0) * per,
            "net.decode_s": self_s("net.decode"),
            "net.decode_calls": self.calls.get("net.decode", 0) * per,
            "analysis.flow_s": self_s("analysis.flow"),
            "analysis.conns": counted("analysis.conns"),
            "analysis.ingest_loop_s": self_s("analysis.ingest_loop"),
            "analysis.analyzers_s": sum(self_s(seam) for seam in analyzers),
            "analysis.scanfilter_s": self_s("analysis.scanfilter"),
            "analysis.finish_s": self_s("analysis.finish"),
            "store.file_digest_s": self_s("store.file_digest"),
            "store.file_digest_bytes": counted("store.file_digest_bytes"),
            "store.save_analysis_s": self_s("store.save_analysis"),
            "store.put_object_s": self_s("store.put_object"),
            "store.bytes_written": counted("store.bytes_written"),
            "store.load_analysis_s": self_s("store.load_analysis"),
            "store.get_object_s": self_s("store.get_object"),
            "store.bytes_read": counted("store.bytes_read"),
            "store.lookup_s": self_s("store.lookup"),
            "store.lookups": counted("store.lookups"),
            "report.render_s": self_s("report.render"),
            "report.renders": counted("report.renders"),
            "report.category_breakdown_s": self_s("report.category_breakdown"),
            "core.study_self_s": self_s("core.study"),
        }
        for seam in analyzers:
            metrics[f"{seam}_s"] = self_s(seam)
        return metrics
