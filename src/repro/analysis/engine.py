"""The dataset analysis engine: traces in, analysis products out.

One :class:`DatasetAnalyzer` consumes a dataset's trace files in order,
each in a single bounded-memory pass: the flow table, the network-layer
accounting (Table 2), per-trace utilization and retransmission
accounting (Figures 9-10), live per-window aggregates, optional crash
checkpoints, and every registered application analyzer, then aggregates
the results into a :class:`DatasetAnalysis` (see ``docs/streaming.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, ETHERTYPE_IPX
from ..net.packet import CapturedPacket, DecodedPacket, decode_packet
from ..stream.aggregates import WindowAggregator, WindowObserver
from ..stream.source import PacketSource
from ..util.addr import Subnet
from ..util.stats import Summary
from ..util.timeline import ByteTimeline, StreamingTimeline
from .conn import DEFAULT_INTERNAL_NET, ConnRecord
from .errors import (
    AnalyzerFailure,
    CircuitBreaker,
    ErrorBudget,
    ErrorKind,
    ErrorPolicy,
    IngestionError,
    TraceErrorLog,
    TraceQuarantined,
)
from .flow import DEFAULT_IDLE_TIMEOUT, DEFAULT_MAX_FLOWS, FlowResult, FlowTable

__all__ = [
    "TraceStats",
    "DatasetAnalysis",
    "DatasetAnalyzer",
    "Analyzer",
    "StreamConfig",
    "StreamDrained",
]


class Analyzer:
    """Base class for application analyzers.

    ``on_udp`` fires once per UDP datagram (payload parsing without
    buffering); ``on_connection`` fires once per finished connection with
    any reassembled TCP streams.  Before ``result`` is called the engine
    sets ``scanners`` to the sources identified by the §3 scan filter, so
    connection-level reports can exclude scanner traffic the way the
    paper does ("prior to our subsequent analysis, we remove traffic from
    sources identified as scanners").
    """

    name = "analyzer"
    scanners: frozenset[int] | set[int] = frozenset()

    def on_udp(self, record: ConnRecord, from_orig: bool, pkt: DecodedPacket) -> None:
        pass

    def on_connection(self, result: FlowResult, full_payload: bool) -> None:
        pass

    def result(self):
        """The analyzer's finished product (any shape it likes)."""
        return None


@dataclass
class TraceStats:
    """Per-trace statistics (one tap window)."""

    index: int
    path: str
    packets: int = 0
    start_ts: float = 0.0
    end_ts: float = 0.0
    # Network-layer packet counts (Table 2).
    l2_counts: dict[str, int] = field(default_factory=dict)
    # Minor IP transports (IGMP/PIM/GRE/ESP/...), protocol number -> packets;
    # "each of which make up only a slim portion of the traffic" (§3).
    other_ip_protocols: dict[int, int] = field(default_factory=dict)
    # Utilization (Figure 9): per-second byte bins.
    utilization: ByteTimeline | None = None
    # Retransmission accounting (Figure 10), keyed "ent"/"wan".
    tcp_packets: dict[str, int] = field(default_factory=lambda: {"ent": 0, "wan": 0})
    retransmits: dict[str, int] = field(default_factory=lambda: {"ent": 0, "wan": 0})
    # Data-quality accounting: defect counts by ErrorKind value.
    errors: dict[str, int] = field(default_factory=dict)
    #: Packets whose timestamp ran backwards relative to their predecessor.
    timestamp_regressions: int = 0
    #: True when the trace exceeded its error budget (or hit a fatal
    #: defect) and its connections were withheld from the analysis.
    quarantined: bool = False
    quarantine_reason: str = ""

    @property
    def total_errors(self) -> int:
        """Total ingestion defects recorded for this trace."""
        return sum(self.errors.values())

    @property
    def truncated_tail(self) -> bool:
        """True when the reader stopped early at structural file damage."""
        return bool(
            self.errors.get(ErrorKind.TRUNCATED_HEADER.value)
            or self.errors.get(ErrorKind.TRUNCATED_BODY.value)
        )

    def retransmit_rate(self, where: str) -> float | None:
        """Retransmitted fraction for "ent"/"wan"; None below 1000 packets."""
        total = self.tcp_packets.get(where, 0)
        if total < 1000:
            return None
        return self.retransmits.get(where, 0) / total

    def utilization_summary(self) -> Summary | None:
        """Per-second Mbps summary, if any packets were seen."""
        if self.utilization is None:
            return None
        return self.utilization.utilization_summary()


@dataclass
class DatasetAnalysis:
    """Everything the reporting layer needs about one dataset."""

    name: str
    full_payload: bool
    internal_net: Subnet
    conns: list[ConnRecord] = field(default_factory=list)
    traces: list[TraceStats] = field(default_factory=list)
    analyzer_results: dict[str, object] = field(default_factory=dict)
    #: (server_ip, port) endpoints learned from the Endpoint Mapper.
    windows_endpoints: set[tuple[int, int]] = field(default_factory=set)
    #: Sources removed by the scan filter (set after filtering).
    scanner_sources: set[int] = field(default_factory=set)
    removed_conns: int = 0
    #: The error policy the dataset was ingested under.
    error_policy: str = ErrorPolicy.STRICT.value
    #: Analyzer name -> hook failure count (circuit-breaker accounting).
    analyzer_errors: dict[str, int] = field(default_factory=dict)
    #: Storage-plane failures absorbed while persisting this analysis
    #: (operation -> count).  Transient by construction: a cached copy
    #: loaded back from the store had, by definition, no I/O errors, so
    #: this never travels through the shard format.
    io_errors: dict[str, int] = field(default_factory=dict)

    def filtered_conns(self) -> list[ConnRecord]:
        """Connections with scanner traffic removed (the §3 baseline)."""
        return [conn for conn in self.conns if conn.orig_ip not in self.scanner_sources]

    @property
    def total_packets(self) -> int:
        return sum(trace.packets for trace in self.traces)

    def l2_totals(self) -> dict[str, int]:
        """Dataset-wide network-layer packet counts."""
        totals: dict[str, int] = {}
        for trace in self.traces:
            for key, value in trace.l2_counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def other_transport_totals(self) -> dict[int, int]:
        """Dataset-wide packet counts for the minor IP transports."""
        totals: dict[int, int] = {}
        for trace in self.traces:
            for proto, count in trace.other_ip_protocols.items():
                totals[proto] = totals.get(proto, 0) + count
        return totals

    # -- data-quality accounting ----------------------------------------------

    def error_totals(self) -> dict[str, int]:
        """Dataset-wide ingestion defect counts by :class:`ErrorKind` value."""
        totals: dict[str, int] = {}
        for trace in self.traces:
            for kind, count in trace.errors.items():
                totals[kind] = totals.get(kind, 0) + count
        analyzer = sum(self.analyzer_errors.values())
        if analyzer:
            totals[ErrorKind.ANALYZER_ERROR.value] = (
                totals.get(ErrorKind.ANALYZER_ERROR.value, 0) + analyzer
            )
        io = sum(self.io_errors.values())
        if io:
            totals[ErrorKind.IO_ERROR.value] = (
                totals.get(ErrorKind.IO_ERROR.value, 0) + io
            )
        return totals

    @property
    def total_errors(self) -> int:
        """Every defect recorded while ingesting this dataset."""
        return sum(self.error_totals().values())

    def quarantined_traces(self) -> list[TraceStats]:
        """Traces whose contributions were withheld from the analysis."""
        return [trace for trace in self.traces if trace.quarantined]

    def salvaged_traces(self) -> list[TraceStats]:
        """Non-quarantined traces cut short by structural file damage."""
        return [
            trace
            for trace in self.traces
            if trace.truncated_tail and not trace.quarantined
        ]

    def failed_analyzers(self) -> dict[str, AnalyzerFailure]:
        """Analyzers that were disabled or failed to produce a result."""
        return {
            name: result
            for name, result in self.analyzer_results.items()
            if isinstance(result, AnalyzerFailure)
        }


class StreamDrained(Exception):
    """A cooperative mid-trace stop, requested via ``drain_event``.

    Raised from inside the packet loop *after* a final checkpoint has
    been flushed (when checkpointing is active), so the trace is not a
    loss: a follow-up run resumes exactly at the drained packet.  This
    is how the ingestion daemon implements graceful SIGTERM — the
    supervisor sets the event, the feed surfaces this instead of a
    half-finished trace result.
    """

    def __init__(self, label: str, packets: int) -> None:
        super().__init__(f"drained {label} after {packets} packets")
        self.label = label
        self.packets = packets


@dataclass(frozen=True)
class StreamConfig:
    """The ingest knobs of a study, as :class:`DatasetAnalyzer` keywords.

    ``max_flows``, ``idle_timeout``, and ``hard_timeout`` can change
    which connection records are emitted (they split flows when turned
    down), so non-default values fork the analysis cache key; ``window``
    and ``checkpoint_every`` are pure observability/durability knobs and
    never affect records.
    """

    #: Aggregation window for the live per-window statistics, seconds.
    window: float = 60.0
    #: Flow-table capacity (LRU eviction beyond it).
    max_flows: int = DEFAULT_MAX_FLOWS
    #: TCP idle eviction timeout, seconds (UDP/ICMP always use the
    #: 60 s gap threshold).
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT
    #: Optional flow age cap, seconds.
    hard_timeout: float | None = None
    #: Packets between checkpoint flushes; 0 disables checkpointing.
    checkpoint_every: int = 0

    def key_fork(self) -> dict | None:
        """What the record-affecting knobs add to the cache keys.

        ``None`` at the defaults, so default runs keep the historical
        keys; turned-down eviction knobs can split flows, so they fork
        the key instead of sharing entries with default runs.
        """
        if (
            self.max_flows == DEFAULT_MAX_FLOWS
            and self.idle_timeout == DEFAULT_IDLE_TIMEOUT
            and self.hard_timeout is None
        ):
            return None
        return {
            "max_flows": self.max_flows,
            "idle_timeout": self.idle_timeout,
            "hard_timeout": self.hard_timeout,
        }


class DatasetAnalyzer:
    """Runs the full analysis pipeline over one dataset's traces.

    Each trace is analyzed in one bounded-memory pass: packets come one
    record at a time from a :class:`~repro.stream.source.PacketSource`,
    flows live in a bounded :class:`~repro.analysis.flow.FlowTable`,
    per-second utilization accumulates in a sparse
    :class:`~repro.util.timeline.StreamingTimeline` (O(duration), not
    O(packets)), and a :class:`~repro.stream.aggregates.WindowAggregator`
    keeps live per-window aggregates.  Finished flows are dispatched to
    the application analyzers in the table's batch order at trace end.

    Parameters
    ----------
    error_policy:
        How ingestion defects are handled (``strict`` raises, the
        historical behavior; ``tolerant`` salvages within the budget;
        ``skip-trace`` quarantines a trace on its first defect).
    error_budget:
        Per-trace damage allowance before quarantine (tolerant policy).
    analyzer_max_failures:
        Hook failures after which an application analyzer's circuit
        breaker opens and the analyzer is disabled (non-strict policies).

    The keyword-only knobs are :class:`StreamConfig`'s fields
    (``window``, ``max_flows``, ``idle_timeout``, ``hard_timeout``,
    ``checkpoint_every``) plus:

    ``store`` / ``checkpoint_base``
        A :class:`~repro.store.cache.ConnStore` to flush checkpoints
        into, and the key prefix naming this run (the study passes the
        analysis cache key; each trace appends its index).  Without a
        store, checkpointing is off and finished flows stay buffered in
        memory until the trace ends.
    ``window_observer``
        Called once per closed aggregation window (live progress).
    ``drain_event``
        An object with ``is_set()`` (a ``threading.Event`` works).  When
        it reads true mid-trace, the engine flushes a final checkpoint
        and raises :class:`StreamDrained` instead of finishing the
        trace — the daemon's graceful-shutdown hook.

    The bounded-table eviction counters (``flow_overflow``,
    ``early_eviction``) are folded into the trace's data-quality counts
    directly — they are graceful-degradation notes, not defects, so they
    never consume the error budget and never raise under ``strict``.
    """

    def __init__(
        self,
        name: str,
        full_payload: bool = True,
        internal_net: Subnet = DEFAULT_INTERNAL_NET,
        analyzers: Sequence[Analyzer] = (),
        error_policy: ErrorPolicy | str = ErrorPolicy.STRICT,
        error_budget: ErrorBudget | None = None,
        analyzer_max_failures: int = 3,
        *,
        window: float = 60.0,
        max_flows: int = DEFAULT_MAX_FLOWS,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        hard_timeout: float | None = None,
        checkpoint_every: int = 0,
        store=None,
        checkpoint_base: str = "",
        window_observer: WindowObserver | None = None,
        drain_event=None,
    ) -> None:
        self.error_policy = ErrorPolicy.coerce(error_policy)
        self.error_budget = error_budget if error_budget is not None else ErrorBudget()
        self.analysis = DatasetAnalysis(
            name=name,
            full_payload=full_payload,
            internal_net=internal_net,
            error_policy=self.error_policy.value,
        )
        self.analyzers = list(analyzers)
        self._breakers = {
            analyzer.name: CircuitBreaker(analyzer.name, analyzer_max_failures)
            for analyzer in self.analyzers
        }
        self.config = StreamConfig(
            window=window,
            max_flows=max_flows,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            checkpoint_every=checkpoint_every,
        )
        self.store = store
        self.checkpoint_base = checkpoint_base or name
        self.window_observer = window_observer
        self.drain_event = drain_event
        #: Per-trace window aggregate summaries, in trace order.
        self.window_summaries: list[dict] = []

    def _new_error_log(self, path: str) -> TraceErrorLog:
        return TraceErrorLog(
            policy=self.error_policy, budget=self.error_budget, path=path
        )

    # -- trace ingestion ------------------------------------------------------

    def process_pcap(self, path: str | Path) -> TraceStats:
        """Analyze one trace file, streaming it from disk.

        Under ``strict`` any defect raises an
        :class:`~repro.analysis.errors.IngestionError` naming the file
        and offset; otherwise defects are recorded on the returned
        :class:`TraceStats` and a hopeless trace comes back quarantined.
        """
        label = str(path)
        errors = self._new_error_log(label)
        try:
            source = PacketSource.open(path, errors=errors)
        except TraceQuarantined as exc:
            # The global header was unreadable: nothing to salvage.
            return self._quarantined_trace(label, errors, exc.reason)
        with source:
            return self.process_packets(source, label=label, errors=errors)

    def _checkpoint_key(self, trace_index: int) -> str:
        return f"{self.checkpoint_base}-t{trace_index:03d}"

    def process_packets(
        self,
        packets: Iterable[CapturedPacket],
        label: str = "<memory>",
        errors: TraceErrorLog | None = None,
    ) -> TraceStats:
        """Analyze one trace given as an iterable of captured packets.

        The single pass: decode, account, flow-track, checkpoint.  Only a
        file-backed :class:`~repro.stream.source.PacketSource` can be
        checkpointed (resume seeks the file).
        """
        source = (
            packets
            if isinstance(packets, PacketSource)
            else PacketSource(packets, path=label)
        )
        errlog = errors if errors is not None else self._new_error_log(label)
        index = len(self.analysis.traces)
        stats = TraceStats(index=index, path=label)
        config = self.config

        checkpointer = None
        resume_state: dict | None = None
        if (
            self.store is not None
            and config.checkpoint_every > 0
            and source.offset is not None
        ):
            from ..stream.checkpoint import StreamCheckpointer

            key = self._checkpoint_key(index)
            loaded = StreamCheckpointer.load(self.store, key, self.error_policy)
            if loaded is not None:
                checkpointer, resume_state = loaded
            else:
                checkpointer = StreamCheckpointer(self.store, key)

        aggregator = self._make_aggregator(resume_state)
        table = self._make_table(index, aggregator, resume_state)

        if resume_state is not None:
            trace = resume_state["trace"]
            stats.packets = trace["packets"]
            stats.timestamp_regressions = trace["timestamp_regressions"]
            stats.other_ip_protocols = dict(trace["other_ip_protocols"])
            l2 = dict(trace["l2"])
            min_ts = trace["min_ts"]
            max_ts = trace["max_ts"]
            prev_ts = trace["prev_ts"]
            wire_bytes = trace["wire_bytes"]
            timeline = StreamingTimeline.restore(resume_state["timeline"])
            saved = resume_state["errlog"]
            errlog.counts.update(saved["counts"])
            errlog.samples.extend(saved["samples"])
            errlog.records_ok = saved["records_ok"]
            source.resume_at(
                resume_state["source"]["offset"],
                resume_state["source"]["packets_read"],
            )
        else:
            l2 = {"ip": 0, "arp": 0, "ipx": 0, "other": 0}
            min_ts = None
            max_ts = 0.0
            prev_ts = None
            wire_bytes = 0
            timeline = StreamingTimeline(1.0)

        checkpoint_every = config.checkpoint_every if checkpointer is not None else 0
        strict = self.error_policy is ErrorPolicy.STRICT
        drain = self.drain_event
        other_protocols = stats.other_ip_protocols
        add_bytes = timeline.add
        process = table.process
        window_end = float("-inf")
        try:
            for pkt in source:
                stats.packets += 1
                try:
                    decoded = decode_packet(pkt)
                except Exception as exc:  # decoder contract is "never raise"
                    errlog.record(ErrorKind.DECODE_ERROR, detail=repr(exc))
                    continue
                if decoded.runt:
                    errlog.record(
                        ErrorKind.RUNT_FRAME,
                        detail=f"{decoded.caplen}-byte frame (record {stats.packets})",
                    )
                    continue
                ts = decoded.ts
                if ts >= window_end:
                    window_end = aggregator.roll(
                        ts,
                        (errlog.records_ok, wire_bytes, table.tcp_segments, table.tcp_retransmits),
                    )
                errlog.records_ok += 1
                if prev_ts is not None and ts < prev_ts:
                    stats.timestamp_regressions += 1
                prev_ts = ts
                if min_ts is None:
                    min_ts = max_ts = ts
                elif ts < min_ts:
                    min_ts = ts
                elif ts > max_ts:
                    max_ts = ts
                ethertype = decoded.ethertype
                if ethertype == ETHERTYPE_IPV4:
                    l2["ip"] += 1
                elif ethertype == ETHERTYPE_ARP:
                    l2["arp"] += 1
                elif ethertype == ETHERTYPE_IPX:
                    l2["ipx"] += 1
                else:
                    l2["other"] += 1
                wire_len = decoded.wire_len
                wire_bytes += wire_len
                add_bytes(ts, wire_len)
                proto = decoded.proto
                if proto is not None and proto not in (1, 6, 17):
                    other_protocols[proto] = other_protocols.get(proto, 0) + 1
                try:
                    process(decoded)
                except Exception as exc:
                    # Under strict, propagate raw: the exception may be an
                    # analyzer bug re-raised by _udp_observer, and wrapping
                    # it as a decode error would hide the real traceback.
                    if strict:
                        raise
                    errlog.record(
                        ErrorKind.DECODE_ERROR, detail=f"flow ingestion: {exc!r}"
                    )
                if checkpoint_every and stats.packets % checkpoint_every == 0:
                    try:
                        self._write_checkpoint(
                            checkpointer, source, table, aggregator, timeline,
                            errlog, stats, l2, min_ts, max_ts, prev_ts, wire_bytes,
                        )
                    except OSError as exc:
                        # Checkpoints are durability, not correctness: a
                        # full or failing disk costs resumability, never
                        # results.  Strict still treats it as the defect
                        # it is; tolerant degrades to buffering in memory
                        # until trace end, with a data-quality row.
                        if strict:
                            raise IngestionError(
                                ErrorKind.IO_ERROR, label, None,
                                f"checkpoint publication failed: {exc}",
                            ) from exc
                        errlog.counts[ErrorKind.IO_ERROR.value] = (
                            errlog.counts.get(ErrorKind.IO_ERROR.value, 0) + 1
                        )
                        checkpoint_every = 0
                if drain is not None and drain.is_set():
                    # Checked *after* the packet is fully accounted, so
                    # the saved source offset (next unread record) agrees
                    # with every counter — resume replays nothing, skips
                    # nothing.
                    if checkpoint_every:
                        try:
                            self._write_checkpoint(
                                checkpointer, source, table, aggregator,
                                timeline, errlog, stats, l2, min_ts, max_ts,
                                prev_ts, wire_bytes,
                            )
                        except OSError:
                            # Best-effort: a drain must not hang on a bad
                            # disk; resume replays the last good state.
                            pass
                    raise StreamDrained(label, stats.packets)
        except TraceQuarantined as exc:
            stats.l2_counts = l2
            stats.errors = dict(errlog.counts)
            stats.quarantined = True
            stats.quarantine_reason = exc.reason
            self.analysis.traces.append(stats)
            if checkpointer is not None:
                checkpointer.clear()  # nothing left worth resuming
            return stats
        stats.l2_counts = l2
        stats.errors = dict(errlog.counts)
        if min_ts is not None:
            stats.start_ts = min_ts
            stats.end_ts = max(max_ts, min_ts + 1.0)
            stats.utilization = timeline.freeze(stats.start_ts, stats.end_ts)
        aggregator.finish(
            (errlog.records_ok, wire_bytes, table.tcp_segments, table.tcp_retransmits)
        )
        self.window_summaries.append(aggregator.summary())
        self._finish_trace(table, checkpointer, stats)
        self.analysis.traces.append(stats)
        return stats

    def _quarantined_trace(
        self, label: str, errors: TraceErrorLog, reason: str
    ) -> TraceStats:
        stats = TraceStats(index=len(self.analysis.traces), path=label)
        stats.errors = dict(errors.counts)
        stats.quarantined = True
        stats.quarantine_reason = reason
        self.analysis.traces.append(stats)
        return stats

    # -- ingestion helpers ------------------------------------------------------

    def _make_aggregator(self, resume_state: dict | None) -> WindowAggregator:
        if resume_state is not None:
            return WindowAggregator.restore(
                resume_state["aggregator"], observer=self.window_observer
            )
        return WindowAggregator(self.config.window, observer=self.window_observer)

    def _make_table(
        self, index: int, aggregator: WindowAggregator, resume_state: dict | None
    ) -> FlowTable:
        if resume_state is not None:
            from ..stream.checkpoint import table_restore

            table = table_restore(
                resume_state["table"],
                collect_payload=self.analysis.full_payload,
                udp_observer=self._udp_observer,
                trace_index=index,
            )
            table.flow_observer = aggregator.observe_flow
            return table
        config = self.config
        return FlowTable(
            collect_payload=self.analysis.full_payload,
            udp_observer=self._udp_observer,
            trace_index=index,
            max_flows=config.max_flows,
            idle_timeout=config.idle_timeout,
            hard_timeout=config.hard_timeout,
            flow_observer=aggregator.observe_flow,
        )

    def _write_checkpoint(
        self,
        checkpointer,
        source: PacketSource,
        table: FlowTable,
        aggregator: WindowAggregator,
        timeline: StreamingTimeline,
        errlog: TraceErrorLog,
        stats: TraceStats,
        l2: dict[str, int],
        min_ts: float | None,
        max_ts: float,
        prev_ts: float | None,
        wire_bytes: int,
    ) -> None:
        """Drain safe results into a batch shard and publish the state."""
        from ..stream.checkpoint import table_snapshot

        drained = table.drain()
        if drained:
            try:
                checkpointer.flush_batch(drained)
            except BaseException:
                # The batch never hit the disk: hand its results back to
                # the table so nothing is lost when the caller degrades.
                table.requeue(drained)
                raise
        checkpointer.save(
            {
                "trace": {
                    "packets": stats.packets,
                    "timestamp_regressions": stats.timestamp_regressions,
                    "l2": dict(l2),
                    "other_ip_protocols": dict(stats.other_ip_protocols),
                    "min_ts": min_ts,
                    "max_ts": max_ts,
                    "prev_ts": prev_ts,
                    "wire_bytes": wire_bytes,
                },
                "timeline": timeline.snapshot(),
                "errlog": {
                    "counts": dict(errlog.counts),
                    "samples": list(errlog.samples),
                    "records_ok": errlog.records_ok,
                },
                "aggregator": aggregator.snapshot(),
                "table": table_snapshot(table),
                "source": {
                    "offset": source.offset,
                    "packets_read": source.packets_read,
                },
            }
        )

    def _finish_trace(self, table: FlowTable, checkpointer, stats: TraceStats) -> None:
        """Merge, order, and dispatch every result of the trace.

        Previously drained checkpoint batches are re-read from the
        store, joined with the still-buffered results, promotion-mapped,
        and sorted into the table's batch order before dispatch — the
        analyzers and the connection list cannot tell when a flow was
        evicted.
        """
        pending = table.finish()
        if checkpointer is not None and checkpointer.batch_digests:
            pending = checkpointer.load_batches() + pending
        promotions = table.promotions
        pending.sort(key=lambda item: item.sort_key(promotions))
        self._dispatch_results((item.result for item in pending), stats)
        if table.flow_overflow:
            stats.errors[ErrorKind.FLOW_OVERFLOW.value] = (
                stats.errors.get(ErrorKind.FLOW_OVERFLOW.value, 0)
                + table.flow_overflow
            )
        if table.early_eviction:
            stats.errors[ErrorKind.EARLY_EVICTION.value] = (
                stats.errors.get(ErrorKind.EARLY_EVICTION.value, 0)
                + table.early_eviction
            )
        if checkpointer is not None:
            checkpointer.clear()

    # -- analyzer isolation ---------------------------------------------------

    def _analyzer_failed(self, analyzer: Analyzer, hook: str, exc: Exception) -> None:
        breaker = self._breakers[analyzer.name]
        breaker.record_failure(hook, exc)
        self.analysis.analyzer_errors[analyzer.name] = breaker.failures

    def _udp_observer(self, record: ConnRecord, from_orig: bool, pkt: DecodedPacket) -> None:
        strict = self.error_policy is ErrorPolicy.STRICT
        for analyzer in self.analyzers:
            if self._breakers[analyzer.name].open:
                continue
            try:
                analyzer.on_udp(record, from_orig, pkt)
            except Exception as exc:
                if strict:
                    raise
                self._analyzer_failed(analyzer, "on_udp", exc)

    def _dispatch_results(
        self, results: Iterable[FlowResult], stats: TraceStats
    ) -> None:
        """File finished flows into the analysis and fan them out to the
        application analyzers.

        The order of ``results`` is load-bearing: analyzer reports and
        the connection list preserve it, so the trace's results arrive
        here sorted into the flow table's batch order, whenever each
        flow was evicted (see ``docs/streaming.md``).
        """
        internal = self.analysis.internal_net
        strict = self.error_policy is ErrorPolicy.STRICT
        for result in results:
            record = result.record
            self.analysis.conns.append(record)
            if record.proto == "tcp":
                where = "wan" if record.involves_wan(internal) else "ent"
                stats.tcp_packets[where] += record.total_pkts
                # Keep-alive probes are excluded, as in §6.
                stats.retransmits[where] += record.retransmits
            for analyzer in self.analyzers:
                if self._breakers[analyzer.name].open:
                    continue
                try:
                    analyzer.on_connection(result, self.analysis.full_payload)
                except Exception as exc:
                    if strict:
                        raise
                    self._analyzer_failed(analyzer, "on_connection", exc)

    # -- completion -------------------------------------------------------------

    def finish(self, known_scanners: Iterable[int] = ()) -> DatasetAnalysis:
        """Run the scan filter, collect analyzer results, and return.

        ``known_scanners`` plays the role of the paper's "2 internal
        scanners" whose addresses the site knew a priori; the §3
        heuristic finds the rest.
        """
        from .scanfilter import find_scanners

        scanners = find_scanners(self.analysis.conns, known_scanners)
        self.analysis.scanner_sources = scanners
        self.analysis.removed_conns = sum(
            1 for conn in self.analysis.conns if conn.orig_ip in scanners
        )
        strict = self.error_policy is ErrorPolicy.STRICT
        for analyzer in self.analyzers:
            analyzer.scanners = scanners
            breaker = self._breakers[analyzer.name]
            result = None
            failed = breaker.open
            if not failed:
                try:
                    result = analyzer.result()
                except Exception as exc:
                    if strict:
                        raise
                    self._analyzer_failed(analyzer, "result", exc)
                    failed = True
            if failed:
                # Record the failure instead of the (untrustworthy or
                # missing) report so the rest of the study still stands.
                self.analysis.analyzer_results[analyzer.name] = AnalyzerFailure(
                    name=analyzer.name,
                    failures=breaker.failures,
                    first_error=breaker.first_error,
                )
                continue
            self.analysis.analyzer_results[analyzer.name] = result
            endpoints = getattr(analyzer, "windows_endpoints", None)
            if endpoints:
                self.analysis.windows_endpoints |= endpoints
        return self.analysis
