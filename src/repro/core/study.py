"""The end-to-end study pipeline: generate → analyze → report.

``run_study`` is the package's front door: it generates the five LBNL-like
datasets (or a subset), runs the full analysis engine over the resulting
pcap traces, and exposes every table and figure of the paper through
:class:`StudyResults`.

With ``store_dir`` set, every finished analysis is sharded into a
:class:`~repro.store.ConnStore` and subsequent runs rebuild their tables
from cached shards instead of re-parsing pcaps (see :mod:`repro.store`).

Each dataset is one independent work unit: a warm lookup in the store,
or a cold generate-and-analyze step.  Warm units are answered in-process
at every ``jobs`` value.  ``jobs=1`` runs the cold units in-process, one
after another; with ``jobs > 1`` they fan out across worker processes
by the :mod:`repro.runtime` scheduler, and results come back as store
shards (through the store when one is configured, as shard bytes over
the result pipe otherwise), so any worker count produces byte-identical
tables (see ``docs/runtime.md``).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from ..analysis.analyzers import DEFAULT_ANALYZERS
from ..analysis.engine import DatasetAnalysis, DatasetAnalyzer, StreamConfig
from ..analysis.errors import ErrorKind, ErrorPolicy, IngestionError, TraceError
from ..gen.capture import DatasetTraces, generate_dataset
from ..gen.datasets import DATASET_ORDER, DATASETS
from ..gen.topology import ENTERPRISE_NET, Enterprise, Role
from ..report import figures as figure_builders
from ..report import quality as quality_builders
from ..report import tables as table_builders
from ..report.findings import table5 as findings_table5
from ..report.categories import CategoryBreakdown, category_breakdown
from ..report.model import CdfFigure, SeriesFigure, Table
from ..runtime.child import RetryPolicy
from ..runtime.scheduler import ProcessPoolScheduler, UnitResult, resolve_jobs
from ..runtime.task import Task
from ..runtime.telemetry import TelemetryLog, unit_counters
from ..store.cache import ConnStore, assemble_analysis, shard_analysis
from ..store.shard import decode_dataset_shard, decode_trace_shard
from ..util.fmt import fmt_duration

__all__ = ["StudyConfig", "StudyResults", "run_study", "analyze_dataset"]

#: The registered analyzer roster, as it appears in cache keys.
_ANALYZER_NAMES: tuple[str, ...] = tuple(cls.name for cls in DEFAULT_ANALYZERS)


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one reproduction run."""

    seed: int = 0
    #: Traffic volume relative to the paper's (1.0 ≈ the full LBNL volume).
    scale: float = 0.01
    datasets: tuple[str, ...] = tuple(DATASET_ORDER)
    #: Truncate each dataset's tap schedule (None = full schedule).
    max_windows: int | None = None
    #: Where pcap traces are written (None = a temporary directory).
    out_dir: str | None = None
    #: How ingestion defects are handled (strict / tolerant / skip-trace).
    error_policy: str = ErrorPolicy.STRICT.value
    #: Root of the connection-record store (None = caching disabled).
    store_dir: str | None = None
    #: Worker processes (1 = in-process sequential, 0 = all cores).
    jobs: int = 1
    #: Ingest knobs (``docs/streaming.md``); None = the defaults.
    stream: StreamConfig | None = None


@dataclass
class StudyResults:
    """Everything a reproduction run produced."""

    config: StudyConfig
    analyses: dict[str, DatasetAnalysis] = field(default_factory=dict)
    traces: dict[str, DatasetTraces] = field(default_factory=dict)
    breakdowns: dict[str, CategoryBreakdown] = field(default_factory=dict)
    enterprise: Enterprise | None = None
    #: Work units that exhausted their retries (non-strict parallel runs).
    unit_failures: list[TraceError] = field(default_factory=list)
    #: The run's progress/telemetry stream (events + timing table).
    telemetry: TelemetryLog | None = None

    # -- table / figure access ------------------------------------------------

    def table(self, number: int) -> Table:
        """Build paper table ``number`` (1-15; Table 5 is regenerated with
        measured values substituted into each finding)."""
        builders = {
            1: lambda: table_builders.table1(self.analyses, self._trace_meta()),
            2: lambda: table_builders.table2(self.analyses),
            3: lambda: table_builders.table3(self.analyses),
            4: table_builders.table4,
            5: lambda: findings_table5(self.analyses),
            6: lambda: table_builders.table6(self.analyses),
            7: lambda: table_builders.table7(self.analyses),
            8: lambda: table_builders.table8(self.analyses),
            9: lambda: table_builders.table9(self.analyses),
            10: lambda: table_builders.table10(self.analyses),
            11: lambda: table_builders.table11(self.analyses),
            12: lambda: table_builders.table12(self.analyses),
            13: lambda: table_builders.table13(self.analyses),
            14: lambda: table_builders.table14(self.analyses),
            15: lambda: table_builders.table15(self.analyses),
        }
        if number not in builders:
            raise KeyError(f"no builder for Table {number}")
        return builders[number]()

    def figure(self, number: int):
        """Build paper figure ``number`` (1-10)."""
        builders = {
            1: lambda: (
                figure_builders.figure1(self.breakdowns, by="bytes"),
                figure_builders.figure1(self.breakdowns, by="conns"),
            ),
            2: lambda: figure_builders.figure2(self.analyses),
            3: lambda: figure_builders.figure3(self.analyses),
            4: lambda: figure_builders.figure4(self.analyses),
            5: lambda: figure_builders.figure5(self.analyses),
            6: lambda: figure_builders.figure6(self.analyses),
            7: lambda: figure_builders.figure7(self.analyses),
            8: lambda: figure_builders.figure8(self.analyses),
            9: lambda: figure_builders.figure9(
                self.analyses.get("D4") or next(iter(self.analyses.values()))
            ),
            10: lambda: figure_builders.figure10(self.analyses),
        }
        if number not in builders:
            raise KeyError(f"no builder for Figure {number}")
        return builders[number]()

    def render_table(self, number: int) -> str:
        """Render paper table ``number`` as text."""
        return self.table(number).render()

    def render_figure(self, number: int) -> str:
        """Render paper figure ``number`` as text."""
        built = self.figure(number)
        if isinstance(built, (Table, CdfFigure, SeriesFigure)):
            return built.render()
        if isinstance(built, Mapping):
            return "\n\n".join(item.render() for item in built.values())
        return "\n\n".join(item.render() for item in built)

    def data_quality(self) -> Table:
        """Build the data-quality accounting table (not a paper artifact)."""
        return quality_builders.data_quality_table(self.analyses)

    def render_data_quality(self) -> str:
        """Render the data-quality section as text."""
        lines = [quality_builders.render_data_quality(self.analyses)]
        for failure in self.unit_failures:
            reason = failure.detail.strip().splitlines()
            lines.append(
                f"  unit {failure.path} failed ({failure.kind.value}): "
                f"{reason[-1] if reason else ''}"
            )
        return "\n".join(lines)

    @property
    def total_errors(self) -> int:
        """Every ingestion defect recorded across all datasets, plus any
        work units lost to worker faults."""
        return sum(
            analysis.total_errors for analysis in self.analyses.values()
        ) + len(self.unit_failures)

    # -- helpers -----------------------------------------------------------------

    def _trace_meta(self) -> dict[str, dict]:
        meta: dict[str, dict] = {}
        for name, dataset in self.traces.items():
            config = dataset.config
            subnets = []
            if self.enterprise is not None:
                covered = {trace.window.subnet_index for trace in dataset.traces}
                subnets = [
                    subnet.subnet
                    for subnet in self.enterprise.subnets
                    if subnet.index in covered
                ]
            meta[name] = {
                "date": config.date,
                "duration": fmt_duration(config.tap_seconds),
                "per_tap": config.per_tap,
                "num_subnets": config.num_subnets,
                "snaplen": config.snaplen,
                "monitored_subnets": subnets,
            }
        return meta


def analyze_dataset(
    name: str,
    traces: DatasetTraces,
    known_scanners: tuple[int, ...] = (),
    error_policy: ErrorPolicy | str = ErrorPolicy.STRICT,
    store: ConnStore | None = None,
    gen_key: str | None = None,
    engine: str = "stream",
    stream: StreamConfig | None = None,
    window_observer: Callable | None = None,
) -> DatasetAnalysis:
    """Run the full analysis engine over one generated dataset.

    With a ``store``, the trace files are digested first and a matching
    cached analysis is returned without opening a single pcap; on a miss
    the fresh analysis is sharded into the store before returning.  The
    content key covers the trace bytes themselves, so any mutation (e.g.
    :func:`repro.gen.faults.corrupt_dataset`) forces a cold re-parse.

    ``stream`` holds the ingest knobs; non-default eviction knobs fork
    the cache key.  With a store and ``stream.checkpoint_every > 0`` the
    run publishes live checkpoints it can resume from after a crash.
    ``window_observer`` receives each closed aggregation window.
    """
    # The pipeline benchmark (bench/pipeline.py) still passes
    # ``engine="stream"``, the name of the one engine.
    if engine != "stream":
        raise ValueError(f"unknown engine {engine!r} (the only engine is 'stream')")
    policy = ErrorPolicy.coerce(error_policy)
    stream_config = stream if stream is not None else StreamConfig()
    engine_config = stream_config.key_fork()
    digests: list[str] = []
    key: str | None = None
    if store is not None:
        digests = [store.file_digest(trace.path) for trace in traces.traces]
        key = store.content_key(
            name,
            digests,
            _ANALYZER_NAMES,
            policy.value,
            traces.config.full_payload,
            str(ENTERPRISE_NET),
            known_scanners,
            engine_config=engine_config,
        )
        manifest = store.lookup(key)
        if manifest is not None:
            cached = store.load_or_none(manifest, policy)
            if cached is not None:
                return cached.analysis
    analyzer = DatasetAnalyzer(
        name,
        full_payload=traces.config.full_payload,
        internal_net=ENTERPRISE_NET,
        analyzers=[cls() for cls in DEFAULT_ANALYZERS],
        error_policy=policy,
        store=store,
        checkpoint_base=key or name,
        window_observer=window_observer,
        **asdict(stream_config),
    )
    for trace in traces.traces:
        analyzer.process_pcap(trace.path)
    analysis = analyzer.finish(known_scanners=known_scanners)
    if store is not None and key is not None:
        # Enough context for `repro store repair` to re-derive these
        # shards from the source traces without guessing run parameters.
        repair_info = {
            "error_policy": policy.value,
            "known_scanners": sorted(known_scanners),
            "engine_config": engine_config,
        }
        try:
            store.save_analysis(
                key, analysis, traces, digests, gen_key=gen_key, repair=repair_info
            )
        except OSError as exc:
            if policy is ErrorPolicy.STRICT:
                raise IngestionError(
                    ErrorKind.IO_ERROR,
                    str(store.root),
                    None,
                    f"shard publication failed: {exc}",
                ) from exc
            # Tolerant: the analysis in hand is complete — losing the
            # cache entry costs a future warm start, not this run.
            analysis.io_errors["shard_publication"] = (
                analysis.io_errors.get("shard_publication", 0) + 1
            )
    return analysis


def _adopt_analysis(
    results: StudyResults,
    name: str,
    traces: DatasetTraces,
    analysis: DatasetAnalysis,
    relocate: bool,
) -> None:
    """File one dataset's products into the results, building its
    category breakdown; with ``relocate`` the (store-relative) trace
    paths are re-rooted under the study's ``out_dir``."""
    out_dir = results.config.out_dir
    if relocate and out_dir:
        for trace in traces.traces:
            trace.path = Path(out_dir) / trace.path
    results.traces[name] = traces
    results.analyses[name] = analysis
    results.breakdowns[name] = category_breakdown(
        analysis.filtered_conns(),
        analysis.windows_endpoints,
        internal_net=ENTERPRISE_NET,
    )


def _known_scanners(enterprise: Enterprise) -> tuple[int, ...]:
    return tuple(host.ip for host in enterprise.servers(Role.SCANNER))


def _generation_key(spec: Mapping, store: ConnStore, enterprise: Enterprise) -> str:
    """The store key of one unit's deterministic generate-then-analyze
    run (``spec`` is the unit's task payload, :func:`_unit_tasks`)."""
    return store.generation_key(
        spec["dataset"],
        spec["seed"],
        spec["scale"],
        spec["max_windows"],
        _ANALYZER_NAMES,
        spec["error_policy"],
        str(ENTERPRISE_NET),
        _known_scanners(enterprise),
        engine_config=StreamConfig(**spec["stream"]).key_fork(),
    )


def _warm_lookup(
    spec: Mapping, enterprise: Enterprise, store: ConnStore | None
) -> tuple[DatasetTraces, DatasetAnalysis, dict] | None:
    """The warm half of a dataset unit: ``(traces, analysis, receipt)``
    of a stored entry, or ``None`` when the unit must run cold.

    An entry under the unit's generation key is served when its source
    pcaps (if kept) still digest-match and its shards load; a damaged
    shard raises the store's own error under ``strict`` and is a miss
    under the tolerant policies.
    """
    if store is None or not spec["reuse_store"]:
        return None
    manifest = store.lookup(_generation_key(spec, store, enterprise))
    out_dir = spec["out_dir"]
    if manifest is None or not store.sources_intact(
        manifest, Path(out_dir) if out_dir else None
    ):
        return None
    cached = store.load_or_none(manifest, ErrorPolicy.coerce(spec["error_policy"]))
    if cached is None:
        return None
    return cached.traces, cached.analysis, {
        "dataset": spec["dataset"],
        "manifest_key": manifest["key"],
        "cache": "hit",
        "packets": cached.traces.total_packets,
        "bytes": 0,
        "io_errors": 0,
    }


def _generate_and_analyze(
    spec: Mapping,
    enterprise: Enterprise,
    store: ConnStore | None,
    *,
    mutate_traces: Callable[[str, DatasetTraces], None] | None = None,
    window_observer: Callable | None = None,
) -> tuple[DatasetTraces, DatasetAnalysis, dict]:
    """The cold half of a dataset unit: generate its pcaps and analyze
    them, returning ``(traces, analysis, receipt)``.

    With a ``store`` the analysis is sharded into it under the unit's
    generation key (none with ``mutate_traces``: mutated traces are not
    what the key describes).  The receipt holds the picklable outcome,
    as :func:`_warm_lookup`'s does: ``dataset``, ``manifest_key``,
    ``cache`` (``hit``/``miss``, ``None`` without a store),
    ``packets``, pcap ``bytes`` written, and ``io_errors`` the analysis
    absorbed under a tolerant policy.

    Determinism: the unit reuses the *study* seed; every random stream
    below it is already keyed by (dataset, window), so the bytes cannot
    depend on worker count or execution order.
    """
    name = spec["dataset"]
    out_dir = spec["out_dir"]
    gen_key = None
    if store is not None and mutate_traces is None:
        gen_key = _generation_key(spec, store, enterprise)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(out_dir) / name if out_dir else Path(tmp)
        target.mkdir(parents=True, exist_ok=True)
        dataset_traces = generate_dataset(
            name,
            enterprise,
            target,
            seed=spec["seed"],
            scale=spec["scale"],
            max_windows=spec["max_windows"],
        )
        if mutate_traces is not None:
            mutate_traces(name, dataset_traces)
        trace_bytes = sum(
            Path(trace.path).stat().st_size
            for trace in dataset_traces.traces
            if Path(trace.path).exists()
        )
        analysis = analyze_dataset(
            name,
            dataset_traces,
            _known_scanners(enterprise),
            error_policy=spec["error_policy"],
            store=store,
            gen_key=gen_key,
            stream=StreamConfig(**spec["stream"]),
            window_observer=window_observer,
        )
    return dataset_traces, analysis, {
        "dataset": name,
        "manifest_key": gen_key,
        "cache": "miss" if store is not None else None,
        "packets": dataset_traces.total_packets,
        "bytes": trace_bytes,
        "io_errors": sum(analysis.io_errors.values()),
    }


def _dataset_unit_worker(spec: Mapping) -> dict:
    """A cold dataset unit in a forked worker (``jobs > 1``): the
    picklable receipt of :func:`_generate_and_analyze`.

    With a study store the analysis is sharded into it and the parent
    rebuilds it from the returned manifest key.  Without one, the
    receipt carries the shard bytes themselves (``shards``): the same
    pickle-free codec the store writes, so the parent's copy is
    byte-identical whichever way it travelled.
    """
    store = ConnStore(spec["store_dir"]) if spec["store_dir"] else None
    dataset_traces, analysis, receipt = _generate_and_analyze(
        spec, Enterprise(seed=spec["seed"]), store
    )
    if store is None:
        # No content address without a store: the digests stay empty.
        receipt["shards"] = shard_analysis(
            analysis, dataset_traces, [""] * len(dataset_traces.traces)
        )
    return receipt


def _unit_tasks(
    config: StudyConfig, policy: ErrorPolicy, reuse_store: bool
) -> list[Task]:
    """One task per distinct dataset, in study order."""
    stream = config.stream if config.stream is not None else StreamConfig()
    return [
        Task(
            key=f"dataset:{name}",
            kind="dataset",
            payload={
                "dataset": name,
                "seed": config.seed,
                "scale": config.scale,
                "max_windows": config.max_windows,
                "out_dir": config.out_dir,
                "error_policy": policy.value,
                "store_dir": config.store_dir,
                "reuse_store": reuse_store,
                "stream": asdict(stream),
            },
        )
        for name in dict.fromkeys(config.datasets)
    ]


def run_study(
    seed: int = 0,
    scale: float = 0.01,
    datasets: tuple[str, ...] | None = None,
    max_windows: int | None = None,
    out_dir: str | None = None,
    error_policy: ErrorPolicy | str = ErrorPolicy.STRICT,
    mutate_traces: Callable[[str, DatasetTraces], None] | None = None,
    store_dir: str | None = None,
    reuse_store: bool = True,
    jobs: int = 1,
    progress: bool = False,
    telemetry_path: str | None = None,
    retry: RetryPolicy | None = None,
    stream: StreamConfig | None = None,
    window_observer: Callable | None = None,
) -> StudyResults:
    """Run the whole reproduction: generate traces, analyze, report.

    With ``out_dir=None``, traces are written to a temporary directory
    and deleted once analyzed (each dataset's pcaps are only needed
    transiently).

    ``error_policy`` selects how ingestion defects are handled (see
    :mod:`repro.analysis.errors`).  ``mutate_traces`` is a hook called
    with ``(dataset name, DatasetTraces)`` after generation and before
    analysis — the seam fault-injection tests use to corrupt trace files
    (:func:`repro.gen.faults.corrupt_dataset`) without patching the
    pipeline.

    ``store_dir`` enables the connection-record store: finished analyses
    are sharded into it, and with ``reuse_store`` a later same-parameter
    run skips both generation and pcap parsing, rebuilding its tables
    from shards.  Corrupt shards follow ``error_policy``: strict raises,
    the tolerant policies fall back to a cold run.  The warm path is
    bypassed whenever ``mutate_traces`` is set (the hook must see real
    trace files), and any pcaps still on disk are digest-verified before
    a cached analysis is trusted.

    ``jobs`` selects where the per-dataset units run
    (``docs/runtime.md``); every value runs the same unit and renders
    identical output bytes.  A warm unit is always answered in this
    process.  1 (the default) runs the cold units one after another in
    this process, without retry: a failure raises the unit's own error.
    ``N > 1`` fans them out across ``N`` worker processes (0 = all
    cores), forking nothing when every unit is warm; a unit whose
    worker crashes, raises, or times out
    is retried per ``retry`` (default: twice, exponential backoff) and
    then — under the non-strict policies — quarantined and reported in
    :attr:`StudyResults.unit_failures` and the data-quality section;
    under ``strict`` the study raises.  ``mutate_traces`` runs force
    ``jobs=1`` (the hook is not shipped to workers).

    ``progress`` narrates unit progress on stderr; ``telemetry_path``
    appends the structured JSONL event stream (schema:
    :mod:`repro.runtime.telemetry`) there.  Either way, the stream is
    kept on :attr:`StudyResults.telemetry`.

    ``stream`` holds the ingest knobs (``docs/streaming.md``): each
    trace is analyzed in a single bounded-memory pass.
    ``window_observer`` receives each closed aggregation window as it
    happens — sequential (``jobs=1``) runs only, since the callback
    cannot cross a process boundary.
    """
    policy = ErrorPolicy.coerce(error_policy)
    config = StudyConfig(
        seed=seed,
        scale=scale,
        datasets=tuple(datasets) if datasets is not None else tuple(DATASET_ORDER),
        max_windows=max_windows,
        out_dir=out_dir,
        error_policy=policy.value,
        store_dir=store_dir,
        jobs=jobs,
        stream=stream,
    )
    for name in config.datasets:
        if name not in DATASETS:
            raise KeyError(f"unknown dataset {name!r}")
    telemetry = TelemetryLog(path=telemetry_path, progress=progress)
    results = StudyResults(
        config=config, enterprise=Enterprise(seed=seed), telemetry=telemetry
    )
    tasks = _unit_tasks(config, policy, reuse_store)
    effective_jobs = resolve_jobs(jobs)
    if mutate_traces is not None:
        effective_jobs = 1  # the hook must run in-process on real files
    telemetry.emit(
        "study_start",
        jobs=effective_jobs,
        units=len(tasks),
        datasets=list(config.datasets),
        seed=seed,
    )
    try:
        _run_units(
            results, tasks, policy, effective_jobs, retry, telemetry,
            mutate_traces, window_observer,
        )
    finally:
        telemetry.close()
    return results


def _run_units(
    results: StudyResults,
    tasks: list[Task],
    policy: ErrorPolicy,
    jobs: int,
    retry: RetryPolicy | None,
    telemetry: TelemetryLog,
    mutate_traces: Callable[[str, DatasetTraces], None] | None,
    window_observer: Callable | None,
) -> None:
    """Run every dataset unit and adopt the analyses in study order.

    This process answers each warm unit itself (:func:`_warm_lookup`),
    at every ``jobs`` value.  At ``jobs=1`` it runs the cold units too,
    one after another and without retry: a failure raises the unit's
    own error.  At ``jobs > 1`` only the cold units fan out across
    worker processes (a study with none builds no pool), and their
    results come back via the store (or, without one, as shard bytes in
    the unit's receipt).
    """
    store = ConnStore(results.config.store_dir) if results.config.store_dir else None
    started = time.monotonic()
    # Units answered here; each value is (traces, analysis, receipt).
    done: dict[str, UnitResult] = {}
    for task in tasks:
        unit_started = time.monotonic()
        unit = None
        if mutate_traces is None:
            unit = _warm_lookup(task.payload, results.enterprise, store)
        if unit is None and jobs > 1:
            continue  # a cold unit for the pool
        telemetry.emit("unit_start", unit=task.key, kind=task.kind, attempt=1)
        if unit is None:
            unit = _generate_and_analyze(
                task.payload,
                results.enterprise,
                store,
                mutate_traces=mutate_traces,
                window_observer=window_observer,
            )
        wall = time.monotonic() - unit_started
        done[task.key] = UnitResult(task.key, "ok", unit, 1, wall)
        telemetry.emit(
            "unit_finish",
            unit=task.key,
            kind=task.kind,
            status="ok",
            attempts=1,
            wall_s=round(wall, 6),
            **unit_counters(unit[2]),
        )
    if len(done) < len(tasks):
        # Looked up per call, so tests can substitute the worker.
        scheduler = ProcessPoolScheduler(
            _dataset_unit_worker, jobs=jobs, retry=retry, telemetry=telemetry
        )
        unit_results = scheduler.run(tasks, done=done)
    else:
        unit_results = done
        telemetry.emit(
            "study_finish",
            wall_s=round(time.monotonic() - started, 6),
            units_ok=len(done),
            units_failed=0,
        )
    for task in tasks:
        name = task.payload["dataset"]
        unit = unit_results[task.key]
        if not unit.ok:
            if policy is ErrorPolicy.STRICT:
                raise IngestionError(
                    ErrorKind.WORKER_ERROR,
                    unit.key,
                    None,
                    unit.error.detail if unit.error else "unit failed",
                )
            if unit.error is not None:
                results.unit_failures.append(unit.error)
            continue
        if task.key in done:
            dataset_traces, analysis, receipt = unit.value
            _adopt_analysis(
                results, name, dataset_traces, analysis,
                relocate=receipt["cache"] == "hit",
            )
            continue
        if store is None:
            entries, trace_shards, dataset_shard = unit.value["shards"]
            cached = assemble_analysis(
                name,
                entries,
                [decode_trace_shard(data) for data in trace_shards],
                decode_dataset_shard(dataset_shard),
            )
        else:
            manifest = store.lookup(unit.value["manifest_key"])
            cached = (
                store.load_or_none(manifest, policy)
                if manifest is not None
                else None
            )
        if cached is None:
            # The worker finished but its shards cannot be read back
            # (damaged store under a tolerant policy): redo the unit
            # here, without the store.
            dataset_traces, analysis, _ = _generate_and_analyze(
                task.payload, results.enterprise, None
            )
            worker_io = int(unit.value.get("io_errors", 0) or 0)
            if worker_io:
                analysis.io_errors["shard_publication"] = (
                    analysis.io_errors.get("shard_publication", 0) + worker_io
                )
            _adopt_analysis(results, name, dataset_traces, analysis, relocate=False)
            continue
        _adopt_analysis(
            results, name, cached.traces, cached.analysis, relocate=True
        )
