"""Command-line entry point: run the study and print tables/figures.

Installed as ``repro-study``::

    repro-study --scale 0.01 --seed 42 --tables 2 3 --figures 1 10

A ``store`` subcommand inspects the connection-record store::

    repro-study store ls --store-dir .store
    repro-study store query --store-dir .store --by category --dataset D0
    repro-study store gc --store-dir .store
    repro-study store scrub --store-dir .store
    repro-study store repair --store-dir .store --traces-dir traces/

The ingest engine's knobs (``docs/streaming.md``) ride the same
command: the aggregation window (narrated live on stderr with
``--progress``), flow-table bounds, and crash-resumable checkpoints::

    repro-study --datasets D0 --window 60 --max-flows 65536 \\
        --store-dir .store --checkpoint-every 50000 --progress

A ``daemon`` subcommand runs the always-on supervised multi-tenant
ingestion service (``docs/daemon.md``)::

    repro-study daemon --store-dir .store --tenant lan=traces/lan/ \\
        --tenant wan=traces/wan.pcap --window 60 \\
        --flow-budget 4096 --flow-budget lan=512 \\
        --config daemon.json --telemetry daemon.jsonl
    repro-study daemon tail --telemetry daemon.jsonl

A ``serve`` subcommand runs the long-running analysis HTTP service
(``docs/service.md``), and ``loadgen`` hammers it with concurrent
simulated users and reports latency percentiles::

    repro-study serve --store-dir .store --port 8080 \\
        --telemetry service.jsonl
    repro-study loadgen --port 8080 --users 8 --duration 5
"""

from __future__ import annotations

import argparse
import sys

from ..analysis.engine import StreamConfig
from ..analysis.errors import ErrorPolicy
from ..analysis.flow import DEFAULT_IDLE_TIMEOUT, DEFAULT_MAX_FLOWS
from ..gen.datasets import DATASET_ORDER
from .study import run_study

__all__ = ["main"]

_ALL_TABLES = list(range(1, 16))
_ALL_FIGURES = list(range(1, 11))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=(
            "Reproduce 'A First Look at Modern Enterprise Traffic' "
            "(Pang et al., IMC 2005) on synthetic LBNL-like traces."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="traffic volume relative to the paper's (default 0.01)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=DATASET_ORDER,
        choices=DATASET_ORDER,
        help="datasets to generate and analyze",
    )
    parser.add_argument(
        "--max-windows", type=int, default=None, help="truncate each tap schedule"
    )
    parser.add_argument(
        "--out-dir", default=None, help="keep generated pcap traces here"
    )
    parser.add_argument(
        "--error-policy",
        default=ErrorPolicy.STRICT.value,
        choices=[policy.value for policy in ErrorPolicy],
        help=(
            "how ingestion defects are handled: strict raises on the first "
            "defect, tolerant salvages within a per-trace error budget, "
            "skip-trace quarantines a trace on its first defect "
            "(default: strict)"
        ),
    )
    parser.add_argument(
        "--tables",
        nargs="*",
        type=int,
        default=None,
        help="table numbers to print (default: all)",
    )
    parser.add_argument(
        "--figures",
        nargs="*",
        type=int,
        default=None,
        help="figure numbers to print (default: all)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render CDF figures as ASCII plots instead of quantile tables",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="connection-record store root: cache analyses as shards there "
        "and reuse them on later same-parameter runs",
    )
    parser.add_argument(
        "--no-reuse-store",
        action="store_true",
        help="write shards but never read them (force a cold run)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for per-dataset parallelism "
        "(default 1 = in-process sequential, 0 = all cores); any worker "
        "count produces byte-identical tables",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="narrate unit progress (and, at --jobs 1, each closed "
        "aggregation window) on stderr and print a final per-unit "
        "timing table",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append the structured JSONL runtime event stream here",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="live aggregation window (default 60s); with --progress "
        "at --jobs 1 each closed window is narrated on stderr",
    )
    parser.add_argument(
        "--max-flows",
        type=int,
        default=DEFAULT_MAX_FLOWS,
        help="flow-table capacity; beyond it the least-recently-active "
        "flow is evicted early (counted as flow_overflow in the "
        "data-quality section, never an error)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=DEFAULT_IDLE_TIMEOUT,
        metavar="SECONDS",
        help="evict a TCP flow idle this long (default 3600s; UDP/ICMP "
        "always use the 60s gap rule)",
    )
    parser.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict any flow older than this regardless of activity "
        "(default: no cap)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="PACKETS",
        help="with --store-dir, publish a resumable checkpoint every N "
        "packets (0 = off); an interrupted run picks up from the last "
        "checkpoint",
    )
    return parser


def _build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study store",
        description="Inspect and query the connection-record store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="list cached dataset analyses")
    query = sub.add_parser("query", help="aggregate cached connection records")
    gc = sub.add_parser("gc", help="delete unreferenced shard objects")
    scrub = sub.add_parser(
        "scrub",
        help="verify every shard and manifest; quarantine corrupt files",
    )
    repair = sub.add_parser(
        "repair",
        help="scrub, then re-derive damaged shards from source traces",
    )
    tier = sub.add_parser(
        "tier",
        help="tiered multi-root placement: status, init, rebalance, compact",
    )
    tier_sub = tier.add_subparsers(dest="tier_command", required=True)
    tier_status = tier_sub.add_parser(
        "status", help="per-root placement, replica, and rebalance state"
    )
    tier_init = tier_sub.add_parser(
        "init",
        help="stamp a placement manifest onto a store (objects stay put "
        "until the first rebalance)",
    )
    tier_init.add_argument(
        "--root", action="append", default=None, metavar="PATH",
        help="additional object root (repeatable; absolute, or relative "
        "to the primary store dir)",
    )
    tier_init.add_argument(
        "--replicas", type=int, default=1, metavar="R",
        help="publish every object (and mirror every manifest) to R "
        "distinct roots so any single root can be lost without data "
        "loss (default 1 = no replication)",
    )
    tier_rebalance = tier_sub.add_parser(
        "rebalance",
        help="move buckets toward the leveled placement (crash-safe, "
        "incremental)",
    )
    tier_rebalance.add_argument(
        "--add-root", action="append", default=None, metavar="PATH",
        help="declare a new root before rebalancing (repeatable)",
    )
    tier_rebalance.add_argument(
        "--max-buckets", type=int, default=None, metavar="N",
        help="bound one pass to N bucket moves (default: finish the job)",
    )
    tier_compact = tier_sub.add_parser(
        "compact",
        help="merge small streaming checkpoint batch shards into one "
        "super-shard per checkpoint",
    )
    tier_compact.add_argument(
        "--min-batches", type=int, default=2, metavar="N",
        help="only compact checkpoints with at least N batches (default 2)",
    )
    tier_compact.add_argument(
        "--key", action="append", default=None, metavar="CKPT_KEY",
        help="restrict to specific checkpoint keys (repeatable)",
    )
    for command in (ls, query, gc, scrub, repair,
                    tier_status, tier_init, tier_rebalance, tier_compact):
        command.add_argument(
            "--store-dir", required=True, help="connection-record store root"
        )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be reclaimed without deleting anything",
    )
    from ..store.cache import DEFAULT_TMP_GRACE

    tier_compact.add_argument(
        "--grace", type=float, default=DEFAULT_TMP_GRACE, metavar="SECONDS",
        help="skip checkpoints whose manifest changed within this window "
        "— a live engine owns them "
        f"(default {DEFAULT_TMP_GRACE:.0f}s; 0 compacts everything)",
    )
    for command in (gc, scrub):
        command.add_argument(
            "--tmp-grace",
            type=float,
            default=DEFAULT_TMP_GRACE,
            metavar="SECONDS",
            help="treat .tmp files younger than this as a live daemon's "
            "in-flight publishes and leave them alone "
            f"(default {DEFAULT_TMP_GRACE:.0f}s; 0 sweeps everything)",
        )
    scrub.add_argument(
        "--audit-only",
        action="store_true",
        help="report damage without moving anything into quarantine",
    )
    scrub.add_argument(
        "--incremental",
        action="store_true",
        help="run as a resumable background task: verify a bounded batch "
        "per step, persist a progress cursor (scrub-cursor.json), pick "
        "up where the last invocation stopped",
    )
    scrub.add_argument(
        "--budget", type=int, default=250, metavar="N",
        help="with --incremental: items verified per step (default 250)",
    )
    scrub.add_argument(
        "--max-steps", type=int, default=0, metavar="N",
        help="with --incremental: stop after N steps even if the cycle "
        "is unfinished (default 0 = run the cycle to completion)",
    )
    scrub.add_argument(
        "--reset-cursor",
        action="store_true",
        help="with --incremental: discard the saved cursor and start a "
        "fresh cycle",
    )
    repair.add_argument(
        "--traces-dir",
        default=None,
        metavar="DIR",
        help="directory holding the source pcap traces (a study --out-dir); "
        "repair verifies each trace's digest before trusting it",
    )
    repair.add_argument(
        "--replicas",
        action="store_true",
        help="replica repair instead: drain the under-replicated queue "
        "and sweep the store, restoring every object and manifest to "
        "its full replica set from digest-verified copies",
    )

    from ..store.query import GROUP_DIMENSIONS

    query.add_argument(
        "--by",
        default="category",
        choices=GROUP_DIMENSIONS,
        help="grouping dimension (default: category)",
    )
    query.add_argument("--dataset", default=None, help="restrict to one dataset")
    query.add_argument("--proto", default=None, help="transport, e.g. tcp/udp")
    query.add_argument(
        "--service", default=None, help="application label or category"
    )
    query.add_argument(
        "--locality", default=None, help="e.g. ent-ent / ent-wan / wan-ent"
    )
    query.add_argument("--subnet", default=None, help="CIDR on either endpoint")
    query.add_argument(
        "--state", default=None, help="connection state, e.g. SF / REJ"
    )
    query.add_argument(
        "--since", type=float, default=None, help="min first-packet timestamp"
    )
    query.add_argument(
        "--until", type=float, default=None, help="max first-packet timestamp"
    )
    query.add_argument(
        "--min-bytes", type=int, default=None, help="min connection bytes"
    )
    query.add_argument(
        "--include-scanners",
        action="store_true",
        help="include records from scan-filtered sources",
    )
    return parser


def _store_main(argv: list[str]) -> int:
    """The ``repro-study store`` subcommand family."""
    from ..store import ConnFilter, ConnStore, StoreQuery, StoreScrubber
    from ..store.tier import PlacementManifestError

    args = _build_store_parser().parse_args(argv)
    try:
        if args.command == "tier":
            return _store_tier_main(args)
        store = ConnStore(args.store_dir)
    except PlacementManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "scrub":
        scrubber = StoreScrubber(store)
        if args.incremental:
            if args.reset_cursor:
                scrubber.reset()
            cursor = scrubber.run(
                budget=args.budget,
                quarantine=not args.audit_only,
                tmp_grace_s=args.tmp_grace,
                max_steps=args.max_steps,
            )
            report = scrubber.report(cursor)
            if cursor["phase"] != "done":
                print(
                    f"scrub paused at phase {cursor['phase']!r} "
                    f"({cursor['objects_checked']} objects, "
                    f"{cursor['manifests_checked']} manifests so far); "
                    "rerun to resume"
                )
                print(report.render())
                return 0
            print(report.render())
            return 0 if report.ok else 1
        report = scrubber.scrub(
            quarantine=not args.audit_only, tmp_grace_s=args.tmp_grace
        )
        print(report.render())
        return 0 if report.ok else 1
    if args.command == "repair" and args.replicas:
        report = store.repair_replicas()
        print(report.render())
        return 0 if report.ok else 1
    if args.command == "repair":
        outcomes = StoreScrubber(store).repair(traces_dir=args.traces_dir)
        if not outcomes:
            print("nothing to repair")
            return 0
        failed = 0
        for outcome in outcomes:
            if outcome.repaired:
                print(
                    f"repaired {outcome.dataset} (key={outcome.key[:12]}…): "
                    f"{len(outcome.restored)} object(s) restored to their "
                    "original content addresses"
                )
            else:
                failed += 1
                print(
                    f"could not repair {outcome.dataset} "
                    f"(key={outcome.key[:12]}…): {outcome.reason}"
                )
        return 0 if failed == 0 else 1
    if args.command == "ls":
        stats = store.stats()
        print(f"store {stats['root']}")
        print(
            f"  {stats['manifests']} cached analyses, "
            f"{stats['objects']} shard objects, {stats['bytes']} bytes"
        )
        for manifest in store.manifests():
            print(
                f"  {manifest['dataset']}  key={manifest['key'][:12]}…  "
                f"{len(manifest['traces'])} traces  schema v{manifest['schema']}"
            )
        return 0
    if args.command == "gc":
        report = store.gc(dry_run=args.dry_run, tmp_grace_s=args.tmp_grace)
        verb = "would remove" if report.dry_run else "removed"
        freed = "reclaiming" if report.dry_run else "reclaimed"
        spared = (
            f" ({report.in_flight_tmp} in-flight temp files spared)"
            if report.in_flight_tmp
            else ""
        )
        print(
            f"{verb} {len(report.removed)} unreferenced objects and "
            f"{report.stale_tmp} stale temp files, "
            f"{freed} {report.reclaimed_bytes} bytes{spared}"
        )
        return 0
    flt = ConnFilter(
        dataset=args.dataset,
        proto=args.proto,
        service=args.service,
        locality=args.locality,
        subnet=args.subnet,
        since=args.since,
        until=args.until,
        state=args.state,
        min_bytes=args.min_bytes,
        include_scanners=args.include_scanners,
    )
    print(StoreQuery(store).table(flt, by=args.by).render())
    return 0


def _store_tier_main(args) -> int:
    """The ``repro-study store tier`` subcommand family."""
    from ..store import ConnStore
    from ..store.tier import compact_checkpoints, init_tier

    if args.tier_command == "init":
        try:
            store = init_tier(
                args.store_dir,
                roots=tuple(args.root or ()),
                replicas=args.replicas,
            )
        except (FileExistsError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        status = store.tier_status()
        replicas = (
            f", replicas={status['replicas']}"
            if status["replicas"] > 1
            else ""
        )
        print(
            f"initialized tier at {args.store_dir}: "
            f"{len(status['roots'])} root(s){replicas}, "
            f"{len(status['misplaced'])} bucket(s) awaiting rebalance"
        )
        return 0

    store = ConnStore(args.store_dir)
    if args.tier_command == "compact":
        report = compact_checkpoints(
            store,
            min_batches=args.min_batches,
            grace_s=args.grace,
            keys=tuple(args.key or ()),
        )
        print(report.render())
        return 0
    if args.tier_command == "rebalance":
        for spec in args.add_root or ():
            try:
                store.add_root(spec)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        report = store.rebalance(max_buckets=args.max_buckets)
        print(
            f"moved {len(report.moved)} bucket(s): copied {report.copied} "
            f"object(s) ({report.bytes_copied} bytes), reaped "
            f"{report.deleted} duplicate(s); "
            + (
                f"{len(report.pending)} bucket(s) still pending"
                if report.pending
                else "placement is level"
            )
        )
        return 0
    # status
    status = store.tier_status()
    replicas = (
        f" (replicas={status['replicas']}, "
        f"effective={status['effective_replicas']})"
        if status["replicas"] > 1
        else ""
    )
    print(f"tier at {args.store_dir}{replicas}")
    for root in status["roots"]:
        if root["status"] == "down":
            print(
                f"  root[{root['index']}] {root['path']}: DOWN "
                f"({root['buckets']} bucket(s) assigned; reads fall back "
                "to replicas)"
            )
            continue
        breaker = root["health"]["state"]
        suffix = f" [breaker {breaker}]" if breaker != "closed" else ""
        print(
            f"  root[{root['index']}] {root['path']}: "
            f"{root['buckets']} bucket(s), {root['objects']} object(s), "
            f"{root['bytes']} bytes{suffix}"
        )
    under = status["under_replicated"]
    if under["objects"] or under["manifests"]:
        print(
            f"  under-replicated: {under['objects']} object(s), "
            f"{under['manifests']} manifest(s) queued "
            "(run `store repair --replicas`)"
        )
    if status["moving"]:
        print(f"  moving: {status['moving']}")
    print(
        "  misplaced buckets: "
        + (", ".join(status["misplaced"]) if status["misplaced"] else "none")
    )
    return 0


def _build_daemon_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study daemon",
        description=(
            "Run the always-on supervised ingestion daemon: one "
            "crash-tolerant streaming feed per tenant, rolling-window "
            "publication, poison-feed quarantine, and threshold alerts "
            "(see docs/daemon.md).  SIGTERM drains gracefully: feeds "
            "flush a final checkpoint and the next start resumes there."
        ),
    )
    parser.add_argument(
        "--store-dir",
        required=True,
        help="store root: checkpoints land in the store proper, rolling "
        "windows under <store>/daemon/<tenant>/",
    )
    parser.add_argument(
        "--tenant",
        action="append",
        required=True,
        metavar="NAME=PCAP_OR_DIR",
        help="one trace feed (repeatable): a pcap file or a directory "
        "of *.pcap files",
    )
    parser.add_argument(
        "--window", type=float, default=None, metavar="SECONDS",
        help="rolling aggregation window (default 60s)",
    )
    parser.add_argument(
        "--flow-budget", action="append", default=None, metavar="N|NAME=N",
        help="flow-table capacity: a bare N applies to every tenant, "
        "NAME=N overrides one tenant (repeatable; LRU eviction beyond "
        "the budget — one tenant's flood never evicts a neighbor's "
        "flows)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="PACKETS",
        help="packets between resumable checkpoints (default 5000, 0=off)",
    )
    parser.add_argument(
        "--error-policy",
        default=None,
        choices=[policy.value for policy in ErrorPolicy],
        help="feed ingestion policy (default tolerant: an always-on "
        "service salvages damaged input instead of dying on it)",
    )
    parser.add_argument(
        "--packet-rate", type=float, default=None, metavar="PPS",
        help="pace each feed to ~this many packets/second "
        "(0 = full speed)",
    )
    parser.add_argument(
        "--watch", action="store_const", const=True, default=None,
        help="directory-sourced feeds rescan for newly dropped pcaps "
        "during the run (instead of only at restart) and keep running "
        "until drained",
    )
    parser.add_argument(
        "--watch-interval", type=float, default=None, metavar="SECONDS",
        help="seconds between watch rescans of an idle feed (default 2)",
    )
    parser.add_argument(
        "--no-maintenance", dest="maintenance",
        action="store_const", const=False, default=None,
        help="disable idle-loop store maintenance (incremental scrub + "
        "checkpoint compaction between traces)",
    )
    parser.add_argument(
        "--maintenance-interval", type=float, default=None,
        metavar="SECONDS",
        help="minimum seconds between idle maintenance ticks (default 5)",
    )
    parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="JSON daemon config: daemon-wide settings, per-tenant "
        "flow_budget overrides, and alert rules (global + per-tenant); "
        "explicit CLI flags win over the file's settings, and per-tenant "
        "values win over global ones (see docs/daemon.md)",
    )
    parser.add_argument(
        "--alert-config", default=None, metavar="PATH",
        help="JSON alert rules: {\"rules\": [{name, metric, threshold, "
        "clear_threshold, raise_after, clear_after, tenant}, ...]} "
        "(additive with --config rules)",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="append the daemon's JSONL event stream (feed lifecycle, "
        "windows, alerts) here",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="narrate events on stderr",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="first feed-restart backoff; doubles per consecutive crash",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=15.0, metavar="SECONDS",
        help="a feed silent this long is presumed hung and killed "
        "(0 disables the watchdog)",
    )
    parser.add_argument(
        "--max-crashes", type=int, default=3,
        help="consecutive crashes before a feed is quarantined as poison",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="SIGTERM drain: how long feeds get to flush their final "
        "checkpoints before SIGKILL (default 30s)",
    )
    return parser


def _build_daemon_tail_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study daemon tail",
        description="Follow a live daemon's JSONL telemetry stream.",
    )
    parser.add_argument(
        "--telemetry", required=True, metavar="PATH",
        help="the stream the daemon was started with",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="stop following after this long (default: forever)",
    )
    parser.add_argument(
        "--events", nargs="*", default=None,
        help="only show these event types (e.g. alert_raise alert_clear)",
    )
    return parser


def _daemon_main(argv: list[str]) -> int:
    """The ``repro-study daemon`` subcommand family."""
    import json

    if argv and argv[0] == "tail":
        from ..runtime.telemetry import follow_events

        args = _build_daemon_tail_parser().parse_args(argv[1:])
        wanted = set(args.events) if args.events else None
        try:
            for event in follow_events(args.telemetry, timeout=args.timeout):
                if wanted is None or event.get("event") in wanted:
                    print(json.dumps(event, sort_keys=True), flush=True)
        except KeyboardInterrupt:
            pass
        return 0

    from ..daemon import (
        AlertEngine,
        DaemonFileConfig,
        DaemonSupervisor,
        load_alert_rules,
        load_daemon_config,
        parse_flow_budget,
        parse_tenant,
    )
    from ..runtime.child import RetryPolicy
    from ..runtime.telemetry import TelemetryLog

    args = _build_daemon_parser().parse_args(argv)
    try:
        tenants = [parse_tenant(text) for text in args.tenant]
        file_cfg = (
            load_daemon_config(args.config)
            if args.config is not None
            else DaemonFileConfig()
        )
        rules = list(file_cfg.rules)
        if args.alert_config is not None:
            rules.extend(load_alert_rules(args.alert_config))
        cli_global_budget: int | None = None
        cli_tenant_budgets: dict[str, int] = {}
        for text in args.flow_budget or []:
            tenant, budget = parse_flow_budget(text)
            if tenant is None:
                cli_global_budget = budget
            else:
                cli_tenant_budgets[tenant] = budget
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Only explicitly-given flags override the config file's settings.
    overrides: dict = {}
    for name in (
        "window", "checkpoint_every", "error_policy", "packet_rate",
        "drain_timeout", "watch", "watch_interval",
        "maintenance", "maintenance_interval",
    ):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    overrides["retry"] = RetryPolicy(
        backoff=args.backoff,
        heartbeat_timeout=(
            args.heartbeat_timeout if args.heartbeat_timeout > 0 else None
        ),
        max_crashes=args.max_crashes,
    )
    config = file_cfg.resolve(
        cli_global_budget=cli_global_budget,
        cli_tenant_budgets=cli_tenant_budgets,
        **overrides,
    )
    with TelemetryLog(path=args.telemetry, progress=False) as telemetry:
        supervisor = DaemonSupervisor(
            tenants,
            args.store_dir,
            config=config,
            alerts=AlertEngine(rules),
            telemetry=telemetry,
        )
        statuses = supervisor.run()
    for tenant in sorted(statuses):
        line = f"[daemon] {tenant}: {statuses[tenant]}"
        print(line, file=sys.stderr if args.progress else sys.stdout)
    failed = sum(
        1 for status in statuses.values()
        if status not in ("done", "drained")
    )
    return 0 if failed == 0 else 1


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study serve",
        description=(
            "Run the long-running analysis HTTP service: store queries, "
            "CDFs, and paper tables behind an LRU response cache; study "
            "submission as bounded background jobs (429 + Retry-After "
            "under saturation); live read-through of daemon window "
            "artifacts (see docs/service.md).  SIGTERM shuts down "
            "gracefully."
        ),
    )
    parser.add_argument(
        "--store-dir", required=True,
        help="connection-record store root the service queries (and "
        "where submitted studies land)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="listen port (default 8080; 0 picks a free one)",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=256,
        help="LRU response-cache capacity in responses (default 256)",
    )
    parser.add_argument(
        "--job-workers", type=int, default=1,
        help="background study workers (default 1)",
    )
    parser.add_argument(
        "--job-queue", type=int, default=4,
        help="pending-job queue bound; beyond it POST /studies answers "
        "429 (default 4)",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="append the service's JSONL request/event stream here "
        "(also enables the GET /events tail endpoint)",
    )
    return parser


def _serve_main(argv: list[str]) -> int:
    """The ``repro-study serve`` subcommand."""
    import signal
    import threading

    from ..runtime.telemetry import TelemetryLog
    from ..service import ReproService

    args = _build_serve_parser().parse_args(argv)
    telemetry = (
        TelemetryLog(path=args.telemetry) if args.telemetry else None
    )
    service = ReproService(
        args.store_dir,
        host=args.host,
        port=args.port,
        cache_entries=args.cache_entries,
        job_workers=args.job_workers,
        job_queue=args.job_queue,
        telemetry=telemetry,
    )
    service.start_background()
    print(
        f"[service] listening on {service.url} (store {args.store_dir})",
        file=sys.stderr,
        flush=True,
    )
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, lambda *_: stop.set())
    try:
        while not stop.is_set():
            stop.wait(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        service.shutdown()
    print("[service] drained and stopped", file=sys.stderr, flush=True)
    return 0


def _build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study loadgen",
        description=(
            "Drive a running analysis service with N concurrent "
            "simulated users (persistent connections, mixed endpoint "
            "workload, warmup then measurement) and report "
            "p50/p95/p99 latency and error rate.  Exits non-zero if "
            "any request got a 5xx or a connection error."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="service host (default loopback)"
    )
    parser.add_argument(
        "--port", type=int, required=True, help="service port"
    )
    parser.add_argument(
        "--users", type=int, default=8,
        help="concurrent simulated users (default 8)",
    )
    parser.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="measurement phase length (default 5s)",
    )
    parser.add_argument(
        "--warmup", type=float, default=1.0, metavar="SECONDS",
        help="unrecorded warmup phase length (default 1s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload RNG seed (per-user streams derive from it)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full JSON report instead of the summary",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON report here",
    )
    return parser


def _loadgen_main(argv: list[str]) -> int:
    """The ``repro-study loadgen`` subcommand."""
    import json
    from pathlib import Path

    from ..service.loadgen import render_report, run_load

    args = _build_loadgen_parser().parse_args(argv)
    report = run_load(
        args.host,
        args.port,
        users=args.users,
        duration=args.duration,
        warmup=args.warmup,
        seed=args.seed,
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    bad = report["status_counts"].get("5xx", 0) + report[
        "status_counts"
    ].get("conn-error", 0)
    return 0 if bad == 0 else 1


def _window_progress(window) -> None:
    """One live stderr line per closed streaming aggregation window."""
    conns = sum(window.conn_starts.values())
    print(
        f"  [stream] window {window.index:>4}  "
        f"{window.packets:>7} pkts  {window.mbps:8.3f} Mb/s  "
        f"{conns:>5} new conns  retx {window.retransmit_rate:6.2%}",
        file=sys.stderr,
    )


def main(argv: list[str] | None = None) -> int:
    """Run the study and print the requested tables/figures."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        return _store_main(argv[1:])
    if argv and argv[0] == "daemon":
        return _daemon_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        return _loadgen_main(argv[1:])
    args = _build_parser().parse_args(argv)
    knobs = StreamConfig(
        window=args.window,
        max_flows=args.max_flows,
        idle_timeout=args.idle_timeout,
        hard_timeout=args.hard_timeout,
        checkpoint_every=args.checkpoint_every,
    )
    # The window callback cannot cross a process boundary.
    observer = _window_progress if args.progress and args.jobs == 1 else None
    results = run_study(
        seed=args.seed,
        scale=args.scale,
        datasets=tuple(args.datasets),
        max_windows=args.max_windows,
        out_dir=args.out_dir,
        error_policy=args.error_policy,
        store_dir=args.store_dir,
        reuse_store=not args.no_reuse_store,
        jobs=args.jobs,
        progress=args.progress,
        telemetry_path=args.telemetry,
        stream=knobs,
        window_observer=observer,
    )
    return _print_results(args, results)


def _print_results(args: argparse.Namespace, results) -> int:
    """Print the requested tables/figures and the quality section."""
    tables = args.tables if args.tables is not None else _ALL_TABLES
    figures = args.figures if args.figures is not None else _ALL_FIGURES
    for number in tables:
        print(results.render_table(number))
        print()
    for number in figures:
        if args.plot:
            print(_render_figure_plots(results, number))
        else:
            print(results.render_figure(number))
        print()
    # Non-strict runs may have absorbed defects; always say what they were.
    if args.error_policy != ErrorPolicy.STRICT.value or results.total_errors:
        print(results.render_data_quality())
        print()
    # The timing table is operational telemetry, not a paper artifact:
    # it goes to stderr so table output stays byte-comparable across runs.
    if args.progress and results.telemetry is not None:
        print(results.telemetry.timing_table().render(), file=sys.stderr)
    return 0


def _render_figure_plots(results, number: int) -> str:
    """Render a figure, using ASCII plots for its CDF parts."""
    from ..report.model import CdfFigure, SeriesFigure, Table

    built = results.figure(number)
    if isinstance(built, dict):
        parts = list(built.values())
    elif isinstance(built, (Table, CdfFigure, SeriesFigure)):
        parts = [built]
    else:
        parts = list(built)
    rendered = []
    for part in parts:
        if isinstance(part, CdfFigure):
            rendered.append(part.render_plot())
        else:
            rendered.append(part.render())
    return "\n\n".join(rendered)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
