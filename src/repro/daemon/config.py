"""Daemon configuration: tenants, supervision knobs, and their parsing.

A *tenant* is one independent trace feed — a named pcap file or a
directory of them — that the daemon ingests through its own supervised
feed worker.  :class:`DaemonConfig` bundles the per-feed streaming
knobs (window, flow budget, checkpoint cadence) with the supervision
policy, which is literally the runtime's :class:`RetryPolicy`: the
daemon reuses its backoff curve, heartbeat cadence, and poison
(``max_crashes``) budget rather than inventing parallel knobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..runtime.child import RetryPolicy
from ..analysis.flow import DEFAULT_MAX_FLOWS
from .alerts import AlertRule, parse_alert_rule

__all__ = [
    "TenantSpec",
    "DaemonConfig",
    "DaemonFileConfig",
    "parse_tenant",
    "parse_flow_budget",
    "load_daemon_config",
]


@dataclass(frozen=True)
class TenantSpec:
    """One named trace feed: a pcap file, or a directory of pcaps."""

    name: str
    source: Path

    def traces(self) -> list[Path]:
        """The feed's trace files, in deterministic (sorted) order.

        A single file is a one-trace feed; a directory is every
        ``*.pcap`` under it, sorted by name.  New files dropped into a
        directory are picked up the next time the feed (re)starts — or
        live, mid-run, when the daemon runs with ``watch`` enabled (the
        feed then rescans the directory itself between passes).
        """
        if self.source.is_dir():
            return sorted(self.source.glob("*.pcap"))
        return [self.source]


def parse_tenant(text: str) -> TenantSpec:
    """Parse one ``--tenant NAME=PCAP_OR_DIR`` argument."""
    name, sep, source = text.partition("=")
    if not sep or not name or not source:
        raise ValueError(
            f"tenant spec must look like NAME=PCAP_OR_DIR, got {text!r}"
        )
    if any(ch in name for ch in "/\\. "):
        raise ValueError(
            f"tenant name {name!r} may not contain path separators, "
            "dots, or spaces (it names an on-disk directory)"
        )
    return TenantSpec(name=name, source=Path(source))


@dataclass(frozen=True)
class DaemonConfig:
    """Every knob of one daemon run (all tenants share it)."""

    #: Rolling aggregation window per feed, seconds.
    window: float = 60.0
    #: Default flow-table budget: one tenant's flow flood evicts its
    #: *own* LRU flows (counted as ``flow_overflow``), never a
    #: neighbor's — each feed owns a whole FlowTable.
    flow_budget: int = DEFAULT_MAX_FLOWS
    #: Per-tenant budget overrides (tenant name -> flows); a tenant not
    #: listed here gets :attr:`flow_budget`.  Resolved by
    #: :meth:`flow_budget_for` when the supervisor launches the feed.
    tenant_flow_budgets: dict[str, int] = field(default_factory=dict)
    #: Packets between resumable checkpoint flushes (0 disables).
    checkpoint_every: int = 5000
    #: Ingestion error policy for the feeds.  The daemon defaults to
    #: ``tolerant``: an always-on service should salvage damaged input
    #: within the error budget, not die on the first bad record.
    error_policy: str = "tolerant"
    #: Approximate per-feed ingestion rate in packets/second
    #: (0 = as fast as the disk allows).  A paced feed makes "kill it
    #: mid-window" deterministic for tests and keeps a replayed trace
    #: behaving like a live capture.
    packet_rate: float = 0.0
    #: Supervision policy, the same one the pool scheduler's children
    #: run under (:mod:`repro.runtime.child`):
    #: ``backoff``/``backoff_for`` drive feed-restart delays,
    #: ``heartbeat_timeout``/``heartbeat_interval`` drive the feed
    #: watchdog, and ``max_crashes`` is the poison-feed quarantine
    #: budget (consecutive crashes with no trace completed between).
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            backoff=0.5, heartbeat_timeout=15.0, max_crashes=3
        )
    )
    #: Seconds a SIGTERM drain waits for feeds to flush their final
    #: checkpoints before escalating to SIGKILL.
    drain_timeout: float = 30.0
    #: Watch mode: directory-sourced feeds rescan their directory for
    #: newly dropped pcaps *during* the run instead of only at
    #: (re)start, and keep running until drained.
    watch: bool = False
    #: Seconds between watch rescans of an idle directory feed.
    watch_interval: float = 2.0
    #: Idle-loop maintenance: when no feed has sent a message for
    #: :attr:`maintenance_idle_s`, the supervisor tick runs one bounded
    #: incremental-scrub step and one checkpoint compaction pass in the
    #: daemon process itself — no extra workers, no cron.
    maintenance: bool = True
    #: Minimum quiet time (no feed messages) before maintenance runs.
    maintenance_idle_s: float = 1.0
    #: Minimum seconds between two maintenance ticks.
    maintenance_interval: float = 5.0
    #: Items one incremental-scrub step may verify per tick.
    maintenance_budget: int = 64

    def flow_budget_for(self, tenant: str) -> int:
        """The flow budget one tenant's feed actually runs with."""
        return self.tenant_flow_budgets.get(tenant, self.flow_budget)


def parse_flow_budget(text: str) -> tuple[str | None, int]:
    """Parse one ``--flow-budget`` value: ``N`` (global) or ``NAME=N``
    (one tenant).  Returns ``(tenant_or_None, budget)``."""
    name, sep, value = text.partition("=")
    raw = value if sep else name
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            f"flow budget must be an integer (N or NAME=N), got {text!r}"
        ) from None
    if budget < 1:
        raise ValueError(f"flow budget must be >= 1, got {budget}")
    return (name if sep else None), budget


@dataclass(frozen=True)
class DaemonFileConfig:
    """A parsed ``--config`` JSON file: daemon-wide setting overrides,
    per-tenant flow budgets, and alert rules (global + per-tenant).

    The file only *proposes* values; :meth:`resolve` merges it with the
    command line under one precedence rule — **more specific beats more
    general, and within equal specificity the CLI beats the file**:

    1. CLI ``--flow-budget NAME=N``   (per-tenant, CLI)
    2. file ``tenants.NAME.flow_budget``  (per-tenant, file)
    3. CLI ``--flow-budget N``        (global, CLI)
    4. file top-level ``flow_budget``  (global, file)
    5. built-in default
    """

    #: Top-level setting overrides, restricted to ``_FILE_SETTINGS``.
    settings: dict[str, object] = field(default_factory=dict)
    #: ``tenants.<name>.flow_budget`` entries.
    tenant_flow_budgets: dict[str, int] = field(default_factory=dict)
    #: Global rules plus per-tenant rules (the latter pinned to their
    #: tenant by construction).
    rules: tuple[AlertRule, ...] = ()

    def resolve(
        self,
        cli_global_budget: int | None = None,
        cli_tenant_budgets: dict[str, int] | None = None,
        **config_kwargs: object,
    ) -> DaemonConfig:
        """Merge file + CLI into the :class:`DaemonConfig` a run uses."""
        merged: dict[str, object] = dict(self.settings)
        merged.update(config_kwargs)
        budget = cli_global_budget
        if budget is None:
            budget = merged.pop("flow_budget", None)
        else:
            merged.pop("flow_budget", None)
        if budget is not None:
            merged["flow_budget"] = int(budget)
        per_tenant = dict(self.tenant_flow_budgets)
        per_tenant.update(cli_tenant_budgets or {})
        merged["tenant_flow_budgets"] = per_tenant
        return DaemonConfig(**merged)


#: Top-level config-file keys accepted as DaemonConfig overrides.
_FILE_SETTINGS = (
    "window",
    "flow_budget",
    "checkpoint_every",
    "error_policy",
    "packet_rate",
    "drain_timeout",
    "watch",
    "watch_interval",
    "maintenance",
    "maintenance_idle_s",
    "maintenance_interval",
    "maintenance_budget",
)


def load_daemon_config(path: str | Path) -> DaemonFileConfig:
    """Load a daemon config file::

        {
          "window": 30.0,
          "flow_budget": 4096,
          "rules": [{"name": "hot", "metric": "mbps", "threshold": 50}],
          "tenants": {
            "acme": {
              "flow_budget": 512,
              "rules": [{"name": "acme-loss", "metric":
                         "retransmit_rate", "threshold": 0.02}]
            }
          }
        }

    Rules inside a tenant block are pinned to that tenant (any
    ``tenant`` key they carry is overridden).  Unknown keys — top-level
    or per-tenant — raise ``ValueError`` naming the file: a typoed
    ``flow_budgt`` silently running with the default would be the worst
    outcome a config parser can arrange.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"unreadable daemon config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"daemon config {path} must be a JSON object")
    unknown = set(payload) - set(_FILE_SETTINGS) - {"rules", "tenants"}
    if unknown:
        raise ValueError(
            f"daemon config {path}: unknown keys {sorted(unknown)}"
        )
    settings = {
        key: payload[key] for key in _FILE_SETTINGS if key in payload
    }
    if "flow_budget" in settings:
        settings["flow_budget"] = int(settings["flow_budget"])
        if settings["flow_budget"] < 1:
            raise ValueError(f"daemon config {path}: flow_budget must be >= 1")
    rules: list[AlertRule] = []
    for index, raw in enumerate(payload.get("rules", [])):
        try:
            rules.append(parse_alert_rule(raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"daemon config {path}: rule #{index}: {exc}"
            ) from exc
    tenant_budgets: dict[str, int] = {}
    tenants_raw = payload.get("tenants", {})
    if not isinstance(tenants_raw, dict):
        raise ValueError(f"daemon config {path}: tenants must be an object")
    for tenant, block in tenants_raw.items():
        if not isinstance(block, dict):
            raise ValueError(
                f"daemon config {path}: tenant {tenant!r} block must be "
                "an object"
            )
        unknown = set(block) - {"flow_budget", "rules"}
        if unknown:
            raise ValueError(
                f"daemon config {path}: tenant {tenant!r}: unknown keys "
                f"{sorted(unknown)}"
            )
        if "flow_budget" in block:
            budget = int(block["flow_budget"])
            if budget < 1:
                raise ValueError(
                    f"daemon config {path}: tenant {tenant!r}: flow_budget "
                    "must be >= 1"
                )
            tenant_budgets[tenant] = budget
        for index, raw in enumerate(block.get("rules", [])):
            try:
                rules.append(parse_alert_rule(raw, tenant=tenant))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"daemon config {path}: tenant {tenant!r} "
                    f"rule #{index}: {exc}"
                ) from exc
    return DaemonFileConfig(
        settings=settings,
        tenant_flow_budgets=tenant_budgets,
        rules=tuple(rules),
    )
