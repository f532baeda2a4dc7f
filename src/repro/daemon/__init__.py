"""Always-on supervised ingestion: multi-tenant feeds, rolling windows,
anomaly alerts.

The paper observed a *live* enterprise network for months; this package
turns the one-shot pipeline into that shape.  A
:class:`DaemonSupervisor` runs one crash-tolerant feed process per
tenant through the single-pass ingest engine, publishes rolling-window
results through the chaos-safe fsio seam (kill it anywhere, restart it,
get byte-identical artifacts), restarts dead feeds with the runtime's
exponential backoff, quarantines poison feeds after
``retry.max_crashes`` consecutive deaths, and raises hysteresis-
debounced threshold alerts over the window stream.  See
``docs/daemon.md``.
"""

from .alerts import AlertEngine, AlertRule, load_alert_rules, parse_alert_rule
from .config import (
    DaemonConfig,
    DaemonFileConfig,
    TenantSpec,
    load_daemon_config,
    parse_flow_budget,
    parse_tenant,
)
from .feed import PacedSource, run_feed, tenant_dir
from .supervisor import DaemonSupervisor, FeedState, tenant_digest

__all__ = [
    "AlertEngine",
    "AlertRule",
    "DaemonConfig",
    "DaemonFileConfig",
    "DaemonSupervisor",
    "FeedState",
    "PacedSource",
    "TenantSpec",
    "load_alert_rules",
    "load_daemon_config",
    "parse_alert_rule",
    "parse_flow_budget",
    "parse_tenant",
    "run_feed",
    "tenant_dir",
    "tenant_digest",
]
