"""Per-tenant daemon configuration: file parsing, precedence, and the
supervisor actually honoring the override when it launches a feed."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.daemon import (
    DaemonConfig,
    DaemonFileConfig,
    DaemonSupervisor,
    TenantSpec,
    load_daemon_config,
    parse_flow_budget,
)
from repro.analysis.flow import DEFAULT_MAX_FLOWS


def _write(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "daemon.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# -- parse_flow_budget -------------------------------------------------------


def test_parse_flow_budget_forms():
    assert parse_flow_budget("4096") == (None, 4096)
    assert parse_flow_budget("lan=512") == ("lan", 512)
    with pytest.raises(ValueError):
        parse_flow_budget("lan=lots")
    with pytest.raises(ValueError):
        parse_flow_budget("0")


# -- the config file ---------------------------------------------------------


def test_load_full_config(tmp_path):
    path = _write(tmp_path, {
        "window": 30.0,
        "flow_budget": 4096,
        "rules": [{"name": "hot", "metric": "mbps", "threshold": 50}],
        "tenants": {
            "acme": {
                "flow_budget": 512,
                "rules": [{
                    "name": "acme-loss",
                    "metric": "retransmit_rate",
                    "threshold": 0.02,
                    # Even a lying tenant key is pinned to the block:
                    "tenant": "someone-else",
                }],
            },
            "beta": {"flow_budget": 64},
        },
    })
    cfg = load_daemon_config(path)
    assert cfg.settings == {"window": 30.0, "flow_budget": 4096}
    assert cfg.tenant_flow_budgets == {"acme": 512, "beta": 64}
    by_name = {rule.name: rule for rule in cfg.rules}
    assert by_name["hot"].tenant is None
    assert by_name["acme-loss"].tenant == "acme"


@pytest.mark.parametrize(
    "payload",
    [
        {"flow_budgt": 10},                      # top-level typo
        {"tenants": {"a": {"flow_budge": 10}}},  # per-tenant typo
        {"tenants": {"a": {"flow_budget": 0}}},
        {"flow_budget": 0},
        {"tenants": ["a"]},
        {"rules": [{"metric": "mbps", "threshold": 1}]},  # nameless rule
        {"tenants": {"a": {"rules": [{"name": "x", "metric": "nope",
                                      "threshold": 1}]}}},
    ],
)
def test_malformed_configs_refuse_to_load(tmp_path, payload):
    with pytest.raises(ValueError):
        load_daemon_config(_write(tmp_path, payload))


def test_unreadable_config_raises(tmp_path):
    with pytest.raises(ValueError, match="unreadable"):
        load_daemon_config(tmp_path / "missing.json")


# -- precedence --------------------------------------------------------------


def test_precedence_specific_beats_general_cli_beats_file(tmp_path):
    cfg = load_daemon_config(_write(tmp_path, {
        "flow_budget": 4096,
        "tenants": {"acme": {"flow_budget": 512},
                    "beta": {"flow_budget": 64}},
    }))
    # File only: per-tenant file > file global > default.
    resolved = cfg.resolve()
    assert resolved.flow_budget == 4096
    assert resolved.flow_budget_for("acme") == 512
    assert resolved.flow_budget_for("unlisted") == 4096

    # CLI global beats file global but NOT the file's per-tenant entry.
    resolved = cfg.resolve(cli_global_budget=8192)
    assert resolved.flow_budget == 8192
    assert resolved.flow_budget_for("acme") == 512
    assert resolved.flow_budget_for("unlisted") == 8192

    # CLI per-tenant beats everything for its tenant only.
    resolved = cfg.resolve(
        cli_global_budget=8192, cli_tenant_budgets={"acme": 99}
    )
    assert resolved.flow_budget_for("acme") == 99
    assert resolved.flow_budget_for("beta") == 64


def test_precedence_without_any_budget_uses_default(tmp_path):
    resolved = DaemonFileConfig().resolve()
    assert resolved.flow_budget == DEFAULT_MAX_FLOWS
    assert resolved.flow_budget_for("anyone") == DEFAULT_MAX_FLOWS


def test_cli_setting_overrides_file_setting(tmp_path):
    cfg = load_daemon_config(
        _write(tmp_path, {"window": 30.0, "checkpoint_every": 100})
    )
    resolved = cfg.resolve(window=15.0)
    assert resolved.window == 15.0           # explicit CLI flag wins
    assert resolved.checkpoint_every == 100  # file survives where CLI silent
    assert resolved.error_policy == "tolerant"  # untouched default


# -- the supervisor honors the override --------------------------------------


def test_feed_payload_uses_per_tenant_budget(tmp_path):
    tenants = [
        TenantSpec("acme", tmp_path / "acme.pcap"),
        TenantSpec("beta", tmp_path / "beta.pcap"),
    ]
    config = DaemonConfig(
        flow_budget=4096, tenant_flow_budgets={"acme": 512}
    )
    supervisor = DaemonSupervisor(tenants, tmp_path / "store", config=config)
    payloads = {
        spec.name: supervisor._feed_payload(spec) for spec in tenants
    }
    assert payloads["acme"]["flow_budget"] == 512
    assert payloads["beta"]["flow_budget"] == 4096
    # Everything else is shared verbatim.
    assert payloads["acme"]["window"] == config.window
    assert payloads["acme"]["error_policy"] == config.error_policy
