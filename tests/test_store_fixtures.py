"""Committed stores written by an earlier version still open unchanged.

Each fixture under ``tests/fixtures/stores/`` was written once and is
never regenerated.  Opening one must need no migration: the manifest
key set (and so the service's store-state token and every ETag) is
unchanged, the study it holds is served warm without generating a
single trace, and a scrub finds nothing wrong.  Nothing a warm study or
an audit does may add, move or remove a file.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

import repro.core.study as study_module
from repro.core.cli import main
from repro.core.study import run_study
from repro.service.cache import store_state_token
from repro.store import ConnStore, StoreScrubber

FIXTURES = Path(__file__).parent / "fixtures" / "stores"

_PARAMS = dict(seed=7, scale=0.004, max_windows=1, datasets=("D0",))

#: Both fixtures hold the same study, so they share their pins.
STATE_TOKEN = "cca0534a30d4d6a6829e31bbe779e3fabc80b36a86d516439a556887e6ef7bd0"
TABLE2_SHA256 = "dd58e8051378125eb32be60af79ff6cc2755ddd07ca71381092a98e16ebfb2c0"

#: fixture directory -> the store root inside it.
STORES = {"flat": ".", "tier": "a"}


@pytest.fixture(params=sorted(STORES))
def fixture_store(request, tmp_path):
    """A private copy of one fixture: ``(copy dir, store root)``."""
    copy = tmp_path / request.param
    shutil.copytree(FIXTURES / request.param, copy)
    return copy, copy / STORES[request.param]


def _files(base: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(base)): path.read_bytes()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


def test_state_token_is_pinned(fixture_store):
    _, root = fixture_store
    assert store_state_token(root) == STATE_TOKEN


def test_study_is_served_warm_and_renders_the_pinned_table(
    fixture_store, monkeypatch
):
    copy, root = fixture_store
    before = _files(copy)

    def no_generation(*args, **kwargs):
        raise AssertionError("the fixture store missed: traces were generated")

    monkeypatch.setattr(study_module, "_generate_and_analyze", no_generation)
    results = run_study(store_dir=str(root), **_PARAMS)
    table = results.render_table(2).encode()
    assert hashlib.sha256(table).hexdigest() == TABLE2_SHA256
    assert _files(copy) == before


def test_audit_scrub_is_clean(fixture_store, capsys):
    copy, root = fixture_store
    before = _files(copy)
    assert StoreScrubber(ConnStore(root)).scrub(quarantine=False).ok
    assert main(["store", "scrub", "--store-dir", str(root), "--audit-only"]) == 0
    assert "clean" in capsys.readouterr().out
    assert _files(copy) == before
