"""Golden study digests: the rendered study is pinned byte for byte.

One SHA-256 covers every rendered table of the benchmark's study set,
all ten figures and the data-quality section, for small seed-7 runs of
D1 (68-byte snaplen, headers only) and D4 (full payloads), two tap
windows each.  Connection order reaches the digest through every
per-connection table and CDF, so these pins catch a change in which
records the ingest engine emits *and* in the order it emits them.  The
generated pcaps themselves are pinned in ``tests/test_gen_golden.py``;
a change that moves both fails there first.
"""

import hashlib

import pytest

from repro.core.study import run_study

#: The tables ``bench/pipeline.py`` digests (4 and 5 are static text).
STUDY_TABLES = (1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)

GOLDEN = {
    "D1": "cd8263e396250bab53528ef7daf32fe2c44d188ae100055561df7a9416e34597",
    "D4": "876be3f954fc106f4dd6e3e266a96e000a22d3e273088a31961f9d90384d2f73",
}


def study_digest(results) -> str:
    """SHA-256 over every rendered table and figure and the data quality."""
    digest = hashlib.sha256()
    for number in STUDY_TABLES:
        digest.update(results.render_table(number).encode())
    for number in range(1, 11):
        digest.update(results.render_figure(number).encode())
    digest.update(results.render_data_quality().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed7_study_digest_is_pinned(name):
    results = run_study(seed=7, scale=0.004, datasets=(name,), max_windows=2)
    assert study_digest(results) == GOLDEN[name]
