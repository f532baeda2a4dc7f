"""The ingest engine's single-pass machinery.

:class:`~repro.analysis.engine.DatasetAnalyzer` reads each trace once,
one record in memory at a time; this package holds the parts of that
pass that are not analysis proper:

* :mod:`repro.stream.source` — the offset-tracking packet source;
* :mod:`repro.stream.aggregates` — live per-window aggregates;
* :mod:`repro.stream.checkpoint` — crash checkpoints in the store.

See ``docs/streaming.md``.
"""
