"""The ingest engine's former home; it now lives in :mod:`repro.analysis.engine`."""

from ..analysis.engine import DatasetAnalyzer

# The pipeline benchmark's tracer (bench/tracer.py) patches the decoder here
# too; the ingest loop calls the one in repro.analysis.engine.
from ..net.packet import decode_packet  # noqa: F401

# The pipeline benchmark's tracer patches ``process_pcap`` on this name; it
# is the same class.
StreamDatasetAnalyzer = DatasetAnalyzer
