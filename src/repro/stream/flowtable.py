"""The flow table's former home; it now lives in :mod:`repro.analysis.flow`."""

from ..analysis.flow import FlowTable

# The pipeline benchmark's tracer (bench/tracer.py) still patches
# ``process`` on this name; it is the same class.
StreamFlowTable = FlowTable
