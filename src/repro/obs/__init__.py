"""Observability: span tracing, flight recording, and timeline export.

`repro.obs` is the consensus flight recorder — a bounded ring buffer of
typed spans, instants, message flow edges and sampled telemetry, attached
to a cluster with :meth:`repro.bench.cluster.SimulatedCluster.attach_tracer`
and exported to Chrome trace-event / Perfetto JSON and CSV/JSON timeseries.
Tracing is strictly zero-cost when disabled; see :mod:`repro.obs.tracer`.
"""

from repro.obs.export import (
    campaign_chrome_trace,
    timeseries_json,
    to_chrome_trace,
    validate_chrome_trace,
    write_campaign_trace,
    write_chrome_trace,
    write_timeseries_csv,
)
from repro.obs.tracer import DEFAULT_CAPACITY, DUMP_FORMAT, TelemetrySampler, Tracer

__all__ = [
    "DEFAULT_CAPACITY",
    "DUMP_FORMAT",
    "TelemetrySampler",
    "Tracer",
    "campaign_chrome_trace",
    "timeseries_json",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_campaign_trace",
    "write_chrome_trace",
    "write_timeseries_csv",
]
