"""Self-observability: the stack monitoring itself ("monitor the monitoring").

Table I demands that monitoring have documented, bounded impact and that
operators can see data-path completeness end to end.  This package turns
that requirement on the reproduction itself:

* :mod:`repro.obs.trace` — lightweight nested trace spans over the
  pipeline's own execution, with a ring-buffer exporter;
* :mod:`repro.obs.hist` — small fixed-footprint latency histograms;
* :mod:`repro.obs.selfmetrics` — one table (``VITALS``) that reads every
  stats surface of the stack and declares every ``selfmon.*`` metric
  once, and the emitter that walks it, publishing the stack's own
  vitals as ordinary ``SeriesBatch``es so they land in the same TSDB,
  dashboards, and analyses as machine telemetry;
* :mod:`repro.obs.introspect` — a structured end-to-end health report
  over the whole pipeline: per-stage timings from the tracer, plus one
  section per ``VITALS`` group.
"""

from .hist import LatencyHistogram
from .introspect import HealthReport, PipelineIntrospector, StageReport
from .selfmetrics import SELFMON_METRICS, VITALS, SelfMonitor, Vital
from .trace import Span, Tracer

__all__ = [
    "HealthReport",
    "LatencyHistogram",
    "PipelineIntrospector",
    "SELFMON_METRICS",
    "SelfMonitor",
    "Span",
    "StageReport",
    "Tracer",
    "VITALS",
    "Vital",
]
