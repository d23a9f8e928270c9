"""repro — an end-to-end HPC monitoring stack.

Reproduction of *Large-Scale System Monitoring Experiences and
Recommendations* (Ahlgren et al., IEEE CLUSTER 2018, HPCMASPA workshop):
the complete monitoring capability ten large Cray sites describe building
piecemeal — data sources, transport, storage, analysis, visualization,
and response — demonstrated against a simulated large-scale HPC platform
with realistic failure modes.

Quick tour::

    from repro.sites import SiteConfig, build_site

    pipeline = build_site(SiteConfig(groups=4, shards=4, seed=1))
    pipeline.run(hours=2)
    print(pipeline.active_alerts())

A :class:`~repro.sites.SiteConfig` is the whole deployment as data
(machine shape, cadences, transport tier, storage layout, quotas);
:func:`~repro.sites.build_site` is the one function that turns
it into a running :class:`~repro.pipeline.MonitoringPipeline`.

Subpackages:

- :mod:`repro.core`      — metric/event datatypes, schema registry, clocks
- :mod:`repro.cluster`   — the simulated platform (topology, network,
  filesystem, scheduler, workload, faults)
- :mod:`repro.sources`   — collectors: counters, SEDC, ERD, logs, probes,
  benchmarks, health checks, power, queue stats
- :mod:`repro.transport` — pluggable transports: flat pub/sub bus,
  partitioned bus, LDMS-style coalescing aggregator tree, syslog
  forwarding
- :mod:`repro.storage`   — time-series store (single or sharded),
  relational store, log store, hierarchical tiering, job index
- :mod:`repro.analysis`  — anomaly/trend/congestion/power-signature/
  aggressor-victim/queue/log analyses
- :mod:`repro.response`  — SEC-style event correlation, alerting, actions
- :mod:`repro.viz`       — aggregation, drill-down dashboards, figures
- :mod:`repro.obs`       — self-observability: trace spans, ``selfmon.*``
  meta-metrics, pipeline introspection ("monitor the monitoring")
- :mod:`repro.sites`     — declarative site configs, the assembly path,
  the ten paper-site presets, N-site federation
"""

__version__ = "1.0.0"

from . import analysis, cluster, core, obs, response, sites, sources, storage, transport, viz
from .pipeline import MonitoringPipeline, default_collectors
from .sites import SiteConfig, build_site

__all__ = [
    "analysis",
    "cluster",
    "core",
    "obs",
    "response",
    "sites",
    "sources",
    "storage",
    "transport",
    "viz",
    "MonitoringPipeline",
    "SiteConfig",
    "build_site",
    "default_collectors",
    "__version__",
]
