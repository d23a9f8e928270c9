"""The serving plane: a read-optimized, multi-tenant query front end.

The paper's dashboards and per-job analyses (Figures 1-5, Section IV-C)
are read-heavy: a whole facility of users hammers aggregated views while
ingest never stops.  MPCDF serves job-specific dashboards to every user
of the facility, and DCDB keeps query latency flat via continuous
downsampling at ingest time — this package is that pattern over the
existing stores:

* rollup pyramids (:mod:`repro.storage.rollup`) folded at chunk-seal
  time; the store's one bucketed read answers whole buckets from the
  coarsest sufficient level,
* a bounded LRU query-result cache keyed on normalized query plans and
  invalidated precisely by per-metric store epochs
  (:mod:`repro.serve.cache`),
* per-tenant token-bucket quotas and concurrency limits in the
  ``response/governor`` style — rejections are accounted, not raised
  (:mod:`repro.serve.quota`),
* the :class:`~repro.serve.frontend.QueryFrontend` tying them together
  behind the familiar store query surface.
"""

from .cache import QueryResultCache, ResultCacheStats
from .federated import FederatedFrontend, FederatedStats
from .frontend import QueryFrontend, ServeStats
from .plan import QueryPlan
from .quota import TenantGovernor, TenantQuota, TenantStats

__all__ = [
    "FederatedFrontend",
    "FederatedStats",
    "QueryFrontend",
    "QueryPlan",
    "QueryResultCache",
    "ResultCacheStats",
    "ServeStats",
    "TenantGovernor",
    "TenantQuota",
    "TenantStats",
]
