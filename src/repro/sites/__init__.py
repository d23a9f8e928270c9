"""Multi-site layer: declarative site configs, builders, federation.

The paper is ten sites running different machines, transports, and
storage stacks; this package makes a whole deployment *data*
(:class:`~repro.sites.config.SiteConfig`), builds it
(:func:`~repro.sites.build.build_site`), ships presets for the ten
authoring sites (:data:`~repro.sites.presets.PAPER_SITES`), and steps
N of them on one simulated clock with a federated query/capability
view (:class:`~repro.sites.federation.Federation`).
"""

from .build import build_machine, build_site, site_capabilities
from .config import SiteConfig
from .federation import Federation
from .presets import PAPER_SITES, paper_site, paper_sites

__all__ = [
    "Federation",
    "PAPER_SITES",
    "SiteConfig",
    "build_machine",
    "build_site",
    "paper_site",
    "paper_sites",
    "site_capabilities",
]
