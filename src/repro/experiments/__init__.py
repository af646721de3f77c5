"""Campaign execution API and evaluation-section generators.

* :mod:`~repro.experiments.config` — campaign configurations (the paper's
  §3.2 setup is :meth:`CampaignConfig.paper_scale`).
* :mod:`~repro.experiments.backends` — the pluggable execution-backend
  registry (``vectorized`` / ``event`` / ``campaign`` built-ins,
  :func:`register_backend` for extensions).
* :mod:`~repro.experiments.executor` — parallel sharded execution
  (:class:`ShardExecutor`); bit-identical to serial at any worker count.
* :mod:`~repro.experiments.session` — :class:`CampaignSession`, the fluent
  front door: ``CampaignSession(config).run("minife").analyze().report()``,
  shard streaming via ``stream()``, config-hash-keyed result caching.
* :mod:`~repro.experiments.campaign` — deprecated module-level shims
  (``run_campaign`` & friends) delegating to the session.
* :mod:`~repro.experiments.figures` — per-figure data generators (Fig. 1–9).
* :mod:`~repro.experiments.tables` — Table 1 and the §4.2 scalar-metric table.
* :mod:`~repro.experiments.paper` — the paper's reported values, for
  paper-vs-measured comparison.
* :mod:`~repro.experiments.runner` — the ``repro-campaign`` CLI (also
  ``python -m repro``), including ``--scenario`` / ``--list-scenarios``
  backed by the :mod:`repro.scenarios` registries.
"""

from repro.experiments.backends import (
    CampaignBackend,
    ShardSpec,
    available_backends,
    get_backend,
    register_backend,
)
from repro.experiments.campaign import quick_campaign, run_all_campaigns, run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.executor import ShardExecutor
from repro.experiments.paper import PAPER_REFERENCE
from repro.experiments.session import (
    CampaignResult,
    CampaignSession,
    campaign_cache_path,
    campaign_store_path,
    config_cache_key,
)
from repro.experiments.tables import section4_metrics_table, table1

__all__ = [
    "CampaignConfig",
    "CampaignSession",
    "CampaignResult",
    "CampaignBackend",
    "ShardSpec",
    "ShardExecutor",
    "register_backend",
    "get_backend",
    "available_backends",
    "config_cache_key",
    "campaign_cache_path",
    "campaign_store_path",
    "run_campaign",
    "run_all_campaigns",
    "quick_campaign",
    "table1",
    "section4_metrics_table",
    "PAPER_REFERENCE",
]
