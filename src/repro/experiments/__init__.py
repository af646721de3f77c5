"""Campaign execution API and evaluation-section generators.

* :mod:`~repro.experiments.config` — campaign configurations (the paper's
  §3.2 setup is :meth:`CampaignConfig.paper_scale`).
* :mod:`~repro.experiments.backends` — the pluggable execution-backend
  registry (the ``campaign`` built-in,
  :func:`register_backend` for extensions).
* :mod:`~repro.experiments.executor` — parallel sharded execution
  (:class:`ShardExecutor`); bit-identical to serial at any worker count.
* :mod:`~repro.experiments.session` — :class:`CampaignSession`, the fluent
  front door: ``CampaignSession(config).run("minife").analyze().report()``,
  shard streaming via ``stream()``, config-hash-keyed result caching.
* :mod:`~repro.experiments.figures` — per-figure data generators (Fig. 1–9),
  reading :class:`~repro.analysis.AnalysisResults`.
* :mod:`~repro.experiments.tables` — Table 1 and the §4.2 scalar-metric
  table, reading :class:`~repro.analysis.AnalysisResults`.
* :mod:`~repro.experiments.paper` — the paper's reported values, for
  paper-vs-measured comparison.
* :mod:`~repro.experiments.runner` — the ``repro-campaign`` CLI (also
  ``python -m repro``), including ``--scenario`` / ``--list-scenarios``
  backed by the :mod:`repro.scenarios` registries.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.experiments.backends": (
        "CampaignBackend",
        "ShardSpec",
        "available_backends",
        "get_backend",
        "register_backend",
    ),
    "repro.experiments.config": ("CampaignConfig",),
    "repro.experiments.executor": ("ShardExecutor",),
    "repro.experiments.paper": ("PAPER_REFERENCE",),
    "repro.experiments.session": (
        "CampaignResult",
        "CampaignSession",
        "campaign_store_path",
        "config_cache_key",
    ),
    "repro.experiments.tables": ("section4_metrics_table", "table1"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
