"""Deprecated module-level campaign entry points.

The campaign execution API lives in three places since the v2 redesign:

* :mod:`repro.experiments.backends` — the pluggable backend registry
  (``vectorized`` / ``event`` / ``campaign`` built-ins, ``register_backend``
  for extensions).
* :mod:`repro.experiments.executor` — parallel sharded execution.
* :mod:`repro.experiments.session` — the :class:`CampaignSession` facade::

      CampaignSession(config).run("minife").analyze().report()

The functions below are thin deprecation shims kept so existing callers
(examples, benchmarks, downstream scripts) continue to work; they delegate to
a :class:`~repro.experiments.session.CampaignSession` and return the exact
same datasets as before.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional, Sequence

from repro.core.timing import TimingDataset
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession


def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"repro.experiments.campaign.{old} is deprecated; use {new}",
        DeprecationWarning,
        stacklevel=3,
    )


def run_campaign(config: CampaignConfig) -> TimingDataset:
    """Run one application's campaign and return its timing dataset.

    .. deprecated::
        Use ``CampaignSession(config).run().dataset`` instead.
    """
    _deprecated("run_campaign", "CampaignSession(config).run().dataset")
    return CampaignSession(config).run().dataset


def run_all_campaigns(
    config: CampaignConfig, applications: Optional[Sequence[str]] = None
) -> Dict[str, TimingDataset]:
    """Run the campaign for several applications (all three by default).

    .. deprecated::
        Use ``CampaignSession(config).run_all()`` instead.
    """
    _deprecated("run_all_campaigns", "CampaignSession(config).run_all()")
    results = CampaignSession(config).run_all(applications)
    return {name: result.dataset for name, result in results.items()}


def quick_campaign(
    application: str,
    *,
    trials: int = 1,
    processes: int = 2,
    iterations: int = 25,
    threads: int = 48,
    seed: int = 7,
    backend: str = "vectorized",
) -> TimingDataset:
    """Small campaign with sensible defaults (examples, docs, tests).

    .. deprecated::
        Build a :class:`~repro.experiments.config.CampaignConfig` and use
        ``CampaignSession(config).run().dataset`` instead.
    """
    _deprecated("quick_campaign", "CampaignSession(config).run().dataset")
    config = CampaignConfig(
        application=application,
        trials=trials,
        processes=processes,
        iterations=iterations,
        threads=threads,
        seed=seed,
        backend=backend,
    )
    return CampaignSession(config).run().dataset
