"""repro — reproduction of *Measuring Thread Timing to Assess the Feasibility of
Early-bird Message Delivery* (Marts et al., ICPP 2023, arXiv:2304.11122).

The package is organised as a stack of substrates with the paper's
contribution (thread-timing instrumentation and analysis) on top:

``repro.sim``
    Deterministic discrete-event simulation engine.
``repro.cluster``
    Machine model: nodes, sockets, cores, per-core monotonic clocks and an
    OS-noise model (the "Manzano" test platform of the paper is a preset).
``repro.openmp``
    Simulated OpenMP runtime: thread teams, loop schedules, barriers and
    ``parallel for nowait`` regions.
``repro.mpi``
    Simulated MPI layer: communicators, point-to-point, collectives and
    MPI-4.0-style partitioned communication on a LogGP network model.
``repro.stats``
    Batch-vectorised normality tests (D'Agostino K², Shapiro–Wilk,
    Anderson–Darling) and distribution utilities, validated against SciPy.
``repro.core``
    The paper's contribution: region instrumentation, the
    :class:`~repro.core.timing.TimingDataset`, aggregation levels, laggard and
    reclaimable-time analysis, and the early-bird feasibility model.
``repro.apps``
    Proxy applications (MiniFE, MiniMD, MiniQMC) re-implemented as timed
    kernels plus calibrated per-thread work/cost models.
``repro.experiments``
    The campaign execution API — a registry of pluggable execution backends,
    a parallel sharded executor and the :class:`CampaignSession` facade —
    plus per-table/per-figure generators for the paper's evaluation section.
``repro.scenarios``
    Registries for machines (``@register_machine``), OS-noise sources
    (``@register_noise_source``) and declarative :class:`Scenario` recipes
    (machine × noise × application × schedule), with
    :class:`ScenarioMatrix` expansion for sweeps.
``repro.analysis``
    The streaming analysis engine: registered shard-mergeable analysis
    passes (``@register_analysis``) that fold campaign shards through a
    ``prepare → accumulate → merge → finalize`` lifecycle, so §4 analyses
    run in one parallel pass without materialising the merged dataset.

Quickstart
----------

>>> from repro import CampaignConfig, CampaignSession
>>> session = CampaignSession(CampaignConfig.smoke())
>>> report = session.run("minife").analyze().report()
>>> 0.0 <= report.laggard_fraction <= 1.0
True

``CampaignConfig(max_workers=4)`` fans the campaign's (trial, process)
shards out across a worker pool with bit-identical results;
``session.stream()`` iterates shard-by-shard without materialising the dense
dataset; ``repro.experiments.register_backend`` plugs in new execution
strategies alongside the built-in ``vectorized``, ``event`` and ``campaign``
backends.

Scenarios name full experimental settings and feed the same session::

>>> from repro import get_scenario
>>> result = get_scenario("manzano-quiet").session(scale="smoke").run()
>>> result.dataset.metadata["noise_enabled"]
False

Campaign-scale analysis streams shards through registered analysis passes
instead of merging them first::

>>> results = session.analyze(analyses=["percentiles", "laggards",
...                                     "reclaimable", "normality"])
>>> report = results.report(include_earlybird=False)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._version import __version__

__all__ = [
    "__version__",
    "TimingDataset",
    "TimingRecord",
    "TimingShard",
    "ThreadTimingAnalyzer",
    "CampaignConfig",
    "CampaignSession",
    "register_backend",
    "quick_campaign",
    "run_campaign",
    "Scenario",
    "ScenarioMatrix",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "register_machine",
    "get_machine",
    "available_machines",
    "register_noise_source",
    "make_noise_source",
    "available_noise_sources",
    "noise_profile",
    "AnalysisPass",
    "register_analysis",
    "get_analysis",
    "available_analyses",
    "run_analyses",
]

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.analysis import (
        AnalysisPass,
        available_analyses,
        get_analysis,
        register_analysis,
        run_analyses,
    )
    from repro.core.analyzer import ThreadTimingAnalyzer
    from repro.core.timing import TimingDataset, TimingRecord, TimingShard
    from repro.experiments.backends import register_backend
    from repro.experiments.campaign import quick_campaign, run_campaign
    from repro.experiments.config import CampaignConfig
    from repro.experiments.session import CampaignSession
    from repro.scenarios.machines import (
        available_machines,
        get_machine,
        register_machine,
    )
    from repro.scenarios.scenario import (
        Scenario,
        ScenarioMatrix,
        available_scenarios,
        get_scenario,
        register_scenario,
    )
    from repro.scenarios.sources import (
        available_noise_sources,
        make_noise_source,
        noise_profile,
        register_noise_source,
    )

_LAZY_EXPORTS = {
    "TimingDataset": ("repro.core.timing", "TimingDataset"),
    "TimingRecord": ("repro.core.timing", "TimingRecord"),
    "TimingShard": ("repro.core.timing", "TimingShard"),
    "ThreadTimingAnalyzer": ("repro.core.analyzer", "ThreadTimingAnalyzer"),
    "CampaignConfig": ("repro.experiments.config", "CampaignConfig"),
    "CampaignSession": ("repro.experiments.session", "CampaignSession"),
    "register_backend": ("repro.experiments.backends", "register_backend"),
    "quick_campaign": ("repro.experiments.campaign", "quick_campaign"),
    "run_campaign": ("repro.experiments.campaign", "run_campaign"),
    "Scenario": ("repro.scenarios.scenario", "Scenario"),
    "ScenarioMatrix": ("repro.scenarios.scenario", "ScenarioMatrix"),
    "register_scenario": ("repro.scenarios.scenario", "register_scenario"),
    "get_scenario": ("repro.scenarios.scenario", "get_scenario"),
    "available_scenarios": ("repro.scenarios.scenario", "available_scenarios"),
    "register_machine": ("repro.scenarios.machines", "register_machine"),
    "get_machine": ("repro.scenarios.machines", "get_machine"),
    "available_machines": ("repro.scenarios.machines", "available_machines"),
    "register_noise_source": ("repro.scenarios.sources", "register_noise_source"),
    "make_noise_source": ("repro.scenarios.sources", "make_noise_source"),
    "available_noise_sources": ("repro.scenarios.sources", "available_noise_sources"),
    "noise_profile": ("repro.scenarios.sources", "noise_profile"),
    "AnalysisPass": ("repro.analysis", "AnalysisPass"),
    "register_analysis": ("repro.analysis", "register_analysis"),
    "get_analysis": ("repro.analysis", "get_analysis"),
    "available_analyses": ("repro.analysis", "available_analyses"),
    "run_analyses": ("repro.analysis", "run_analyses"),
}


def __getattr__(name: str):
    """Lazily resolve the top-level convenience exports.

    Keeping these imports lazy lets the lightweight substrates
    (``repro.sim``, ``repro.stats``, ...) be imported on their own without
    paying for the full analysis stack.
    """
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
