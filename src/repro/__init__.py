"""repro — reproduction of *Measuring Thread Timing to Assess the Feasibility of
Early-bird Message Delivery* (Marts et al., ICPP 2023, arXiv:2304.11122).

The package is organised as a stack of substrates with the paper's
contribution (thread-timing instrumentation and analysis) on top:

``repro.sim``
    Named, reproducible random streams.
``repro.cluster``
    Machine model: the node layout and an OS-noise model (the "Manzano" test
    platform of the paper is a preset).
``repro.openmp``
    Simulated OpenMP loop schedules (``static``/``dynamic``/``guided``).
``repro.mpi``
    Closed-form MPI-4.0-style partitioned communication on a LogGP network
    model (the transfer the early-bird feasibility model evaluates).
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
    passes (``@register_analysis``) that fold campaign column blocks through a
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
``session.stream()`` iterates block by block without materialising the dense
dataset; ``repro.experiments.register_backend`` plugs in new execution
strategies alongside the built-in ``campaign`` backend.

Scenarios name full experimental settings and feed the same session::

>>> from repro import get_scenario
>>> result = get_scenario("manzano-quiet").session(scale="smoke").run()
>>> result.dataset.metadata["noise_enabled"]
False

Campaign-scale analysis streams blocks through registered analysis passes
instead of merging them first::

>>> results = session.analyze(analyses=["percentiles", "laggards",
...                                     "reclaimable", "normality"])
>>> report = results.report(include_earlybird=False)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro._version import __version__

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.analysis.base import (
        AnalysisPass,
        available_analyses,
        get_analysis,
        register_analysis,
    )
    from repro.analysis.engine import analyze_dataset
    from repro.core.timing import TimingDataset
    from repro.experiments.backends import register_backend
    from repro.experiments.config import CampaignConfig
    from repro.experiments.session import CampaignSession
    from repro.scenarios.machines import available_machines, get_machine, register_machine
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
    "repro.core.timing": ("TimingDataset",),
    "repro.experiments.config": ("CampaignConfig",),
    "repro.experiments.session": ("CampaignSession",),
    "repro.experiments.backends": ("register_backend",),
    "repro.scenarios.scenario": (
        "Scenario",
        "ScenarioMatrix",
        "register_scenario",
        "get_scenario",
        "available_scenarios",
    ),
    "repro.scenarios.machines": ("register_machine", "get_machine", "available_machines"),
    "repro.scenarios.sources": (
        "register_noise_source",
        "make_noise_source",
        "available_noise_sources",
        "noise_profile",
    ),
    "repro.analysis.base": (
        "AnalysisPass",
        "register_analysis",
        "get_analysis",
        "available_analyses",
    ),
    "repro.analysis.engine": ("analyze_dataset",),
}
# the substrates (repro.sim, repro.stats, ...) import on their own without
# paying for the analysis stack
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
__all__.insert(0, "__version__")
