"""Scenario subsystem: registries for machines, noise models and scenarios.

The paper's campaign originally knew two hardcoded machines and one
hardwired two-source noise model.  This subpackage generalises both into
registries — the same pluggable shape as the campaign-backend registry — and
adds a declarative :class:`Scenario` layer on top:

* :mod:`repro.scenarios.sources` — the :class:`NoiseSource` protocol, the
  ``@register_noise_source`` registry, six built-in populations (periodic
  daemons, Poisson/Pareto interrupts, cron bursts, network storms, silent)
  and named noise profiles composing them into
  :class:`~repro.cluster.noise.NoiseSpec` bundles.
* :mod:`repro.scenarios.machines` — the ``@register_machine`` registry with
  the paper's ``manzano`` platform, the ``laptop`` preset, a 128-core
  ``fatnode`` and a noisy oversubscribed ``cloudvm``.
* :mod:`repro.scenarios.scenario` — the :class:`Scenario` dataclass
  (machine × noise × application × schedule), the ``@register_scenario``
  catalog the CLI's ``--scenario``/``--list-scenarios`` flags resolve
  against, and :class:`ScenarioMatrix` for cartesian sweeps that feed
  :class:`~repro.experiments.session.CampaignSession` directly.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.scenarios.machines": (
        "available_machines",
        "get_machine",
        "register_machine",
        "unregister_machine",
    ),
    "repro.scenarios.scenario": (
        "Scenario",
        "ScenarioMatrix",
        "available_scenarios",
        "get_scenario",
        "register_scenario",
        "unregister_scenario",
    ),
    "repro.scenarios.sources": (
        "NoiseSource",
        "available_noise_profiles",
        "available_noise_sources",
        "build_noise_sources",
        "get_noise_source",
        "make_noise_source",
        "noise_profile",
        "register_noise_profile",
        "register_noise_source",
        "unregister_noise_profile",
        "unregister_noise_source",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
