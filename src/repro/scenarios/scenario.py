"""Declarative scenarios: machine × noise × application × schedule.

A :class:`Scenario` is a named, serialisable recipe the campaign layer can
execute: which registered machine to build, which noise profile to override
it with (if any), which proxy application to run and under which OpenMP loop
schedule.  :meth:`Scenario.campaign_config` turns the recipe into a regular
:class:`~repro.experiments.config.CampaignConfig` at any scale, so scenarios
feed :class:`~repro.experiments.session.CampaignSession` and the parallel
shard executor directly::

    >>> from repro.scenarios import get_scenario
    >>> result = get_scenario("manzano-default").session(scale="smoke").run()

:class:`ScenarioMatrix` expands cartesian products of registered machines,
noise profiles, applications and schedules into scenario lists — the shape
the CI scenario-matrix job and parameter sweeps consume.  A catalog of
built-in scenarios is registered at import; the CLI exposes it through
``--scenario`` and ``--list-scenarios``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro._registry import Registry
from repro.scenarios.machines import get_machine
from repro.scenarios.sources import noise_profile

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.cluster.config import MachineConfig
    from repro.experiments.config import CampaignConfig
    from repro.experiments.session import CampaignResult, CampaignSession


@dataclass(frozen=True)
class Scenario:
    """One named experimental setting.

    Parameters
    ----------
    name:
        Registry name (e.g. ``"manzano-default"``); used by the CLI and as
        the dataset/artifact label.
    machine:
        Registered machine name (see :mod:`repro.scenarios.machines`).
    application:
        Proxy application name (``"minife"``, ``"minimd"``, ``"miniqmc"``).
    noise:
        Optional noise-profile name overriding the machine's own noise
        population (``None`` keeps the machine default).
    schedule:
        Optional OpenMP schedule clause (``"static"``, ``"dynamic,4"``,
        ``"guided"``); ``None`` keeps each application's default.
    backend:
        Optional campaign-backend name (``"campaign"``, or any registered one)
        pinning the execution strategy; ``None`` keeps the campaign default
        (and an explicit ``backend=`` override to
        :meth:`campaign_config` wins over both).
    machine_args:
        Keyword overrides forwarded to the machine factory.
    description:
        One line for catalogs and reports.
    """

    name: str
    machine: str = "manzano"
    application: str = "minife"
    noise: Optional[str] = None
    schedule: Optional[str] = None
    backend: Optional[str] = None
    machine_args: Tuple[Tuple[str, object], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ValueError("Scenario needs a name")
        args = self.machine_args
        if isinstance(args, Mapping):
            args = args.items()
        object.__setattr__(
            self, "machine_args", tuple(sorted((str(k), v) for k, v in args))
        )

    # ------------------------------------------------------------------
    def machine_config(self) -> "MachineConfig":
        """Build this scenario's machine, with its noise override applied."""
        config = get_machine(self.machine, **dict(self.machine_args))
        if self.noise is not None:
            config = config.with_noise(noise_profile(self.noise))
        return config

    def campaign_config(
        self,
        scale: str = "smoke",
        *,
        seed: Optional[int] = None,
        backend: Optional[str] = None,
        max_workers: Optional[int] = None,
        trials: Optional[int] = None,
        processes: Optional[int] = None,
        iterations: Optional[int] = None,
        threads: Optional[int] = None,
    ) -> "CampaignConfig":
        """A :class:`CampaignConfig` realising this scenario at ``scale``.

        ``scale`` picks one of the config presets (``"smoke"``,
        ``"benchmark"``, ``"paper"``); the remaining keywords override
        individual campaign dimensions.
        """
        from repro.experiments.config import CampaignConfig

        factories = {
            "smoke": CampaignConfig.smoke,
            "benchmark": CampaignConfig.benchmark_scale,
            "paper": CampaignConfig.paper_scale,
        }
        try:
            base = factories[scale](application=self.application)
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {', '.join(sorted(factories))}"
            ) from None
        base = base.scaled(
            trials=trials, processes=processes, iterations=iterations, threads=threads
        )
        return replace(
            base,
            machine=self.machine_config(),
            schedule=self.schedule,
            scenario=self.name,
            seed=seed if seed is not None else base.seed,
            backend=(
                backend
                if backend is not None
                else (self.backend if self.backend is not None else base.backend)
            ),
            max_workers=max_workers if max_workers is not None else base.max_workers,
        )

    def session(
        self, scale: str = "smoke", *, cache_dir=None, executor_mode: str = "process", **overrides
    ) -> "CampaignSession":
        """A :class:`CampaignSession` ready to run this scenario."""
        from repro.experiments.session import CampaignSession

        return CampaignSession(
            self.campaign_config(scale, **overrides),
            cache_dir=cache_dir,
            executor_mode=executor_mode,
        )

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Catalog row for reports and ``--list-scenarios``."""
        return {
            "name": self.name,
            "machine": self.machine,
            "application": self.application,
            "noise": self.noise or "(machine default)",
            "schedule": self.schedule or "(app default)",
            "backend": self.backend or "(campaign default)",
            "description": self.description,
        }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_SCENARIOS: Registry[Scenario] = Registry(
    "scenario",
    "scenarios",
    accepts=lambda scenario: isinstance(scenario, Scenario),
    expects="a Scenario instance",
)

#: ``register_scenario(scenario, replace=...)`` registers a
#: :class:`Scenario` under its own name
register_scenario = _SCENARIOS.register
available_scenarios = _SCENARIOS.names
#: the :class:`Scenario` registered under a name
get_scenario = _SCENARIOS.lookup
unregister_scenario = _SCENARIOS.unregister


# ----------------------------------------------------------------------
# matrix expansion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioMatrix:
    """Cartesian sweep over machines × noises × applications × schedules.

    ``None`` entries in ``noises``/``schedules`` mean "keep the machine/app
    default", exactly as in :class:`Scenario`.  Expansion produces
    deterministic, self-describing names like
    ``manzano-minife-heavy-tail-dynamic``; pass ``name_prefix`` to namespace
    a sweep.  The matrix iterates as its expanded scenarios and
    :meth:`run` drives a :class:`CampaignSession` per entry.
    """

    machines: Tuple[str, ...] = ("manzano",)
    applications: Tuple[str, ...] = ("minife",)
    noises: Tuple[Optional[str], ...] = (None,)
    schedules: Tuple[Optional[str], ...] = (None,)
    name_prefix: str = ""

    def __post_init__(self) -> None:
        for attr in ("machines", "applications", "noises", "schedules"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        if not (self.machines and self.applications and self.noises and self.schedules):
            raise ValueError("every matrix axis needs at least one entry")

    # ------------------------------------------------------------------
    def expand(self) -> List[Scenario]:
        """All combinations, as concrete :class:`Scenario` objects."""
        scenarios = []
        for machine, app, noise, schedule in itertools.product(
            self.machines, self.applications, self.noises, self.schedules
        ):
            parts = [self.name_prefix, machine, app, noise, schedule]
            # "dynamic,4" -> "dynamic-c4": keep names shell- and path-safe
            name = "-".join(part.replace(",", "-c") for part in parts if part)
            scenarios.append(
                Scenario(
                    name=name,
                    machine=machine,
                    application=app,
                    noise=noise,
                    schedule=schedule,
                    description="matrix expansion",
                )
            )
        return scenarios

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.expand())

    def __len__(self) -> int:
        return (
            len(self.machines)
            * len(self.applications)
            * len(self.noises)
            * len(self.schedules)
        )

    # ------------------------------------------------------------------
    def configs(self, scale: str = "smoke", **overrides) -> List["CampaignConfig"]:
        """One :class:`CampaignConfig` per expanded scenario."""
        return [s.campaign_config(scale, **overrides) for s in self.expand()]

    def run(
        self,
        scale: str = "smoke",
        *,
        cache_dir=None,
        executor_mode: str = "process",
        use_cache: bool = True,
        **overrides,
    ) -> Dict[str, "CampaignResult"]:
        """Run every expanded scenario through a :class:`CampaignSession`.

        Returns results keyed by scenario name.  ``overrides`` (seed,
        backend, max_workers, dimension overrides) apply to every entry, so
        ``max_workers=8`` fans each campaign's units of work across the
        parallel executor.  Each entry is its own ``session.run`` — the
        sweep is :func:`run_scenarios` over :meth:`expand`.
        """
        return run_scenarios(
            self.expand(),
            scale,
            cache_dir=cache_dir,
            executor_mode=executor_mode,
            use_cache=use_cache,
            **overrides,
        )


def run_scenarios(
    names: Sequence[Union[str, Scenario]],
    scale: str = "smoke",
    *,
    cache_dir=None,
    executor_mode: str = "process",
    use_cache: bool = True,
    **overrides,
) -> Dict[str, "CampaignResult"]:
    """Run a list of scenarios (by name or instance) and key results by name."""
    results: Dict[str, "CampaignResult"] = {}
    for entry in names:
        scenario = entry if isinstance(entry, Scenario) else get_scenario(entry)
        session = scenario.session(
            scale, cache_dir=cache_dir, executor_mode=executor_mode, **overrides
        )
        results[scenario.name] = session.run(use_cache=use_cache)
    return results


# ----------------------------------------------------------------------
# built-in catalog
# ----------------------------------------------------------------------
_BUILTIN_SCENARIOS = (
    Scenario(
        name="manzano-default",
        description="The paper's §3.2 platform and noise model (MiniFE on the "
        "default campaign backend)",
    ),
    Scenario(
        name="manzano-minimd",
        application="minimd",
        description="MiniMD on the paper platform (two-phase force/neighbor loop)",
    ),
    Scenario(
        name="manzano-miniqmc",
        application="miniqmc",
        description="MiniQMC on the paper platform (walker-population spread)",
    ),
    Scenario(
        name="manzano-quiet",
        noise="none",
        description="Noise-off ablation (A2): pure schedule and work imbalance",
    ),
    Scenario(
        name="manzano-heavytail",
        noise="heavy-tail",
        description="Pareto-tailed interrupts: rare multi-ms stalls break "
        "normality at the tails",
    ),
    Scenario(
        name="manzano-storm",
        noise="storm",
        description="Network-interrupt storms layered on the default populations",
    ),
    Scenario(
        name="manzano-dynamic",
        schedule="dynamic",
        description="Dynamic loop schedule: imbalance traded for scheduling churn",
    ),
    Scenario(
        name="manzano-guided",
        schedule="guided",
        description="Guided loop schedule on the paper platform",
    ),
    Scenario(
        name="manzano-campaign",
        schedule="dynamic,4",
        backend="campaign",
        description="Dynamic schedule driven through the whole-campaign "
        "tensor backend (CI smoke of the campaign-level fold and its "
        "chunked shard streaming)",
    ),
    Scenario(
        name="laptop-bursty",
        machine="laptop",
        noise="bursty",
        description="Small single-socket machine under cron-style burst daemons",
    ),
    Scenario(
        name="fatnode-default",
        machine="fatnode",
        description="128-core fat node (wide-team regime)",
    ),
    Scenario(
        name="cloudvm-default",
        machine="cloudvm",
        description="Noisy oversubscribed cloud VM: steal ticks, heavy tails "
        "and storms",
    ),
)

for _scenario in _BUILTIN_SCENARIOS:
    register_scenario(_scenario)
del _scenario
