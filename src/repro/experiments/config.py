"""Campaign configurations.

The paper's experimental design (§3.2): ten trials per application, eight
processes per job, 48 threads per process (all hardware contexts of a node
pair), two hundred iterations, on the Manzano machine.
:meth:`CampaignConfig.paper_scale` reproduces that; smaller presets exist for
tests, examples and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cluster.config import MachineConfig, manzano


@dataclass
class CampaignConfig:
    """Parameters of one measurement campaign (one application)."""

    application: str = "minife"
    trials: int = 10
    processes: int = 8
    iterations: int = 200
    threads: int = 48
    seed: int = 20230421  # arXiv submission date of the paper
    machine: MachineConfig = field(default_factory=manzano)
    #: execution backend name, resolved against the backend registry
    #: (:func:`repro.experiments.backends.available_backends`); the built-in
    #: is ``"campaign"`` (the production kernel)
    backend: str = "campaign"
    #: worker-pool size for parallel sharded execution (1 = serial); results
    #: are bit-identical at any worker count
    max_workers: int = 1
    #: optional OpenMP schedule clause (``"static"``, ``"dynamic,4"``,
    #: ``"guided"``) overriding the application's default loop schedule
    schedule: Optional[str] = None
    #: optional scenario label this config was derived from (reports/metadata
    #: only — it never affects the sampled data or the result cache key)
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if min(self.trials, self.processes, self.iterations, self.threads) < 1:
            raise ValueError("trials, processes, iterations and threads must be >= 1")
        if isinstance(self.max_workers, bool) or not isinstance(self.max_workers, int):
            raise TypeError(
                f"max_workers must be an integer >= 1, got "
                f"{self.max_workers!r} ({type(self.max_workers).__name__})"
            )
        if self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1 (1 = serial execution), got "
                f"{self.max_workers}"
            )
        if self.schedule is not None:
            # validate eagerly so a bad clause fails at construction with the
            # schedule parser's error, not deep inside a worker process
            from repro.openmp.schedule import schedule_from_name

            schedule_from_name(self.schedule)
        # imported lazily: backends depends on the apps/core stack, which in
        # turn constructs configs — the registry is only needed at validation
        from repro.experiments.backends import get_backend

        # get_backend normalises (case/whitespace) and raises a ValueError
        # listing the registered names for unknown backends
        self.backend = get_backend(self.backend).name
        needed_nodes = -(-self.processes * self.threads // self.machine.cores_per_node)
        if self.machine.n_nodes < needed_nodes:
            self.machine = replace(self.machine, n_nodes=needed_nodes)

    # ------------------------------------------------------------------
    @property
    def samples_per_application(self) -> int:
        """Total number of thread-timing samples the campaign produces."""
        return self.trials * self.processes * self.iterations * self.threads

    def for_application(self, application: str) -> "CampaignConfig":
        """Copy of this configuration targeting another application."""
        return replace(self, application=application)

    def parallel(self, max_workers: int) -> "CampaignConfig":
        """Copy of this configuration with a parallel worker-pool size."""
        return replace(self, max_workers=max_workers)

    def with_backend(self, backend: str) -> "CampaignConfig":
        """Copy of this configuration on another registered backend."""
        return replace(self, backend=backend)

    def with_schedule(self, schedule: Optional[str]) -> "CampaignConfig":
        """Copy of this configuration under another OpenMP loop schedule."""
        return replace(self, schedule=schedule)

    def scaled(self, *, trials: Optional[int] = None, processes: Optional[int] = None,
               iterations: Optional[int] = None, threads: Optional[int] = None) -> "CampaignConfig":
        """Copy with some dimensions overridden."""
        return replace(
            self,
            trials=trials if trials is not None else self.trials,
            processes=processes if processes is not None else self.processes,
            iterations=iterations if iterations is not None else self.iterations,
            threads=threads if threads is not None else self.threads,
        )

    # ------------------------------------------------------------------
    @classmethod
    def paper_scale(cls, application: str = "minife", seed: int = 20230421) -> "CampaignConfig":
        """The paper's full §3.2 configuration (768 000 samples/application)."""
        return cls(application=application, trials=10, processes=8, iterations=200,
                   threads=48, seed=seed, machine=manzano())

    @classmethod
    def benchmark_scale(cls, application: str = "minife", seed: int = 20230421) -> "CampaignConfig":
        """Reduced configuration used by the pytest benchmarks.

        Keeps the full 48-thread teams and 200 iterations (the dimensions the
        figures depend on) but fewer trials/processes so a benchmark iteration
        stays in the seconds range.
        """
        return cls(application=application, trials=2, processes=2, iterations=200,
                   threads=48, seed=seed, machine=manzano())

    @classmethod
    def smoke(cls, application: str = "minife", seed: int = 7) -> "CampaignConfig":
        """Tiny configuration for unit/integration tests."""
        return cls(application=application, trials=1, processes=2, iterations=12,
                   threads=16, seed=seed, machine=manzano(n_nodes=1))
