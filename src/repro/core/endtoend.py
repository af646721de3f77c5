"""End-to-end application projection (the §5 "restructured application" question).

The paper measures *extant* fork/join idle time and argues that a restructured
application could convert it into communication/computation overlap.  This
module closes that loop quantitatively: given a measured timing dataset, a
per-iteration communication volume and a delivery strategy, it projects the
per-iteration critical path of a bulk-synchronous application

    iteration time = (last thread's arrival) + (communication exposed after it)

and compares strategies over the whole campaign.  The result is the projected
application-level speedup of adopting early-bird delivery — the number an
application developer would want before committing to the restructuring the
paper describes as "significant changes to the applications".

The projection is deliberately conservative: it charges the full compute
critical path (no fusion of fork/join loops) and only credits communication
that a strategy moves off the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.strategies import (
    BinnedStrategy,
    BulkStrategy,
    DeliveryStrategy,
    FineGrainedStrategy,
    TimeoutStrategy,
)
from repro.core.timing import TimingDataset
from repro.mpi.network import NetworkModel, omni_path


@dataclass(frozen=True)
class StrategyProjection:
    """Projected per-iteration and whole-run cost of one delivery strategy."""

    strategy: str
    mean_iteration_s: float
    total_time_s: float
    mean_exposed_comm_s: float
    mean_messages: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "strategy": self.strategy,
            "mean_iteration_ms": self.mean_iteration_s * 1e3,
            "total_time_s": self.total_time_s,
            "mean_exposed_comm_us": self.mean_exposed_comm_s * 1e6,
            "mean_messages": self.mean_messages,
        }


@dataclass
class EndToEndProjection:
    """Projections for several strategies over one application's dataset."""

    application: str
    buffer_bytes: int
    n_iterations_evaluated: int
    projections: Dict[str, StrategyProjection] = field(default_factory=dict)

    def speedup_over_bulk(self) -> Dict[str, float]:
        """Projected whole-application speedup of each strategy vs bulk."""
        if "bulk" not in self.projections:
            raise KeyError("projection does not include the bulk baseline")
        bulk_total = self.projections["bulk"].total_time_s
        return {
            name: bulk_total / projection.total_time_s
            for name, projection in self.projections.items()
        }

    def communication_reduction(self) -> Dict[str, float]:
        """Fraction of the bulk strategy's exposed communication eliminated."""
        bulk = self.projections["bulk"].mean_exposed_comm_s
        if bulk <= 0:
            return {name: 0.0 for name in self.projections}
        return {
            name: 1.0 - projection.mean_exposed_comm_s / bulk
            for name, projection in self.projections.items()
        }

    def best(self) -> StrategyProjection:
        return min(self.projections.values(), key=lambda p: p.total_time_s)

    def table_rows(self) -> list:
        """Rows for :func:`repro.viz.ascii.ascii_table` / CSV export."""
        speedups = self.speedup_over_bulk()
        rows = []
        for name, projection in self.projections.items():
            row = projection.as_dict()
            row["projected_speedup_vs_bulk"] = speedups[name]
            rows.append(row)
        return rows


class EndToEndModel:
    """Project whole-application behaviour from measured arrival vectors.

    Parameters
    ----------
    network:
        Network timing parameters (Omni-Path preset by default).
    buffer_bytes:
        Bytes each process communicates per iteration.
    hops:
        Network hops between communicating ranks.
    strategies:
        Delivery strategies to project; defaults to the §5 set
        (bulk, fine-grained, binned(8), 1 ms timeout).
    post_region_compute_s:
        Serial per-iteration work outside the timed region (integration
        bookkeeping, reductions, ...) added to every strategy identically.
    """

    def __init__(
        self,
        network: Optional[NetworkModel] = None,
        *,
        buffer_bytes: int = 8 * 1024 * 1024,
        hops: int = 2,
        strategies: Optional[Sequence[DeliveryStrategy]] = None,
        post_region_compute_s: float = 0.0,
    ) -> None:
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if post_region_compute_s < 0:
            raise ValueError("post_region_compute_s must be non-negative")
        self.network = network if network is not None else omni_path()
        self.buffer_bytes = int(buffer_bytes)
        self.hops = hops
        self.post_region_compute_s = post_region_compute_s
        self.strategies = (
            list(strategies)
            if strategies is not None
            else [
                BulkStrategy(),
                FineGrainedStrategy(),
                BinnedStrategy(8),
                TimeoutStrategy(1.0e-3),
            ]
        )
        if not any(s.name == "bulk" for s in self.strategies):
            self.strategies.insert(0, BulkStrategy())

    # ------------------------------------------------------------------
    def project_dataset(
        self, dataset: TimingDataset, *, max_iterations: int = 400
    ) -> EndToEndProjection:
        """Project every strategy over (a deterministic sample of) the dataset.

        Parameters
        ----------
        dataset:
            The application's measured timing dataset.
        max_iterations:
            Evaluate at most this many process-iterations (strided,
            deterministic) — enough for stable means without evaluating all
            16 000 paper-scale groups.
        """
        # the process-iteration groups in (trial, process, iteration) order
        groups = dataset.to_dense().reshape(-1, dataset.n_threads)
        stride = max(len(groups) // max_iterations, 1)
        arrivals_matrix = groups[::stride]
        n_evaluated = arrivals_matrix.shape[0]

        projection = EndToEndProjection(
            application=dataset.application,
            buffer_bytes=self.buffer_bytes,
            n_iterations_evaluated=n_evaluated,
        )
        for strategy in self.strategies:
            iteration_times = np.empty(n_evaluated)
            exposed = np.empty(n_evaluated)
            messages = np.empty(n_evaluated)
            for idx in range(n_evaluated):
                arrivals = arrivals_matrix[idx]
                outcome = strategy.evaluate(
                    arrivals,
                    buffer_bytes=self.buffer_bytes,
                    network=self.network,
                    hops=self.hops,
                )
                compute_cp = float(arrivals.max())
                iteration_times[idx] = (
                    compute_cp
                    + outcome.exposed_after_compute_s
                    + self.post_region_compute_s
                )
                exposed[idx] = outcome.exposed_after_compute_s
                messages[idx] = outcome.n_messages
            projection.projections[strategy.name] = StrategyProjection(
                strategy=strategy.name,
                mean_iteration_s=float(iteration_times.mean()),
                total_time_s=float(iteration_times.sum()) * stride,
                mean_exposed_comm_s=float(exposed.mean()),
                mean_messages=float(messages.mean()),
            )
        return projection

    # ------------------------------------------------------------------
    def project_applications(
        self, datasets: Dict[str, TimingDataset], *, max_iterations: int = 200
    ) -> Dict[str, EndToEndProjection]:
        """Project all strategies for several applications."""
        return {
            name: self.project_dataset(dataset, max_iterations=max_iterations)
            for name, dataset in datasets.items()
        }
