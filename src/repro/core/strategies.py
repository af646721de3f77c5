"""Early-bird delivery strategies (§5's discussion, ablation A1).

The paper's discussion outlines several ways an application could exploit the
measured idle time; this module makes them concrete so their completion times
can be compared on measured (or synthetic) arrival vectors:

* :class:`BulkStrategy` — the BSP baseline: one message after the last thread.
* :class:`FineGrainedStrategy` — one partition per thread, sent at that
  thread's arrival (the pure early-bird model of Figure 1).
* :class:`BinnedStrategy` — "a traditional binning model for aggregating
  data": partitions are flushed whenever ``bin_size`` of them are ready
  (amortises per-message overhead, adds waiting-for-the-bin latency).
* :class:`TimeoutStrategy` — "a system [that] periodically transmits all
  available unsent data with a timeout": flush every ``timeout_s`` after the
  first arrival (suits MiniFE's rare-laggard profile).

All strategies share one NIC/network model so the comparison isolates the
*scheduling* of the data, not the fabric.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.earlybird import EarlyBirdModel
from repro.mpi.network import NetworkModel, NICModel, omni_path


@dataclass(frozen=True)
class DeliveryOutcome:
    """Completion metrics of one strategy on one arrival vector."""

    strategy: str
    completion_s: float
    first_delivery_s: float
    n_messages: int
    bytes_sent: int
    exposed_after_compute_s: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "strategy": self.strategy,
            "completion_ms": self.completion_s * 1e3,
            "first_delivery_ms": self.first_delivery_s * 1e3,
            "n_messages": float(self.n_messages),
            "bytes_sent": float(self.bytes_sent),
            "exposed_after_compute_us": self.exposed_after_compute_s * 1e6,
        }


class DeliveryStrategy(ABC):
    """A policy mapping per-thread arrivals to network submissions."""

    name: str = "abstract"

    @abstractmethod
    def flush_plan(
        self, arrivals_s: np.ndarray, partition_bytes: np.ndarray
    ) -> List[Tuple[float, int]]:
        """Return the ``(submit_time, nbytes)`` messages the strategy produces."""

    # ------------------------------------------------------------------
    def evaluate(
        self,
        arrivals_s: Sequence[float],
        *,
        buffer_bytes: int,
        network: Optional[NetworkModel] = None,
        hops: int = 2,
    ) -> DeliveryOutcome:
        """Completion metrics of this strategy for one arrival vector."""
        arr = np.asarray(arrivals_s, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("arrivals_s must be a non-empty 1-D sequence")
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        net = network if network is not None else omni_path()
        sizes = EarlyBirdModel(net, buffer_bytes=buffer_bytes).partition_sizes(arr.size)
        plan = self.flush_plan(arr, sizes)
        if not plan:
            raise RuntimeError(f"strategy {self.name} produced no messages")
        total_planned = sum(nbytes for _, nbytes in plan)
        if total_planned != buffer_bytes:
            raise RuntimeError(
                f"strategy {self.name} planned {total_planned} bytes, "
                f"expected {buffer_bytes}"
            )
        nic = NICModel(net, hops=hops)
        records = nic.submit_many(
            [nbytes for _, nbytes in plan],
            [t for t, _ in plan],
            labels=[f"{self.name}-{i}" for i in range(len(plan))],
        )
        deliveries = [rec.delivery_time for rec in records]
        return DeliveryOutcome(
            strategy=self.name,
            completion_s=float(max(deliveries)),
            first_delivery_s=float(min(deliveries)),
            n_messages=len(plan),
            bytes_sent=total_planned,
            exposed_after_compute_s=max(float(max(deliveries)) - float(arr.max()), 0.0),
        )


class BulkStrategy(DeliveryStrategy):
    """Single message after the last thread arrives (the BSP baseline)."""

    name = "bulk"

    def flush_plan(
        self, arrivals_s: np.ndarray, partition_bytes: np.ndarray
    ) -> List[Tuple[float, int]]:
        return [(float(arrivals_s.max()), int(partition_bytes.sum()))]


class FineGrainedStrategy(DeliveryStrategy):
    """One partition per thread, submitted at that thread's arrival."""

    name = "fine_grained"

    def flush_plan(
        self, arrivals_s: np.ndarray, partition_bytes: np.ndarray
    ) -> List[Tuple[float, int]]:
        return [
            (float(t), int(b)) for t, b in zip(arrivals_s, partition_bytes)
        ]


class BinnedStrategy(DeliveryStrategy):
    """Flush whenever ``bin_size`` partitions have become ready.

    The final (possibly partial) bin is flushed at the last arrival.
    """

    def __init__(self, bin_size: int = 8) -> None:
        if bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        self.bin_size = bin_size
        self.name = f"binned({bin_size})"

    def flush_plan(
        self, arrivals_s: np.ndarray, partition_bytes: np.ndarray
    ) -> List[Tuple[float, int]]:
        order = np.argsort(arrivals_s, kind="stable")
        plan: List[Tuple[float, int]] = []
        pending_bytes = 0
        pending_count = 0
        for rank, idx in enumerate(order):
            pending_bytes += int(partition_bytes[idx])
            pending_count += 1
            is_last = rank == len(order) - 1
            if pending_count == self.bin_size or is_last:
                plan.append((float(arrivals_s[idx]), pending_bytes))
                pending_bytes = 0
                pending_count = 0
        return plan


class TimeoutStrategy(DeliveryStrategy):
    """Flush all ready-but-unsent partitions every ``timeout_s``.

    Flush clock starts at the first arrival; a final flush happens at the last
    arrival so the message always completes.
    """

    def __init__(self, timeout_s: float = 1.0e-3) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s
        self.name = f"timeout({timeout_s * 1e3:g}ms)"

    def flush_plan(
        self, arrivals_s: np.ndarray, partition_bytes: np.ndarray
    ) -> List[Tuple[float, int]]:
        order = np.argsort(arrivals_s, kind="stable")
        sorted_arrivals = arrivals_s[order]
        sorted_bytes = partition_bytes[order]
        first = float(sorted_arrivals[0])
        last = float(sorted_arrivals[-1])
        flush_times = [first]
        t = first
        while t < last:
            t += self.timeout_s
            flush_times.append(min(t, last))
        plan: List[Tuple[float, int]] = []
        cursor = 0
        for flush_time in flush_times:
            nbytes = 0
            while cursor < len(sorted_arrivals) and sorted_arrivals[cursor] <= flush_time + 1e-15:
                nbytes += int(sorted_bytes[cursor])
                cursor += 1
            if nbytes > 0:
                plan.append((flush_time, nbytes))
        if cursor < len(sorted_arrivals):  # pragma: no cover - defensive
            remaining = int(sorted_bytes[cursor:].sum())
            plan.append((last, remaining))
        return plan


@dataclass
class StrategyComparison:
    """Outcomes of several strategies on the same arrival vector(s)."""

    outcomes: Dict[str, DeliveryOutcome] = field(default_factory=dict)

    def best(self) -> DeliveryOutcome:
        """Strategy with the earliest completion."""
        return min(self.outcomes.values(), key=lambda o: o.completion_s)

    def speedup_over_bulk(self) -> Dict[str, float]:
        """Completion-time speed-up of every strategy relative to ``bulk``."""
        if "bulk" not in self.outcomes:
            raise KeyError("comparison does not include the bulk baseline")
        bulk = self.outcomes["bulk"].completion_s
        return {
            name: bulk / outcome.completion_s if outcome.completion_s > 0 else 1.0
            for name, outcome in self.outcomes.items()
        }


def compare_strategies(
    arrivals_s: Sequence[float],
    *,
    buffer_bytes: int,
    strategies: Optional[Sequence[DeliveryStrategy]] = None,
    network: Optional[NetworkModel] = None,
    hops: int = 2,
) -> StrategyComparison:
    """Evaluate a set of strategies on one arrival vector.

    Defaults to the four strategies discussed in §5: bulk, fine-grained,
    binned (bin of 8) and a 1 ms timeout.
    """
    if strategies is None:
        strategies = (
            BulkStrategy(),
            FineGrainedStrategy(),
            BinnedStrategy(8),
            TimeoutStrategy(1.0e-3),
        )
    comparison = StrategyComparison()
    for strategy in strategies:
        comparison.outcomes[strategy.name] = strategy.evaluate(
            arrivals_s, buffer_bytes=buffer_bytes, network=network, hops=hops
        )
    return comparison
