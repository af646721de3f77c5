"""The early-bird feasibility model (Figures 1 and 2, §2 and §5).

Given a per-thread arrival vector (one process-iteration of a timing dataset)
and a partitioned communication buffer, the model answers:

* What does classic bulk-synchronous delivery cost? (send the whole buffer
  after the *last* thread arrives — Figure 1's "before" case.)
* What does early-bird delivery cost? (each thread ``Pready``-s its partition
  at its own arrival — Figure 1's "after" case.)
* How much computation/communication overlap is available? (the "green
  boxes" of Figure 2 — per-thread idle windows between a thread's own arrival
  and the last thread's arrival.)

The network side uses :func:`repro.mpi.partitioned.partitioned_completion_times`
(a FIFO-injection NIC plus a LogGP-style wire model), so the answers account
for the fact that partitions marked ready at the same instant serialise on the
injection link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.mpi.network import NetworkModel, omni_path

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.mpi.partitioned import PartitionedTransfer


@dataclass(frozen=True)
class OverlapWindow:
    """One thread's potential overlap window (a green box in Figure 2)."""

    thread: int
    arrival_s: float
    window_s: float

    @property
    def end_s(self) -> float:
        return self.arrival_s + self.window_s


@dataclass
class EarlyBirdOutcome:
    """Result of evaluating one arrival vector against the model."""

    arrivals_s: np.ndarray
    bulk_completion_s: float
    earlybird_completion_s: float
    earlybird_transfer: PartitionedTransfer
    overlap_windows: List[OverlapWindow]
    buffer_bytes: int

    # ------------------------------------------------------------------
    @property
    def last_arrival_s(self) -> float:
        return float(self.arrivals_s.max())

    @property
    def improvement_s(self) -> float:
        """Absolute completion-time gain of early-bird over bulk."""
        return self.bulk_completion_s - self.earlybird_completion_s

    @property
    def speedup(self) -> float:
        """Bulk completion divided by early-bird completion."""
        if self.earlybird_completion_s <= 0:
            return 1.0
        return self.bulk_completion_s / self.earlybird_completion_s

    @property
    def post_compute_communication_s(self) -> float:
        """Communication time still exposed after the last thread arrives."""
        return max(self.earlybird_completion_s - self.last_arrival_s, 0.0)

    @property
    def potential_overlap_s(self) -> float:
        """Total idle time available for overlap (= reclaimable time)."""
        return float(sum(window.window_s for window in self.overlap_windows))

    @property
    def hidden_communication_s(self) -> float:
        """Communication hidden behind laggard compute by early-bird delivery."""
        bulk_exposed = self.bulk_completion_s - self.last_arrival_s
        return max(bulk_exposed - self.post_compute_communication_s, 0.0)

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of the bulk-exposed communication hidden by early-bird."""
        bulk_exposed = self.bulk_completion_s - self.last_arrival_s
        if bulk_exposed <= 0:
            return 0.0
        return self.hidden_communication_s / bulk_exposed

    def as_dict(self) -> Dict[str, float]:
        return {
            "last_arrival_ms": self.last_arrival_s * 1e3,
            "bulk_completion_ms": self.bulk_completion_s * 1e3,
            "earlybird_completion_ms": self.earlybird_completion_s * 1e3,
            "improvement_us": self.improvement_s * 1e6,
            "speedup": self.speedup,
            "potential_overlap_ms": self.potential_overlap_s * 1e3,
            "hidden_communication_us": self.hidden_communication_s * 1e6,
            "overlap_efficiency": self.overlap_efficiency,
            "buffer_bytes": float(self.buffer_bytes),
        }


class EarlyBirdModel:
    """Evaluate early-bird vs bulk delivery for measured arrival vectors.

    Parameters
    ----------
    network:
        Network timing parameters (defaults to the Omni-Path preset).
    buffer_bytes:
        Total bytes each process sends per iteration.  The default, 8 MiB,
        corresponds to e.g. a 200³/8-process MiniFE result vector of doubles;
        benchmarks sweep this value.
    hops:
        Network hops between the communicating ranks.
    """

    def __init__(
        self,
        network: Optional[NetworkModel] = None,
        *,
        buffer_bytes: int = 8 * 1024 * 1024,
        hops: int = 2,
    ) -> None:
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        self.network = network if network is not None else omni_path()
        self.buffer_bytes = int(buffer_bytes)
        self.hops = hops

    # ------------------------------------------------------------------
    def partition_sizes(self, n_partitions: int) -> np.ndarray:
        """Near-equal contiguous partition sizes in bytes (paper's §2 model)."""
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        base = self.buffer_bytes // n_partitions
        remainder = self.buffer_bytes % n_partitions
        sizes = np.full(n_partitions, base, dtype=np.int64)
        sizes[:remainder] += 1
        return sizes

    def overlap_windows(self, arrivals_s: Sequence[float]) -> List[OverlapWindow]:
        """Figure 2's per-thread potential-overlap windows."""
        arr = np.asarray(arrivals_s, dtype=np.float64)
        last = float(arr.max())
        return [
            OverlapWindow(thread=t, arrival_s=float(a), window_s=last - float(a))
            for t, a in enumerate(arr)
        ]

    def bulk_completion(self, arrivals_s: Sequence[float]) -> float:
        """Completion time of a single message sent after the last arrival."""
        arr = np.asarray(arrivals_s, dtype=np.float64)
        start = float(arr.max())
        return start + self.network.message_time(self.buffer_bytes, self.hops)

    def earlybird_transfer(self, arrivals_s: Sequence[float]) -> PartitionedTransfer:
        """Partitioned transfer with one partition per thread, ready at arrival."""
        # the event-level transfer model: campaign analyses replay it in
        # closed form (evaluate_groups) and never load it
        from repro.mpi.partitioned import partitioned_completion_times

        arr = np.asarray(arrivals_s, dtype=np.float64)
        sizes = self.partition_sizes(len(arr))
        return partitioned_completion_times(
            arr, sizes, self.network, hops=self.hops
        )

    def evaluate(self, arrivals_s: Sequence[float]) -> EarlyBirdOutcome:
        """Full evaluation of one process-iteration arrival vector."""
        arr = np.asarray(arrivals_s, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("arrivals_s must be a non-empty 1-D sequence")
        if np.any(arr < 0):
            raise ValueError("arrival times must be non-negative")
        transfer = self.earlybird_transfer(arr)
        return EarlyBirdOutcome(
            arrivals_s=arr,
            bulk_completion_s=self.bulk_completion(arr),
            earlybird_completion_s=transfer.completion_time,
            earlybird_transfer=transfer,
            overlap_windows=self.overlap_windows(arr),
            buffer_bytes=self.buffer_bytes,
        )

    # ------------------------------------------------------------------
    def evaluate_groups(self, groups: np.ndarray) -> Dict[str, np.ndarray]:
        """Vectorised summary over many process-iteration groups.

        Parameters
        ----------
        groups:
            Matrix ``(n_groups, n_threads)`` of arrival times in seconds.

        Returns
        -------
        dict of arrays
            ``improvement_s``, ``speedup``, ``hidden_s`` and
            ``potential_overlap_s`` per group.
        """
        matrix = np.asarray(groups, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("groups must be a 2-D matrix")
        n_groups, n_threads = matrix.shape
        if n_groups == 0:
            return {
                "improvement_s": np.empty(0),
                "speedup": np.empty(0),
                "hidden_s": np.empty(0),
                "potential_overlap_s": np.empty(0),
            }
        if n_threads == 0:
            raise ValueError("arrivals_s must be a non-empty 1-D sequence")
        if np.any(matrix < 0):
            raise ValueError("arrival times must be non-negative")

        network = self.network
        overhead = network.o_send_s
        wire = network.wire_latency(self.hops)
        sizes = self.partition_sizes(n_threads)
        proto = np.array([network.protocol_overhead(int(nb)) for nb in sizes])
        ser = sizes * network.gap_per_byte_s

        # Replay the FIFO-NIC injection recurrence for every group at once:
        # one step per sorted injection slot instead of one Python call per
        # group.  Each arithmetic op mirrors partitioned_completion_times
        # exactly (same association order), so the per-group results are
        # bit-identical to evaluate() row by row.
        order = np.argsort(matrix, axis=-1, kind="stable")
        sorted_times = np.take_along_axis(matrix, order, axis=-1)
        proto_sorted = proto[order]
        ser_sorted = ser[order]
        busy = np.zeros(n_groups)
        completion = np.full(n_groups, -np.inf)
        for k in range(n_threads):
            post_done = sorted_times[:, k] + overhead + proto_sorted[:, k]
            start = np.maximum(post_done, busy)
            injection_done = start + ser_sorted[:, k]
            delivery = injection_done + wire + network.o_recv_s
            busy = injection_done
            completion = np.maximum(completion, delivery)

        last = matrix.max(axis=-1)
        bulk = last + network.message_time(self.buffer_bytes, self.hops)
        safe = np.where(completion <= 0, 1.0, completion)
        speedup = np.where(completion <= 0, 1.0, bulk / safe)
        post_compute = np.maximum(completion - last, 0.0)
        hidden = np.maximum((bulk - last) - post_compute, 0.0)
        # potential_overlap_s is a sequential per-thread sum in evaluate();
        # keep the same accumulation order for bitwise equality
        potential = np.zeros(n_groups)
        for t in range(n_threads):
            potential = potential + (last - matrix[:, t])
        return {
            "improvement_s": bulk - completion,
            "speedup": speedup,
            "hidden_s": hidden,
            "potential_overlap_s": potential,
        }
