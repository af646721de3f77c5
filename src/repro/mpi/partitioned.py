"""MPI-4.0-style partitioned communication, in closed form.

Partitioned communication divides a single logical message into partitions
that can be marked ready (``MPI_Pready``) independently — in the early-bird
model, by the compute thread that produced that partition's data, as soon as
it finishes its share of the loop.

:func:`partitioned_completion_times` is the form the early-bird feasibility
analysis evaluates: given per-partition ready times and the NIC/network
model, it returns per-partition delivery times and the completion time of
the whole message.  (The test tree's ``event`` oracle replays the same
transfer as ``Pready`` events on its discrete-event kernel and checks the
two agree.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.mpi.network import NetworkModel, NICModel


@dataclass
class PartitionRecord:
    """Timing of a single partition's journey."""

    index: int
    nbytes: int
    ready_time: float
    injection_start: float
    injection_done: float
    delivery_time: float


@dataclass
class PartitionedTransfer:
    """Closed-form result of one partitioned message transfer."""

    partitions: List[PartitionRecord]
    total_bytes: int

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    @property
    def completion_time(self) -> float:
        """Delivery time of the last partition (message fully delivered)."""
        return max(p.delivery_time for p in self.partitions)

    def delivery_times(self) -> np.ndarray:
        return np.array([p.delivery_time for p in self.partitions])

    def ready_times(self) -> np.ndarray:
        return np.array([p.ready_time for p in self.partitions])


def partitioned_completion_times(
    ready_times: Sequence[float],
    partition_bytes: Sequence[int] | int,
    network: NetworkModel,
    *,
    hops: int = 1,
) -> PartitionedTransfer:
    """Closed-form partitioned transfer over a FIFO-injection NIC.

    Parameters
    ----------
    ready_times:
        Time at which each partition is marked ready (``Pready``), e.g. the
        per-thread arrival times from a timing dataset.
    partition_bytes:
        Size of each partition, or a scalar applied to all partitions.
    network:
        Timing parameters.
    hops:
        Network hops between sender and receiver.  Each partition is one
        :meth:`~repro.mpi.network.NICModel.submit` at its ready time, so
        each ``Pready`` costs the network's ``o_send_s``.

    Returns
    -------
    PartitionedTransfer
    """
    times = np.asarray(ready_times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("ready_times must be a non-empty 1-D sequence")
    if np.any(times < 0):
        raise ValueError("ready times must be non-negative")
    if np.isscalar(partition_bytes):
        sizes = np.full(times.size, int(partition_bytes), dtype=np.int64)
    else:
        sizes = np.asarray(partition_bytes, dtype=np.int64)
        if sizes.shape != times.shape:
            raise ValueError("partition_bytes must match ready_times in length")
    if np.any(sizes < 0):
        raise ValueError("partition sizes must be non-negative")

    sent = NICModel(network, hops=hops).submit_many(sizes, times)
    return PartitionedTransfer(
        partitions=[
            PartitionRecord(
                index=idx,
                nbytes=rec.nbytes,
                ready_time=rec.request_time,
                injection_start=rec.start_time,
                injection_done=rec.injection_done,
                delivery_time=rec.delivery_time,
            )
            for idx, rec in enumerate(sent)
        ],
        total_bytes=int(sizes.sum()),
    )

