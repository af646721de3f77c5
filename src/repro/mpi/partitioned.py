"""MPI-4.0-style partitioned communication.

Partitioned communication divides a single logical message into partitions
that can be marked ready (``MPI_Pready``) independently — in the early-bird
model, by the compute thread that produced that partition's data, as soon as
it finishes its share of the loop.

Two forms are provided:

* :class:`PartitionedSendRequest` / :class:`PartitionedRecvRequest` — an
  event-driven persistent-request pair usable by ranks running on the
  discrete-event engine (``Psend_init`` → ``Pready(i)`` → partitions flow →
  receiver's ``Parrived(i)`` events trigger).
* :func:`partitioned_completion_times` — the closed-form variant used by the
  early-bird feasibility analysis: given per-partition ready times and the
  NIC/network model, return per-partition delivery times and the completion
  time of the whole message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.mpi.network import NetworkModel, NICModel
from repro.sim.engine import SimulationEngine
from repro.sim.events import SimEvent


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


# ----------------------------------------------------------------------
# event-driven persistent requests
# ----------------------------------------------------------------------
class PartitionedSendRequest:
    """Sender side of a partitioned persistent request (``MPI_Psend_init``).

    Parameters
    ----------
    engine:
        Discrete-event engine.
    network:
        Timing parameters.
    n_partitions:
        Number of partitions in the message.
    partition_bytes:
        Bytes per partition (scalar or per-partition sequence).
    hops:
        Hops to the destination rank.
    receiver:
        Optional :class:`PartitionedRecvRequest` to notify on delivery.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: NetworkModel,
        n_partitions: int,
        partition_bytes: Sequence[int] | int,
        *,
        hops: int = 1,
        receiver: Optional["PartitionedRecvRequest"] = None,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.engine = engine
        self.network = network
        self.n_partitions = n_partitions
        if np.isscalar(partition_bytes):
            self.partition_bytes = [int(partition_bytes)] * n_partitions
        else:
            self.partition_bytes = [int(b) for b in partition_bytes]
            if len(self.partition_bytes) != n_partitions:
                raise ValueError("partition_bytes length must equal n_partitions")
        self.nic = NICModel(network, hops=hops)
        self.receiver = receiver
        self._active = False
        self._ready: List[bool] = [False] * n_partitions
        self.records: Dict[int, PartitionRecord] = {}
        #: triggered when every partition of the current start has been delivered
        self.all_delivered: SimEvent = engine.event("psend.all_delivered")

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin a new transfer instance (``MPI_Start``)."""
        if self._active:
            raise RuntimeError("partitioned send already started")
        self._active = True
        self._ready = [False] * self.n_partitions
        self.records.clear()
        self.nic.reset()
        self.all_delivered = self.engine.event("psend.all_delivered")

    def pready(self, partition: int) -> PartitionRecord:
        """Mark ``partition`` ready now; schedules its transmission."""
        if not self._active:
            raise RuntimeError("Pready before Start")
        if not 0 <= partition < self.n_partitions:
            raise IndexError(f"partition {partition} out of range")
        if self._ready[partition]:
            raise RuntimeError(f"partition {partition} marked ready twice")
        self._ready[partition] = True
        now = self.engine.now
        nbytes = self.partition_bytes[partition]
        transmission = self.nic.submit(nbytes, now, label=f"part{partition}")
        record = PartitionRecord(
            index=partition,
            nbytes=nbytes,
            ready_time=now,
            injection_start=transmission.start_time,
            injection_done=transmission.injection_done,
            delivery_time=transmission.delivery_time,
        )
        self.records[partition] = record
        delay = max(record.delivery_time - now, 0.0)
        self.engine.schedule(delay, lambda: self._delivered(partition))
        return record

    def _delivered(self, partition: int) -> None:
        if self.receiver is not None:
            self.receiver._arrived(partition)
        if len(self.records) == self.n_partitions and all(self._ready):
            if all(
                rec.delivery_time <= self.engine.now + 1e-15
                for rec in self.records.values()
            ) and not self.all_delivered.triggered:
                self._active = False
                self.all_delivered.trigger(
                    self.completion_time(), time=self.engine.now
                )

    def completion_time(self) -> float:
        """Delivery time of the last partition (valid once all are ready)."""
        if len(self.records) < self.n_partitions:
            raise RuntimeError("not all partitions have been marked ready")
        return max(rec.delivery_time for rec in self.records.values())


class PartitionedRecvRequest:
    """Receiver side of a partitioned persistent request (``MPI_Precv_init``)."""

    def __init__(self, engine: SimulationEngine, n_partitions: int) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.engine = engine
        self.n_partitions = n_partitions
        self.arrival_times: Dict[int, float] = {}
        self._events: Dict[int, SimEvent] = {
            i: engine.event(f"parrived[{i}]") for i in range(n_partitions)
        }
        self.all_arrived: SimEvent = engine.event("precv.all_arrived")

    def _arrived(self, partition: int) -> None:
        if partition in self.arrival_times:
            return
        self.arrival_times[partition] = self.engine.now
        event = self._events[partition]
        if not event.triggered:
            event.trigger(self.engine.now, time=self.engine.now)
        if len(self.arrival_times) == self.n_partitions and not self.all_arrived.triggered:
            self.all_arrived.trigger(self.engine.now, time=self.engine.now)

    def parrived(self, partition: int) -> bool:
        """Non-blocking test: has ``partition`` arrived?"""
        if not 0 <= partition < self.n_partitions:
            raise IndexError(f"partition {partition} out of range")
        return partition in self.arrival_times

    def arrival_event(self, partition: int) -> SimEvent:
        """Event triggered when ``partition`` arrives (for ``yield WaitEvent``)."""
        return self._events[partition]
