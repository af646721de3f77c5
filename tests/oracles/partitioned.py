"""Event-driven MPI-4.0 partitioned requests on the discrete-event kernel.

The sender's ``pready(i)`` is one NIC submit at the engine's current time,
and the receiver sees partition ``i`` arrive when the engine reaches its
delivery time.  The program evaluates the same transfer in closed form
(:func:`repro.mpi.partitioned.partitioned_completion_times`); the tests
check that the two agree partition by partition.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.mpi.network import NetworkModel, NICModel
from repro.mpi.partitioned import PartitionRecord

from oracles.engine import SimEvent, SimulationEngine


class PartitionedRecvRequest:
    """Receiver side (``MPI_Precv_init``): ``arrived[i]`` triggers with the
    arrival time of partition ``i``, ``all_arrived`` with the last one's."""

    def __init__(self, n_partitions: int) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        self.arrival_times: Dict[int, float] = {}
        self.arrived: List[SimEvent] = [SimEvent(f"parrived[{i}]") for i in range(n_partitions)]
        self.all_arrived = SimEvent("precv.all_arrived")

    def parrived(self, partition: int) -> bool:
        """Non-blocking test: has ``partition`` arrived?"""
        return partition in self.arrival_times

    def _arrive(self, partition: int, now: float) -> None:
        self.arrival_times[partition] = now
        self.arrived[partition].trigger(now, time=now)
        if len(self.arrival_times) == len(self.arrived):
            self.all_arrived.trigger(now, time=now)


class PartitionedSendRequest:
    """Sender side (``MPI_Psend_init``) of a message of
    ``len(partition_bytes)`` partitions to ``receiver``, ``hops`` away."""

    def __init__(
        self,
        engine: SimulationEngine,
        network: NetworkModel,
        partition_bytes: Sequence[int],
        receiver: PartitionedRecvRequest,
        *,
        hops: int = 1,
    ) -> None:
        if len(partition_bytes) != len(receiver.arrived):
            raise ValueError("sender and receiver must have the same partitions")
        self.engine = engine
        self.partition_bytes = [int(nbytes) for nbytes in partition_bytes]
        self.receiver = receiver
        self.nic = NICModel(network, hops=hops)
        self.records: Dict[int, PartitionRecord] = {}

    def pready(self, partition: int) -> PartitionRecord:
        """Mark ``partition`` ready now and schedule its arrival."""
        if not 0 <= partition < len(self.partition_bytes):
            raise IndexError(f"partition {partition} out of range")
        if partition in self.records:
            raise RuntimeError(f"partition {partition} marked ready twice")
        now = self.engine.now
        nbytes = self.partition_bytes[partition]
        sent = self.nic.submit(nbytes, now, label=f"part{partition}")
        record = PartitionRecord(
            index=partition,
            nbytes=nbytes,
            ready_time=now,
            injection_start=sent.start_time,
            injection_done=sent.injection_done,
            delivery_time=sent.delivery_time,
        )
        self.records[partition] = record
        self.engine.schedule(
            max(record.delivery_time - now, 0.0),
            lambda: self.receiver._arrive(partition, self.engine.now),
        )
        return record

    def completion_time(self) -> float:
        """Delivery time of the last partition (once all are ready)."""
        if len(self.records) < len(self.partition_bytes):
            raise RuntimeError("not all partitions have been marked ready")
        return max(record.delivery_time for record in self.records.values())
