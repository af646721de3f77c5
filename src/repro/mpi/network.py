"""LogGP-style network and NIC model.

The model distinguishes, per message:

* ``o_send`` / ``o_recv`` — CPU overhead of posting a send / completing a
  receive (per message, paid by the thread),
* ``L`` — base wire latency plus a per-hop component,
* ``G`` — inverse bandwidth (seconds per byte) on the injection link, which is
  the serialisation bottleneck shared by all partitions a process sends.

:func:`omni_path` provides an Intel Omni-Path-like preset (~100 Gb/s, ~1 µs
MPI latency), matching the paper's test platform; the absolute values only
need to be plausible because our claims are about *relative* strategy
behaviour (early-bird vs bulk), not absolute microseconds.

:class:`NICModel` captures the injection-serialisation behaviour the
early-bird analysis needs: transmissions requested at arbitrary times are
serviced FIFO at link rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point message timing parameters.

    Parameters
    ----------
    latency_s:
        Base end-to-end latency of a minimal message.
    per_hop_latency_s:
        Additional latency per switch hop.
    bandwidth_bytes_per_s:
        Link (injection) bandwidth.
    o_send_s / o_recv_s:
        Per-message CPU overheads.
    eager_threshold_bytes:
        Messages at or below this size use the eager protocol; larger ones pay
        an additional ``rendezvous_overhead_s`` handshake.
    rendezvous_overhead_s:
        Extra latency of the rendezvous handshake.
    """

    latency_s: float = 1.0e-6
    per_hop_latency_s: float = 100.0e-9
    bandwidth_bytes_per_s: float = 12.5e9
    o_send_s: float = 250.0e-9
    o_recv_s: float = 250.0e-9
    eager_threshold_bytes: int = 8192
    rendezvous_overhead_s: float = 2.0e-6

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        for name in ("latency_s", "per_hop_latency_s", "o_send_s", "o_recv_s",
                     "rendezvous_overhead_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    @property
    def gap_per_byte_s(self) -> float:
        """LogGP ``G``: seconds per byte on the injection link."""
        return 1.0 / self.bandwidth_bytes_per_s

    def wire_latency(self, hops: int = 1) -> float:
        """Latency component for a message crossing ``hops`` switch hops."""
        return self.latency_s + self.per_hop_latency_s * max(hops, 0)

    def serialization_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` onto the wire."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes * self.gap_per_byte_s

    def protocol_overhead(self, nbytes: int) -> float:
        """Eager vs rendezvous handshake cost."""
        return 0.0 if nbytes <= self.eager_threshold_bytes else self.rendezvous_overhead_s

    def message_time(self, nbytes: int, hops: int = 1) -> float:
        """End-to-end time of a single message posted on an idle NIC."""
        return (
            self.o_send_s
            + self.protocol_overhead(nbytes)
            + self.serialization_time(nbytes)
            + self.wire_latency(hops)
            + self.o_recv_s
        )


def omni_path() -> NetworkModel:
    """An Intel Omni-Path-like preset (100 Gb/s-class fabric, ~1 µs latency)."""
    return NetworkModel(
        latency_s=1.1e-6,
        per_hop_latency_s=100.0e-9,
        bandwidth_bytes_per_s=12.5e9,  # 100 Gb/s
        o_send_s=300.0e-9,
        o_recv_s=300.0e-9,
        eager_threshold_bytes=8192,
        rendezvous_overhead_s=2.0e-6,
    )


@dataclass
class NICTransmission:
    """One transmission serviced by the NIC."""

    label: str
    nbytes: int
    request_time: float
    start_time: float
    injection_done: float
    delivery_time: float


class NICModel:
    """FIFO injection queue of one process's NIC.

    Transmissions requested while an earlier transmission is still being
    injected queue up; each transmission's delivery time adds the wire latency
    after its injection completes.  This is the mechanism that makes
    "all threads `Pready` at once" behave like one big message, while spread
    out arrivals overlap injection with the laggards' compute.
    """

    def __init__(self, network: NetworkModel, hops: int = 1) -> None:
        self.network = network
        self.hops = hops
        self._free_at = 0.0
        self.log: List[NICTransmission] = []

    def reset(self) -> None:
        """Forget all queued work (new iteration)."""
        self._free_at = 0.0
        self.log.clear()

    @property
    def busy_until(self) -> float:
        """Time at which the injection link becomes idle."""
        return self._free_at

    def submit(self, nbytes: int, at_time: float, label: str = "msg") -> NICTransmission:
        """Request transmission of ``nbytes`` at ``at_time``; returns the record."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if at_time < 0:
            raise ValueError("at_time must be non-negative")
        post_done = at_time + self.network.o_send_s + self.network.protocol_overhead(nbytes)
        start = max(post_done, self._free_at)
        injection_done = start + self.network.serialization_time(nbytes)
        delivery = injection_done + self.network.wire_latency(self.hops) + self.network.o_recv_s
        self._free_at = injection_done
        record = NICTransmission(
            label=label,
            nbytes=nbytes,
            request_time=at_time,
            start_time=start,
            injection_done=injection_done,
            delivery_time=delivery,
        )
        self.log.append(record)
        return record

    def submit_many(
        self, sizes: Sequence[int], times: Sequence[float], labels: Optional[Sequence[str]] = None
    ) -> List[NICTransmission]:
        """Submit several transmissions, servicing them in request-time order."""
        if len(sizes) != len(times):
            raise ValueError("sizes and times must have the same length")
        order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
        records: List[Optional[NICTransmission]] = [None] * len(sizes)
        for idx in order:
            label = labels[idx] if labels is not None else f"msg{idx}"
            records[idx] = self.submit(int(sizes[idx]), float(times[idx]), label)
        return [rec for rec in records if rec is not None]
