"""Simulated MPI layer.

The paper's early-bird question is ultimately a communication question: given
the measured thread arrival times, how much sooner can message contents be
delivered if each thread initiates transmission of its own partition (MPI 4.0
partitioned communication) instead of waiting for the slowest thread (classic
bulk-synchronous send)?  Answering it quantitatively needs a model of the
transfer itself:

* :mod:`~repro.mpi.network` — a LogGP-style network/NIC model with an
  Omni-Path-like preset (the paper's interconnect).
* :mod:`~repro.mpi.partitioned` — MPI-4.0-style partitioned transfers
  (``Psend_init`` / ``Pready`` / ``Parrived``) in closed form: the
  per-partition delivery times the early-bird feasibility model evaluates.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.mpi.network": ("NetworkModel", "NICModel", "omni_path"),
    "repro.mpi.partitioned": (
        "PartitionedTransfer",
        "partitioned_completion_times",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
