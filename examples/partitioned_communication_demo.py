#!/usr/bin/env python3
"""Early-bird partitioned communication between two ranks, partition by partition.

Figure 1 of the paper in numbers, for one message:

* the sender's OpenMP team executes one instrumented compute region whose
  per-thread arrival times come from the MiniQMC work model on the
  Manzano-like machine model,
* each thread calls ``Pready`` on its partition the moment it finishes, and
  the partitions queue on the sender's NIC (a FIFO injection link on an
  Omni-Path-like fabric),
* the report shows when the first and last partitions land at the receiver,
  compared against a bulk send issued after the last thread.

The early-bird model evaluates this transfer in closed form
(:meth:`repro.core.earlybird.EarlyBirdModel.evaluate`), the same path
Figure 1 and the campaign analyses use.

Run with::

    python examples/partitioned_communication_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.apps.miniqmc import MiniQMCApp
from repro.cluster.config import manzano
from repro.core.earlybird import EarlyBirdModel
from repro.mpi.network import omni_path
from repro.viz import ascii_table

N_THREADS = 16
BUFFER_BYTES = 16 * 1024 * 1024


def main() -> None:
    machine = manzano()

    # per-thread compute times for one MiniQMC-like iteration: a campaign of
    # one (trial, process) shard and one iteration
    app = MiniQMCApp()
    app.config.n_threads = N_THREADS
    rng = np.random.default_rng(7)
    compute_times = app.thread_compute_times_campaign(
        shards=[(0, 0)], n_iterations=1, rng=rng, noise=machine.build_noise_model(rng)
    )[0, 0]

    # one partition per thread, marked ready when its thread finishes
    model = EarlyBirdModel(omni_path(), buffer_bytes=BUFFER_BYTES, hops=2)
    outcome = model.evaluate(compute_times)
    delivered = outcome.earlybird_transfer.delivery_times()
    print(f"[t={delivered.min() * 1e3:8.3f} ms] first partition arrived at the receiver")
    print(
        f"[t={outcome.earlybird_completion_s * 1e3:8.3f} ms] "
        "all partitions arrived (early-bird complete)"
    )

    rows = [
        {
            "event": "last thread finishes compute",
            "time (ms)": outcome.last_arrival_s * 1e3,
        },
        {
            "event": "early-bird partitioned message fully delivered",
            "time (ms)": outcome.earlybird_completion_s * 1e3,
        },
        {
            "event": "bulk (BSP) message fully delivered",
            "time (ms)": outcome.bulk_completion_s * 1e3,
        },
    ]
    print()
    print(ascii_table(rows))
    print(
        f"\nearly-bird delivery completes {outcome.improvement_s * 1e6:.1f} µs earlier "
        f"than the bulk send for this {BUFFER_BYTES // (1024 * 1024)} MB message "
        f"({N_THREADS} partitions, Omni-Path-like fabric)."
    )


if __name__ == "__main__":
    main()
