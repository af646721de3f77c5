#!/usr/bin/env python3
"""Event-driven demo of early-bird partitioned communication between ranks.

Everything else in the package evaluates early-bird delivery in closed form;
this example runs the *mechanism* on the discrete-event engine, end to end:

* two simulated MPI ranks on the Manzano-like machine model,
* the sender's OpenMP team executes an instrumented compute region whose
  per-thread arrival times come from the MiniQMC work model,
* each thread calls ``Pready`` on its partition the moment it finishes,
* the receiver observes ``Parrived`` events and reports when the first and
  last partitions landed, compared against a bulk send issued after the last
  thread.

Run with::

    python examples/partitioned_communication_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.apps.miniqmc import MiniQMCApp
from repro.cluster.config import manzano
from repro.mpi.network import omni_path
from repro.mpi.partitioned import PartitionedRecvRequest, PartitionedSendRequest
from repro.openmp.barrier import Barrier
from repro.sim.engine import SimulationEngine
from repro.sim.events import Delay, WaitEvent
from repro.viz import ascii_table

N_THREADS = 16
BUFFER_BYTES = 16 * 1024 * 1024


def main() -> None:
    machine = manzano()
    network = omni_path()
    engine = SimulationEngine()

    # per-thread compute times for one MiniQMC-like iteration: a campaign of
    # one (trial, process) shard and one iteration
    app = MiniQMCApp()
    app.config.n_threads = N_THREADS
    rng = np.random.default_rng(7)
    compute_times = app.thread_compute_times_campaign(
        shards=[(0, 0)], n_iterations=1, rng=rng, noise=machine.build_noise_model(rng)
    )[0, 0]

    # partitioned request pair: one partition per thread
    receiver = PartitionedRecvRequest(engine, N_THREADS)
    sender = PartitionedSendRequest(
        engine,
        network,
        N_THREADS,
        BUFFER_BYTES // N_THREADS,
        hops=2,
        receiver=receiver,
    )
    sender.start()
    barrier = Barrier(engine, N_THREADS, name="region.entry")

    def worker(thread_id: int):
        yield from barrier.wait(thread_id)
        yield Delay(float(compute_times[thread_id]))
        sender.pready(thread_id)

    def observer():
        first = yield WaitEvent(receiver._events[int(np.argmin(compute_times))])
        print(f"[t={first * 1e3:8.3f} ms] first partition arrived at the receiver")
        completion = yield WaitEvent(receiver.all_arrived)
        print(f"[t={completion * 1e3:8.3f} ms] all partitions arrived (early-bird complete)")

    workers = [engine.spawn(worker(t), name=f"thread{t}") for t in range(N_THREADS)]
    engine.spawn(observer(), name="observer")
    engine.run_until_complete(workers)
    engine.run()

    earlybird_completion = receiver.all_arrived.trigger_time
    last_arrival = float(compute_times.max())
    bulk_completion = last_arrival + network.message_time(BUFFER_BYTES, hops=2)

    rows = [
        {
            "event": "last thread finishes compute",
            "time (ms)": last_arrival * 1e3,
        },
        {
            "event": "early-bird partitioned message fully delivered",
            "time (ms)": earlybird_completion * 1e3,
        },
        {
            "event": "bulk (BSP) message fully delivered",
            "time (ms)": bulk_completion * 1e3,
        },
    ]
    print()
    print(ascii_table(rows))
    gain_us = (bulk_completion - earlybird_completion) * 1e6
    print(
        f"\nearly-bird delivery completes {gain_us:.1f} µs earlier than the bulk "
        f"send for this {BUFFER_BYTES // (1024 * 1024)} MB message "
        f"({N_THREADS} partitions, Omni-Path-like fabric)."
    )


if __name__ == "__main__":
    main()
