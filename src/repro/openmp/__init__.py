"""Simulated OpenMP runtime.

Reproduces the execution structure the paper instruments (Listing 1): a
``parallel`` region containing a barrier, a timestamp, a ``for nowait`` loop
and a closing timestamp/barrier.  The pieces:

* :class:`~repro.openmp.schedule.StaticSchedule` /
  :class:`~repro.openmp.schedule.DynamicSchedule` /
  :class:`~repro.openmp.schedule.GuidedSchedule` — loop iteration-to-thread
  assignment policies (OpenMP ``schedule(...)`` clauses), each with two
  folds: ``simulate`` for one loop instance (the per-iteration oracle) and
  ``simulate_campaign`` for a whole campaign's cost tensor.
* :class:`~repro.openmp.barrier.Barrier` — a reusable barrier on the
  discrete-event engine.
* :class:`~repro.openmp.team.ThreadTeam` — the thread pool of one process,
  pinned to cores.
* :class:`~repro.openmp.runtime.OpenMPRuntime` — executes instrumented
  ``parallel for nowait`` regions, either on the event engine (detailed path)
  or through the closed-form scheduler simulation (fast path); both paths use
  the same cost/noise models.
"""

from repro.openmp.barrier import Barrier
from repro.openmp.forloop import LoopExecution, ThreadExecution
from repro.openmp.runtime import OpenMPRuntime, RegionTiming
from repro.openmp.schedule import (
    DynamicSchedule,
    GuidedSchedule,
    LoopSchedule,
    StaticSchedule,
    schedule_from_name,
)
from repro.openmp.team import ThreadTeam

__all__ = [
    "Barrier",
    "ThreadTeam",
    "OpenMPRuntime",
    "RegionTiming",
    "LoopExecution",
    "ThreadExecution",
    "LoopSchedule",
    "StaticSchedule",
    "DynamicSchedule",
    "GuidedSchedule",
    "schedule_from_name",
]
