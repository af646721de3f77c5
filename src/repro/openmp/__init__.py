"""Simulated OpenMP loop scheduling.

The paper instruments a ``parallel`` region containing a barrier, a
timestamp, a ``for nowait`` loop and a closing timestamp/barrier (Listing 1).
What shapes the per-thread compute times of that loop is how its iterations
are assigned to threads:

* :class:`~repro.openmp.schedule.StaticSchedule` /
  :class:`~repro.openmp.schedule.DynamicSchedule` /
  :class:`~repro.openmp.schedule.GuidedSchedule` — loop iteration-to-thread
  assignment policies (OpenMP ``schedule(...)`` clauses), each with one
  fold, ``simulate_campaign``, of a whole campaign's cost tensor (one loop
  instance is a ``(1, 1, n_items)`` tensor).
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.openmp.schedule": (
        "DynamicSchedule",
        "GuidedSchedule",
        "LoopSchedule",
        "StaticSchedule",
        "schedule_from_name",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
