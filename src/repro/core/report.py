"""Per-application feasibility report.

The report collects every headline number the paper's §4/§5 narrative uses
for one application — median arrival, IQR, laggard fraction, reclaimable
time, idle ratio, Table-1 pass rates, and the early-bird model's predicted
gain — plus the resulting qualitative recommendation (the §5 discussion gives
one per application).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.stats.battery import TEST_LABELS, TEST_NAMES


@dataclass
class FeasibilityReport:
    """Everything the paper reports about one application, in one object."""

    application: str
    n_samples: int
    n_trials: int
    n_processes: int
    n_iterations: int
    n_threads: int

    # §4.2 arrival-shape metrics
    mean_median_arrival_ms: float
    mean_iqr_ms: float
    max_iqr_ms: float
    skew_direction: str

    # laggard metrics
    laggard_fraction: float
    laggard_threshold_ms: float
    class_fractions: Dict[str, float]

    # reclaimable time metrics
    mean_reclaimable_ms: float
    mean_idle_ratio: float

    # §4.1 normality metrics
    application_level_rejected: bool
    process_iteration_pass_rates: Dict[str, float]

    # early-bird model outputs
    earlybird_mean_improvement_us: float = 0.0
    earlybird_mean_speedup: float = 1.0
    earlybird_buffer_bytes: int = 0

    # free-form extras (two-phase split for MiniMD, exemplar keys, ...)
    extras: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def recommendation(self) -> str:
        """Qualitative §5-style verdict derived from the measured shape."""
        wide = self.mean_iqr_ms > 2.0
        frequent_laggards = self.laggard_fraction > 0.15
        rare_but_large_laggards = 0.0 < self.laggard_fraction <= 0.15
        if wide:
            return (
                "wide arrival distribution: both binned aggregation and "
                "fine-grained early-bird transmission are expected to pay off"
            )
        if frequent_laggards:
            return (
                "tight distribution with frequent laggards: a timeout-based "
                "flush of ready partitions can reclaim the idle time"
            )
        if rare_but_large_laggards:
            return (
                "tight distribution with rare, high-magnitude laggards: "
                "early-bird gains are limited to few iterations and need a "
                "more sophisticated (adaptive) trigger"
            )
        return (
            "thread arrivals are nearly simultaneous: partitioned early-bird "
            "delivery is unlikely to beat a single bulk transmission"
        )

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary (JSON/CSV-friendly)."""
        payload: Dict[str, object] = {
            "application": self.application,
            "n_samples": self.n_samples,
            "n_trials": self.n_trials,
            "n_processes": self.n_processes,
            "n_iterations": self.n_iterations,
            "n_threads": self.n_threads,
            "mean_median_arrival_ms": self.mean_median_arrival_ms,
            "mean_iqr_ms": self.mean_iqr_ms,
            "max_iqr_ms": self.max_iqr_ms,
            "skew_direction": self.skew_direction,
            "laggard_fraction": self.laggard_fraction,
            "laggard_threshold_ms": self.laggard_threshold_ms,
            "mean_reclaimable_ms": self.mean_reclaimable_ms,
            "mean_idle_ratio": self.mean_idle_ratio,
            "application_level_rejected": self.application_level_rejected,
            "earlybird_mean_improvement_us": self.earlybird_mean_improvement_us,
            "earlybird_mean_speedup": self.earlybird_mean_speedup,
            "earlybird_buffer_bytes": self.earlybird_buffer_bytes,
            "recommendation": self.recommendation,
        }
        for name, rate in self.process_iteration_pass_rates.items():
            payload[f"pass_rate_{name}"] = rate
        for name, value in self.class_fractions.items():
            payload[f"class_{name}"] = value
        return payload

    def summary(self) -> str:
        """Readable multi-line report (what the examples print)."""
        lines = [
            f"== Early-bird feasibility report: {self.application} ==",
            f"  samples                : {self.n_samples} "
            f"({self.n_trials} trials x {self.n_processes} processes x "
            f"{self.n_iterations} iterations x {self.n_threads} threads)",
            f"  mean median arrival    : {self.mean_median_arrival_ms:8.2f} ms",
            f"  mean / max IQR         : {self.mean_iqr_ms:8.2f} / {self.max_iqr_ms:.2f} ms",
            f"  arrival skew           : {self.skew_direction}",
            f"  laggard iterations     : {100 * self.laggard_fraction:8.1f} % "
            f"(threshold {self.laggard_threshold_ms:.1f} ms)",
            f"  mean reclaimable time  : {self.mean_reclaimable_ms:8.2f} ms / iteration",
            f"  mean idle ratio        : {self.mean_idle_ratio:8.4f}",
            "  application-level normality: "
            + ("rejected" if self.application_level_rejected else "not rejected"),
            "  process-iteration normality pass rates:",
        ]
        for name in TEST_NAMES:
            if name in self.process_iteration_pass_rates:
                lines.append(
                    f"    {TEST_LABELS[name]:<17}: "
                    f"{100 * self.process_iteration_pass_rates[name]:6.2f} %"
                )
        if self.earlybird_buffer_bytes:
            lines.extend(
                [
                    f"  early-bird model ({self.earlybird_buffer_bytes / 1e6:.1f} MB buffer):",
                    f"    mean completion gain : {self.earlybird_mean_improvement_us:8.1f} us",
                    f"    mean speedup         : {self.earlybird_mean_speedup:8.3f} x",
                ]
            )
        lines.append(f"  recommendation         : {self.recommendation}")
        return "\n".join(lines)
