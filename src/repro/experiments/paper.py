"""The paper's reported values, for paper-vs-measured comparison.

Every number below is transcribed from the paper's §4 (Table 1 and the §4.2
prose).  They feed the comparison tables in EXPERIMENTS.md, the benchmark
assertions (which check *qualitative* agreement, not absolute equality) and
the example scripts' side-by-side printouts.
"""

from __future__ import annotations

from typing import Dict

#: Table 1 — percentage of process-iterations passing each normality test.
TABLE1_PASS_PERCENT: Dict[str, Dict[str, float]] = {
    "minife": {"dagostino": 3.0, "shapiro_wilk": 1.0, "anderson_darling": 1.0},
    "minimd": {"dagostino": 77.0, "shapiro_wilk": 74.0, "anderson_darling": 76.0},
    "miniqmc": {"dagostino": 95.0, "shapiro_wilk": 96.0, "anderson_darling": 96.0},
}

#: §4.2 scalar metrics per application.
SECTION4_METRICS: Dict[str, Dict[str, float]] = {
    "minife": {
        "mean_median_arrival_ms": 26.30,
        "mean_iqr_ms": 0.18,
        "max_iqr_ms": 4.24,
        "laggard_fraction": 0.224,
        "mean_reclaimable_ms": 42.82,
        "mean_idle_ratio": 0.1928,
    },
    "minimd": {
        "mean_median_arrival_ms": 24.74,
        "mean_iqr_ms": 0.15,       # post-warm-up section
        "max_iqr_ms": 7.43,        # post-warm-up section
        "warmup_mean_iqr_ms": 0.93,
        "warmup_max_iqr_ms": 1.45,
        "warmup_iterations": 19,
        "laggard_fraction": 0.048,
        "mean_reclaimable_ms": 17.61,
        "mean_idle_ratio": 0.5012,
    },
    "miniqmc": {
        "mean_median_arrival_ms": 60.91,
        "mean_iqr_ms": 9.05,
        "max_iqr_ms": 15.61,
        "laggard_fraction": float("nan"),  # not reported (wide, not laggard-driven)
        "mean_reclaimable_ms": 708.03,
        "mean_idle_ratio": 0.5033,
    },
}

#: §4.1 — application-level and application-iteration-level outcomes.
SECTION41_NORMALITY: Dict[str, Dict[str, object]] = {
    "minife": {
        "application_level_rejected": True,
        "application_iteration_passes_dagostino": 0,
    },
    "minimd": {
        "application_level_rejected": True,
        "application_iteration_passes_dagostino": 0,
    },
    "miniqmc": {
        "application_level_rejected": True,
        # eight application iterations failed to reject under D'Agostino only
        "application_iteration_passes_dagostino": 8,
    },
}

#: §3.1/§4.2 figure parameters (bin widths etc.), for the generators.
FIGURE_PARAMETERS: Dict[str, Dict[str, float]] = {
    "figure3": {"bin_width_s": 10.0e-6},
    "figure5": {"bin_width_s": 50.0e-6},
    "figure7a": {"bin_width_s": 50.0e-6},
    "figure7bc": {"bin_width_s": 10.0e-6},
    "figure9": {"bin_width_s": 1.0e-3},
}

#: Qualitative claims the benchmarks assert ("shape", not absolute values).
QUALITATIVE_CLAIMS = {
    "minife_mostly_nonnormal_process_iterations": "MiniFE passes < 10% of process-iterations",
    "minimd_mostly_normal_process_iterations": "MiniMD passes the majority of process-iterations",
    "miniqmc_mostly_normal_process_iterations": "MiniQMC passes ~95% of process-iterations",
    "minife_laggard_band": "MiniFE laggard fraction is an order ~20% (10-35%)",
    "minimd_laggard_band": "MiniMD post-warm-up laggard fraction is small (< 12%)",
    "miniqmc_widest_iqr": "MiniQMC has the widest IQR of the three applications",
    "minife_early_skew": "MiniFE early arrivals are more common than late arrivals",
    "minimd_two_phase": "MiniMD's first 19 iterations have a wider IQR than the rest",
    "application_level_rejected": "all applications reject normality at the application level",
    "reclaimable_ordering": "MiniQMC has the largest mean reclaimable time",
}


#: Everything above in one mapping (the import most consumers use).
PAPER_REFERENCE = {
    "table1_pass_percent": TABLE1_PASS_PERCENT,
    "section4_metrics": SECTION4_METRICS,
    "section41_normality": SECTION41_NORMALITY,
    "figure_parameters": FIGURE_PARAMETERS,
    "qualitative_claims": QUALITATIVE_CLAIMS,
}
