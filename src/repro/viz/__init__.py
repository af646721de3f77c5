"""Text-mode visualisation and CSV export of the paper's figures.

The offline environment has no plotting backend, so figures are rendered as
ASCII (for terminal inspection in the examples) and exported as CSV series
(for external plotting).
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.viz.ascii": ("ascii_histogram", "ascii_percentile_plot", "ascii_table"),
    "repro.viz.export": (
        "export_histogram_csv",
        "export_percentiles_csv",
        "export_rows_csv",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
