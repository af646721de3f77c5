"""On-disk schema of timing datasets."""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Version stamp written into every saved dataset; bump on breaking changes.
DATASET_FORMAT_VERSION = 1

#: Columns every stored dataset must contain.
REQUIRED_COLUMNS = ("trial", "process", "iteration", "thread", "compute_time_s")

#: Optional raw-timestamp columns.
OPTIONAL_COLUMNS = ("start_ns", "end_ns")


def validate_columns(columns: Dict[str, np.ndarray]) -> None:
    """Raise ``ValueError`` if a column set does not satisfy the schema."""
    missing = set(REQUIRED_COLUMNS) - set(columns)
    if missing:
        raise ValueError(f"dataset is missing required columns: {sorted(missing)}")
    unknown = set(columns) - set(REQUIRED_COLUMNS) - set(OPTIONAL_COLUMNS)
    if unknown:
        raise ValueError(f"dataset contains unknown columns: {sorted(unknown)}")
    lengths = {name: len(values) for name, values in columns.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"dataset columns have mismatched lengths: {lengths}")
