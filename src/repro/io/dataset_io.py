"""Save / load / export timing datasets.

The user-facing dataset export (the CLI's ``--save-datasets``): a single
compressed ``.npz`` holding the columns plus a JSON-encoded metadata
string, so a full paper-scale campaign (768 000 rows per application)
stays a few megabytes and round-trips exactly, and a CSV export.  The
campaign cache does not use this format — it keeps campaigns as
:class:`~repro.io.shard_store.ShardStore` directories.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.timing import TimingDataset
from repro.io.schema import DATASET_FORMAT_VERSION, validate_columns

PathLike = Union[str, Path]


def save_dataset(dataset: TimingDataset, path: PathLike) -> Path:
    """Write ``dataset`` to ``path`` (``.npz`` appended if absent).

    The write is atomic (temp file + :func:`os.replace`): a writer crashing
    mid-write leaves only a ``*.tmp-<pid>`` sibling, never a truncated
    archive at ``path``.
    """
    target = Path(path)
    if target.suffix != ".npz":
        target = target.with_suffix(".npz")
    target.parent.mkdir(parents=True, exist_ok=True)
    columns = {name: dataset.column(name) for name in dataset.columns}
    validate_columns(columns)
    payload = dict(columns)
    payload["__metadata__"] = np.array(
        json.dumps(
            {"format_version": DATASET_FORMAT_VERSION, "metadata": dataset.metadata}
        )
    )
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    try:
        # savez_compressed on a file *object*: passing the tmp path would
        # make numpy append another .npz suffix
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **payload)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def load_dataset(path: PathLike) -> TimingDataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(source)
    with np.load(source, allow_pickle=False) as archive:
        names = [name for name in archive.files if name != "__metadata__"]
        columns = {name: archive[name] for name in names}
        metadata = {}
        if "__metadata__" in archive.files:
            decoded = json.loads(str(archive["__metadata__"]))
            version = decoded.get("format_version")
            if version != DATASET_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported dataset format version {version!r} "
                    f"(expected {DATASET_FORMAT_VERSION})"
                )
            metadata = decoded.get("metadata", {})
    validate_columns(columns)
    return TimingDataset(columns, metadata)


def dataset_to_csv(dataset: TimingDataset, path: PathLike, *, unit: str = "ms") -> Path:
    """Export a dataset to CSV (one row per thread sample).

    Parameters
    ----------
    dataset:
        The dataset to export.
    path:
        Output file.
    unit:
        Unit of the exported compute-time column (``"ms"``, ``"us"`` or ``"s"``).
    """
    scale = {"s": 1.0, "ms": 1.0e3, "us": 1.0e6}.get(unit)
    if scale is None:
        raise ValueError(f"unsupported unit {unit!r}")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    header = f"trial,process,iteration,thread,compute_time_{unit}"
    rows = np.column_stack(
        [
            dataset.column("trial"),
            dataset.column("process"),
            dataset.column("iteration"),
            dataset.column("thread"),
            dataset.compute_times_s * scale,
        ]
    )
    np.savetxt(
        target,
        rows,
        delimiter=",",
        header=header,
        comments="",
        fmt=["%d", "%d", "%d", "%d", "%.6f"],
    )
    return target
