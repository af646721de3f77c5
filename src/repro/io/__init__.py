"""Dataset and shard persistence.

The spillable memory-mapped :class:`~repro.io.shard_store.ShardStore` —
the one format of the campaign cache and the out-of-core campaigns — and
the size-bounded LRU :class:`~repro.io.cache_tier.CacheTier` managing the
shared cache directory.  :mod:`repro.io.dataset_io` is the user-facing
export: NumPy ``.npz`` + JSON metadata round-trips (written atomically)
and CSV.
"""

from repro.io.cache_tier import CacheTier
from repro.io.dataset_io import dataset_to_csv, load_dataset, save_dataset
from repro.io.schema import DATASET_FORMAT_VERSION, validate_columns
from repro.io.shard_store import (
    DEFAULT_SPILL_THRESHOLD_BYTES,
    ShardStore,
    publish_store,
)

__all__ = [
    "save_dataset",
    "load_dataset",
    "dataset_to_csv",
    "DATASET_FORMAT_VERSION",
    "validate_columns",
    "ShardStore",
    "publish_store",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
    "CacheTier",
]
