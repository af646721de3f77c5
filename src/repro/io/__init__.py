"""Dataset and shard persistence.

The spillable memory-mapped :class:`~repro.io.shard_store.ShardStore` —
the one format of the campaign cache and the out-of-core campaigns — and
the size-bounded LRU :class:`~repro.io.cache_tier.CacheTier` managing the
shared cache directory.  :mod:`repro.io.dataset_io` is the user-facing
export: NumPy ``.npz`` + JSON metadata round-trips (written atomically)
and CSV.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "repro.io.cache_tier": ("CacheTier",),
    "repro.io.dataset_io": ("dataset_to_csv", "load_dataset", "save_dataset"),
    "repro.io.schema": ("DATASET_FORMAT_VERSION", "validate_columns"),
    "repro.io.shard_store": (
        "DEFAULT_SPILL_THRESHOLD_BYTES",
        "ShardStore",
        "publish_store",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
