"""Persistent query/model store: learning results that outlive a process.

* :class:`~repro.store.query_store.QueryStore` -- durable sqlite-backed
  membership observations keyed by SUL fingerprint (WAL, append-only).
  When a spec carries a ``store`` section, the ``cache`` middleware layer
  seeds from it and appends the run's new observations back;
* :class:`~repro.store.model_store.ModelStore` -- versioned learned-model
  lineage in the same sqlite file;
* :func:`~repro.store.incremental.incremental_learn` -- re-learning that
  seeds from the lineage and reports drift (the ``repro ci`` engine).
"""

from .incremental import (
    MODE_COLD,
    MODE_RELEARNED,
    MODE_REVALIDATED,
    IncrementalResult,
    incremental_learn,
)
from .model_store import ModelRecord, ModelStore
from .query_store import (
    FingerprintStats,
    QueryStore,
    StoreError,
    decode_word,
    encode_word,
)

__all__ = [
    "MODE_COLD",
    "MODE_RELEARNED",
    "MODE_REVALIDATED",
    "FingerprintStats",
    "IncrementalResult",
    "ModelRecord",
    "ModelStore",
    "QueryStore",
    "StoreError",
    "decode_word",
    "encode_word",
    "incremental_learn",
]
