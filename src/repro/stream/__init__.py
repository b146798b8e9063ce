"""Online ingestion: delta feeds, warm-start fine-tuning, index hot-swap.

The offline pipeline trains on a frozen snapshot; this package closes
the loop for a *running* deployment:

* :mod:`~repro.stream.delta` — the :class:`DeltaBatch` JSONL schema and
  ``apply_delta``, growing a dataset with stable id remapping recorded
  in a :class:`GrowthPlan`;
* :mod:`~repro.stream.grow` — ``grow_state``, moving a
  :class:`~repro.core.checkpoint.TrainState` to the grown vocabulary
  (old rows and Adam moments bit-exact, new rows from seeded streams or
  neighbor means) plus ``warm_start``/``finetune``;
* :mod:`~repro.stream.updater` — the :class:`OnlineUpdater` driver and
  :class:`DeltaFeedWatcher`, turning a feed directory into fine-tuned,
  atomically hot-swapped serving indexes with delta-lag / fine-tune /
  swap-latency observability.

``tests/stream/test_updater.py`` exercises the whole loop: a cold item
arrives by delta file and is served over HTTP to a brand-new group
without restarting the server.
"""

from .delta import (
    DeltaBatch,
    DeltaError,
    GrowthPlan,
    apply_delta,
    read_delta_jsonl,
    write_delta_jsonl,
)
from .grow import finetune, grow_state, parameter_order, warm_start
from .updater import DeltaFeedWatcher, OnlineUpdater

__all__ = [
    "DeltaBatch",
    "DeltaError",
    "GrowthPlan",
    "apply_delta",
    "read_delta_jsonl",
    "write_delta_jsonl",
    "grow_state",
    "parameter_order",
    "warm_start",
    "finetune",
    "OnlineUpdater",
    "DeltaFeedWatcher",
]
