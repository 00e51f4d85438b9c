"""Streaming invalidation pipeline (the real-time form of paper §4.2).

The paper requires the invalidator to "function in real time"; this
package turns the synchronous invalidation pass into a continuously
running pipeline:

* :mod:`tailer` — CDC consumption of the Δ⁺R/Δ⁻R update stream with
  bounded buffering and resumable offsets (the log reader both drivers
  share, from :mod:`repro.core.invalidator.driver`);
* :mod:`workers` — relation-sharded worker threads running the grouped
  independence analysis and budgeted polling per shard;
* :mod:`bus` — coalescing eject delivery with retry, backoff, per-cache
  circuit breaking, and a dead-letter queue;
* :mod:`metrics` — lag, queue depths, ejects/sec, poll-budget
  utilization, retry counts: the ``stats()`` snapshot;
* :mod:`pipeline` — the orchestrator wiring the above to a database,
  a QI/URL map, and a set of caches.
"""

from repro.stream.bus import CacheTarget, CircuitBreaker, DeadLetter, EjectBus
from repro.stream.metrics import PipelineMetrics
from repro.stream.pipeline import StreamingInvalidationPipeline
from repro.stream.tailer import LogTailer, TailBatch
from repro.stream.workers import (
    InvalidationWorker,
    ShardBatch,
    WorkerPool,
    shard_for,
)

__all__ = [
    "CacheTarget",
    "CircuitBreaker",
    "DeadLetter",
    "EjectBus",
    "InvalidationWorker",
    "LogTailer",
    "PipelineMetrics",
    "ShardBatch",
    "StreamingInvalidationPipeline",
    "TailBatch",
    "WorkerPool",
    "shard_for",
]
