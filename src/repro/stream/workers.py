"""Sharded invalidation workers.

Each worker owns one shard of the relation space (``crc32(table) %
num_shards``) and a FIFO queue of :class:`ShardBatch` items, so all
changes to one relation are analyzed — and their ejects published — in
log order, while different relations proceed concurrently.

A worker runs the synchronous invalidator's code per batch: the
:class:`~repro.core.invalidator.cascade.VerdictCascade`, with its own
:class:`InvalidationScheduler` (one scheduler cycle per batch, so the
polling budget is enforced per shard per cycle exactly as §4.2.2
prescribes) and result-cached poll execution via the shared
:class:`InformationManager`.

Shared mutable state (the query registry, the QI/URL map, per-type
statistics) is guarded by one registry lock; the in-process database is
guarded by a database lock around polling queries.
"""

from __future__ import annotations

import queue
import threading
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.db.log import UpdateRecord
from repro.core.invalidator.cascade import (
    CascadeConfig,
    CascadeCounters,
    CascadeRun,
    CascadeTiers,
    VerdictCascade,
)
from repro.core.invalidator.updates import dedupe_records
from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics


@dataclass
class ShardBatch:
    """All changes to one relation from one tail batch, in LSN order."""

    table: str
    records: List[UpdateRecord]
    origin_ts: Optional[float] = None


@dataclass
class WorkerContext:
    """Everything the shard workers share (with its locks)."""

    database: object
    registry: object
    qiurl_map: object
    infomgmt: object
    registry_lock: threading.RLock
    db_lock: threading.Lock
    #: Which cascade tiers run (the A/B arms).
    config: CascadeConfig
    #: The shared registry-attached tiers.  The predicate index is probed
    #: under the registry lock; the safety enforcer's fingerprint polls
    #: re-execute SQL, so they run under ``db_lock``; the version-key
    #: index and the conflict matrix are internally locked (the pump
    #: bumps counters and registration extends proofs while workers read).
    tiers: CascadeTiers
    polling_budget: Optional[int] = None
    servlet_deadline: Optional[Callable[[str], float]] = None


def shard_for(table: str, num_shards: int) -> int:
    """Stable relation → shard assignment (crc32, not ``hash``: it must
    not vary across processes or interpreter runs)."""
    return zlib.crc32(table.lower().encode("utf-8")) % num_shards


class InvalidationWorker:
    """One shard: a queue, a thread, and a private analysis tool chain."""

    _SENTINEL = object()

    def __init__(
        self,
        shard_id: int,
        context: WorkerContext,
        bus: EjectBus,
        metrics: PipelineMetrics,
        queue_capacity: int = 64,
    ) -> None:
        self.shard_id = shard_id
        self.context = context
        self.bus = bus
        self.metrics = metrics
        self.queue: "queue.Queue" = queue.Queue(maxsize=queue_capacity)
        self.cascade = VerdictCascade(
            context.config,
            context.registry,
            context.infomgmt,
            context.tiers,
            polling_budget=context.polling_budget,
            servlet_deadline=context.servlet_deadline,
            registry_lock=context.registry_lock,
            db_lock=context.db_lock,
        )
        self.scheduler = self.cascade.scheduler
        self.polling = self.cascade.polling
        self.batch_poller = self.cascade.batch_poller
        self.batches_processed = 0
        self.records_processed = 0
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._running = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name=f"invalidation-worker-{self.shard_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        if not self._running:
            return
        self._running = False
        self.queue.put(self._SENTINEL)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def submit(self, batch: ShardBatch) -> None:
        """Enqueue one batch (blocks when the shard queue is full —
        backpressure onto the tailer pump)."""
        with self._inflight_lock:
            self._inflight += 1
        self.queue.put(batch)

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def depth(self) -> int:
        return self.queue.qsize()

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is self._SENTINEL:
                break
            try:
                self.process_batch(item)
            finally:
                with self._inflight_lock:
                    self._inflight -= 1

    # -- the per-batch invalidation cycle ------------------------------------------

    def process_batch(self, batch: ShardBatch) -> None:
        """Analyze one relation's changes and publish the resulting ejects.

        The streaming equivalent of one relation's slice of
        ``Invalidator.run_cycle``: dedupe, one cascade pass (its own
        scheduler cycle, so the polling budget holds per shard per batch),
        eject.
        """
        records, duplicates = dedupe_records(batch.records)
        self.batches_processed += 1
        self.records_processed += len(batch.records)
        run = CascadeRun(CascadeCounters())
        self.cascade.evaluate(run, batch.table, records)
        self.cascade.finish(run)
        self.metrics.add(
            batches_processed=1,
            records_processed=len(batch.records),
            duplicate_records_skipped=duplicates,
            **run.counters.counter_values(),
        )
        if run.urls:
            # Ejects in doom order: record-major evaluation publishes them
            # in log order, which makes the bus's FIFO delivery a
            # per-relation ordering guarantee end to end.
            urls = list(run.urls)
            self.bus.publish(urls, origin_ts=batch.origin_ts)
            with self.context.registry_lock:
                for url in urls:
                    self.context.qiurl_map.drop_url(url)
                    self.context.registry.drop_url(url)


class WorkerPool:
    """The fixed set of shard workers plus the routing function."""

    def __init__(
        self,
        num_shards: int,
        context: WorkerContext,
        bus: EjectBus,
        metrics: PipelineMetrics,
        queue_capacity: int = 64,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self.workers = [
            InvalidationWorker(
                shard_id, context, bus, metrics, queue_capacity=queue_capacity
            )
            for shard_id in range(num_shards)
        ]

    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def stop(self, timeout: float = 5.0) -> None:
        for worker in self.workers:
            worker.stop(timeout=timeout)

    def submit(self, batch: ShardBatch) -> int:
        shard = shard_for(batch.table, self.num_shards)
        self.workers[shard].submit(batch)
        return shard

    def idle(self) -> bool:
        return all(worker.inflight == 0 for worker in self.workers)

    def queue_depths(self) -> List[int]:
        return [worker.depth() for worker in self.workers]
