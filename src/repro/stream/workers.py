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
from typing import List, Optional

from repro.db.log import UpdateRecord
from repro.core.invalidator.cascade import CascadeCounters, CascadeRun
from repro.core.invalidator.driver import InvalidationDriver, dedupe_records
from repro.stream.bus import EjectBus
from repro.stream.metrics import PipelineMetrics


@dataclass
class ShardBatch:
    """All changes to one relation from one tail batch, in LSN order."""

    table: str
    records: List[UpdateRecord]
    origin_ts: Optional[float] = None


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
        driver: InvalidationDriver,
        bus: EjectBus,
        metrics: PipelineMetrics,
        queue_capacity: int = 64,
    ) -> None:
        self.shard_id = shard_id
        self.driver = driver
        self.bus = bus
        self.metrics = metrics
        self.queue: "queue.Queue" = queue.Queue(maxsize=queue_capacity)
        # The predicate index is probed under the registry lock; polls
        # and fingerprint re-executions run under the database lock; the
        # version-key index and the conflict matrix lock internally (the
        # pump bumps counters and registration extends proofs while
        # workers read).
        self.cascade = driver.new_cascade(
            registry_lock=driver.registry_lock, db_lock=driver.db_lock
        )
        self.scheduler = self.cascade.scheduler
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
            self._process(item)

    def run_pending(self) -> int:
        """Process every queued batch in the caller's thread (the
        threadless pump); returns the records processed."""
        processed = 0
        while True:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                return processed
            if item is not self._SENTINEL:
                processed += len(item.records)
                self._process(item)

    def _process(self, batch: ShardBatch) -> None:
        try:
            self.process_batch(batch)
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
            self.driver.unwatch(urls)


class WorkerPool:
    """The fixed set of shard workers plus the routing function."""

    def __init__(
        self,
        num_shards: int,
        driver: InvalidationDriver,
        bus: EjectBus,
        metrics: PipelineMetrics,
        queue_capacity: int = 64,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self.workers = [
            InvalidationWorker(
                shard_id, driver, bus, metrics, queue_capacity=queue_capacity
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
