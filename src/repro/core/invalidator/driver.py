"""The invalidation driver core: update processing (paper §4.2.1), once.

The paper's invalidator has one update-processing step: pull the Δ⁺/Δ⁻
records from the update log, decide, and hand the ejects to the
invalidation message generator.  Two front ends drive it — the
synchronous :class:`~repro.core.invalidator.invalidator.Invalidator` (one
blocking cycle per synchronization point, ejects sent directly) and the
:class:`~repro.stream.pipeline.StreamingInvalidationPipeline` (per-shard
batches, ejects over the eject bus).  This module is everything else:

* **the log reader** — :class:`LogTailer` reads the log in bounded
  batches with a resumable LSN offset (the driver's processed-LSN
  watermark).  The pipeline polls one batch per pump; the synchronous
  cycle polls to the head, so it covers every record since the last;
* :class:`InvalidationDriver` — **the construction** of the registry,
  registration module, policy engine, information manager and cascade
  tiers; **the batch prelude** (version-key bump-before-check, then the
  §4.3 polling-result daemon hook); and **the update-loss valve**: a log
  truncated past the cursor surfaces as a *lost* batch, and every
  watched page is flushed.

Checkpoints of either driver go through one snapshot and one restore
body in :mod:`repro.core.recovery`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.db.engine import Database
from repro.db.log import DeltaTables, UpdateLog, UpdateRecord
from repro.core.qiurl import QIURLMap
from repro.core.invalidator.cascade import CascadeConfig, CascadeTiers, VerdictCascade
from repro.core.invalidator.infomgmt import InformationManager
from repro.core.invalidator.policies import InvalidationPolicy, PolicyEngine
from repro.core.invalidator.registration import (
    QueryTypeRegistry,
    RegistrationModule,
)


def dedupe_records(
    records: Sequence[UpdateRecord],
) -> Tuple[List[UpdateRecord], int]:
    """Collapse identical change records (§4.2.1 group processing).

    Records with the same kind, tuple, and columns yield identical
    verdicts for every query instance, so only the first needs checking.
    Returns the unique records (original order) and the duplicate count.
    Shared by the synchronous invalidator and the streaming shard workers.
    """
    unique: List[UpdateRecord] = []
    seen = set()
    duplicates = 0
    for record in records:
        key = (record.kind, record.values, record.columns)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        unique.append(record)
    return unique, duplicates


@dataclass
class TailBatch:
    """One bounded read of the update log."""

    records: List[UpdateRecord] = field(default_factory=list)
    #: True when the log was truncated past the cursor: the records that
    #: were lost are unknowable and the consumer must over-invalidate.
    lost: bool = False
    #: Inclusive LSN range ``(first, last)`` skipped when ``lost`` — the
    #: records the cursor jumped over while resynchronizing to the head.
    #: ``None`` when nothing is lost (or, defensively, when the resync
    #: moved the cursor forward without skipping any assigned LSN).
    lost_range: Optional[Tuple[int, int]] = None

    def __len__(self) -> int:
        return len(self.records)

    def is_empty(self) -> bool:
        return not self.records and not self.lost

    def deltas(self) -> DeltaTables:
        deltas = DeltaTables()
        for record in self.records:
            deltas.add(record)
        return deltas


class LogTailer:
    """Bounded, resumable reader of one :class:`UpdateLog`.

    Args:
        log: the update log to tail.
        batch_size: maximum records returned per :meth:`poll` — the
            buffering bound.
        start_lsn: resume offset; ``None`` starts at the current head
            (only new changes are seen, matching install-time semantics).
    """

    def __init__(
        self,
        log: UpdateLog,
        batch_size: int = 256,
        start_lsn: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.log = log
        self.batch_size = batch_size
        self._cursor = log.head_lsn - 1 if start_lsn is None else start_lsn
        self.records_read = 0
        self.batches_read = 0
        self.truncations = 0
        #: LSN range skipped by the most recent truncation resync, for
        #: the flush-all valve and the staleness auditor to report.
        self.last_lost_range: Optional[Tuple[int, int]] = None

    # -- offsets -------------------------------------------------------------

    @property
    def cursor(self) -> int:
        """LSN of the last record consumed (the resumable offset)."""
        return self._cursor

    def checkpoint(self) -> int:
        """Offset to persist; feed back as ``start_lsn`` to resume."""
        return self._cursor

    def seek(self, lsn: int) -> None:
        """Reposition the cursor (e.g. restoring a checkpoint)."""
        self._cursor = lsn

    @property
    def lag(self) -> int:
        """Records appended but not yet consumed (replication lag)."""
        return max(0, self.log.last_lsn - self._cursor)

    def at_head(self) -> bool:
        return self.lag == 0

    def truncated(self) -> bool:
        """True when records after the cursor were truncated away."""
        return self._cursor + 1 < self.log.oldest_lsn

    def resync(self) -> Optional[Tuple[int, int]]:
        """Jump the cursor over truncated records; returns (and keeps as
        :attr:`last_lost_range`) the LSN range skipped."""
        lost_from = self._cursor + 1
        # Resync to whichever is further: the newest record, or the
        # retention floor of an *empty* truncated log (e.g. one
        # fast-forwarded from a snapshot, where last_lsn lags
        # oldest_lsn and resyncing to it would raise forever).
        resync_to = max(self.log.last_lsn, self.log.oldest_lsn - 1)
        self._cursor = resync_to
        self.last_lost_range = (
            (lost_from, resync_to) if resync_to >= lost_from else None
        )
        return self.last_lost_range

    # -- consumption -------------------------------------------------------------

    def poll(self, max_records: Optional[int] = None) -> TailBatch:
        """Read the next bounded batch; advances the cursor past it.

        Returns an empty batch at head, and a ``lost`` batch when the log
        wrapped past the cursor (cursor resyncs to head so the next poll
        is clean).
        """
        limit = self.batch_size if max_records is None else min(
            self.batch_size, max_records
        )
        try:
            records = self.log.read_since(self._cursor, limit=limit)
        except ValueError:
            self.truncations += 1
            return TailBatch(lost=True, lost_range=self.resync())
        if records:
            self._cursor = records[-1].lsn
            self.records_read += len(records)
        self.batches_read += 1
        return TailBatch(records=list(records))

    def poll_to_head(self) -> TailBatch:
        """Poll until the head: one batch of every record since the
        cursor, or the lost batch of a truncation met on the way."""
        records: List[UpdateRecord] = []
        while True:
            batch = self.poll()
            if batch.lost:
                return batch
            records.extend(batch.records)
            if not batch.records or self.at_head():
                return TailBatch(records=records)


class InvalidationDriver:
    """Shared state and steps of an invalidation driver.

    Subclasses decide how batches run through the cascade and implement
    :meth:`deliver`.  The registry and database locks matter to the
    streaming workers; the synchronous cycle takes them only around its
    shared steps (uncontended), never inside the cascade.
    """

    def __init__(
        self,
        database: Database,
        qiurl_map: QIURLMap,
        *,
        policy: Optional[InvalidationPolicy] = None,
        polling_budget: Optional[int] = None,
        use_data_cache: bool = False,
        servlet_deadline: Optional[Callable[[str], float]] = None,
        batch_size: int = 256,
        start_lsn: Optional[int] = None,
        **tier_flags: bool,
    ) -> None:
        self.database = database
        self.qiurl_map = qiurl_map
        #: Which cascade tiers run: the drivers' A/B flags.
        self.config = CascadeConfig(**tier_flags)
        self.polling_budget = polling_budget
        self.servlet_deadline = servlet_deadline
        self.registry = QueryTypeRegistry()
        self.registration = RegistrationModule(self.registry)
        self.policy_engine = PolicyEngine(policy)
        self.infomgmt = InformationManager(
            database, self.policy_engine, use_data_cache=use_data_cache
        )
        self.registry_lock = threading.RLock()
        self.db_lock = threading.Lock()
        self.tailer = LogTailer(
            database.update_log, batch_size=batch_size, start_lsn=start_lsn
        )
        # New version-keyed instances are stamped with the tailer's
        # cursor: every record at or below it has already been observed.
        self.tiers = CascadeTiers.attach(
            self.config,
            self.registry,
            database,
            stamp_source=lambda: self.tailer.cursor,
        )
        self.safety = self.tiers.safety
        self.conflict_matrix = self.tiers.conflict_matrix
        self.pred_index = self.tiers.pred_index
        self.version_index = self.tiers.version_index

    def new_cascade(self, **options: Any) -> VerdictCascade:
        """A verdict cascade over this driver's registry, tiers and
        information manager; ``options`` pass locks or a grouped checker."""
        return VerdictCascade(
            self.config,
            self.registry,
            self.infomgmt,
            self.tiers,
            polling_budget=self.polling_budget,
            servlet_deadline=self.servlet_deadline,
            **options,
        )

    # -- registration entry points ---------------------------------------------

    def register_query_type(self, template_sql: str, name: Optional[str] = None):
        """Offline registration of a known query type (§4.1.1)."""
        with self.registry_lock:
            return self.registration.register_query_type(template_sql, name)

    def ingest_qiurl_rows(self) -> int:
        """Online discovery: pull new QI/URL rows into the registry (§4.1.2)."""
        with self.registry_lock:
            return self.registration.scan(self.qiurl_map.read_new())

    # -- the shared steps ---------------------------------------------------------

    def _ingest(self, promote: bool) -> None:
        """Before reading the log: register newly mapped pages and
        fingerprint new POLL_ONLY instances before any of their records
        is examined, promoting the previous baseline only when
        ``promote``."""
        self.ingest_qiurl_rows()
        with self.db_lock:
            self.safety.prepare_cycle(promote=promote)

    def _prelude(self, batch: TailBatch) -> DeltaTables:
        """Ready a batch for the cascade; returns its Δ tables."""
        deltas = batch.deltas()
        if self.version_index is not None:
            # Bump-before-check: counters reflect the whole batch before
            # any of its (instance, record) pairs is examined.
            self.version_index.observe(batch.records)
        # §4.3 daemon hook: polling results over changed tables are
        # stale before anything polls on this batch's behalf.
        with self.db_lock:
            self.infomgmt.on_cycle_deltas(set(deltas.tables()))
        return deltas

    def lose_updates(self) -> List[str]:
        """The update-loss valve: the log truncated past the cursor, so
        what changed is unknowable.  Returns every watched or mapped
        URL, already unwatched, for the driver to :meth:`deliver`."""
        if self.version_index is not None:
            # Bumps for the lost range never happened: stamps predating
            # the resynced cursor must never be vouched for again.
            self.version_index.note_truncation(self.tailer.cursor)
        with self.registry_lock:
            # Mapped pages not registered yet (a restored map's unread
            # tail) are watched too: their lost changes are unknowable.
            urls = sorted(set(self.registry.urls()).union(self.qiurl_map.urls()))
            self.unwatch(urls)
        with self.db_lock:
            # A cached polling result may predate a lost change.
            self.infomgmt.on_cycle_deltas(None)
        return urls

    def unwatch(self, urls: Iterable[str]) -> None:
        """Forget ejected pages: their QI/URL rows and registry entries."""
        with self.registry_lock:
            for url in urls:
                self.qiurl_map.drop_url(url)
                self.registry.drop_url(url)

    def deliver(self, urls: Sequence[str]) -> object:
        """Send ``Cache-Control: eject`` for ``urls`` to the caches."""
        raise NotImplementedError
