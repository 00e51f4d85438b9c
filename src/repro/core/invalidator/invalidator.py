"""The invalidator orchestrator and the two baseline invalidators.

:class:`Invalidator` wires the paper's sub-modules into the cycle shown in
Figure 11: pull the update log into Δ tables, run the independence check
for every (live query instance, change) pair, schedule polling queries
within the budget, and send ``Cache-Control: eject`` messages for every
affected page.

:class:`TriggerInvalidator` and :class:`MatViewInvalidator` implement the
two alternatives the paper rejects (§4, first two paragraphs): DB triggers
firing synchronously inside each update, and materialized views with
change detection.  Both are functionally correct; the benchmarks show
their cost lands on the DBMS, which is the paper's argument.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set

from repro.db.engine import Database
from repro.db.log import ChangeKind, UpdateRecord
from repro.db.matview import MaterializedViewManager
from repro.web.cache import WebCache
from repro.core.qiurl import QIURLMap
from repro.core.invalidator.analysis import IndependenceChecker, VerdictKind
from repro.core.invalidator.cascade import CascadeCounters, CascadeRun, census
from repro.core.invalidator.driver import InvalidationDriver, dedupe_records
from repro.core.invalidator.generator import InvalidationMessageGenerator
from repro.core.invalidator.grouping import GroupedChecker
from repro.core.invalidator.policies import InvalidationPolicy
from repro.core.invalidator.registration import QueryTypeRegistry


@dataclass
class InvalidationReport(CascadeCounters):
    """Per-cycle outcome summary: the cascade's counters plus what only a
    synchronous cycle knows."""

    records_processed: int = 0
    duplicate_records_skipped: int = 0
    #: True when the update log was truncated past the cursor: the cycle
    #: could not know what changed and flushed every watched page (the
    #: safety valve for an invalidator that fell behind a bounded log).
    updates_lost: bool = False
    urls_ejected: int = 0
    pages_removed: int = 0
    polling_work_units: int = 0
    #: Cycle-end observability: live instances whose type classified SAFE
    #: or VERSION_KEY, and the total lint findings across registered types.
    safe_instances: int = 0
    version_key_instances: int = 0
    lint_findings: int = 0


class Invalidator(InvalidationDriver):
    """The CachePortal invalidator (paper §4): the synchronous driver."""

    def __init__(
        self,
        database: Database,
        caches: Sequence[WebCache],
        qiurl_map: QIURLMap,
        policy: Optional[InvalidationPolicy] = None,
        polling_budget: Optional[int] = None,
        use_data_cache: bool = False,
        grouped_analysis: bool = True,
        predicate_index: bool = True,
        batch_polling: bool = True,
        servlet_deadline: Optional[Callable[[str], float]] = None,
        safety_enforcement: bool = True,
        version_keys: bool = True,
        conflict_matrix: bool = True,
    ) -> None:
        # Type-level grouped checking (§4.1.2): structural analysis done
        # once per query type, shared by all its instances and tiers.
        self.grouped_checker = GroupedChecker()
        super().__init__(
            database,
            qiurl_map,
            policy=policy,
            polling_budget=polling_budget,
            use_data_cache=use_data_cache,
            servlet_deadline=servlet_deadline,
            predicate_index=predicate_index,
            version_keys=version_keys,
            conflict_matrix=conflict_matrix,
            batch_polling=batch_polling,
            grouped_analysis=grouped_analysis,
            safety_enforcement=safety_enforcement,
        )
        self.cascade = self.new_cascade(grouped_checker=self.grouped_checker)
        self.scheduler = self.cascade.scheduler
        self.polling = self.cascade.polling
        self.batch_poller = self.cascade.batch_poller
        self.messages = InvalidationMessageGenerator(caches)
        self.cycles_run = 0
        self.last_report: Optional[InvalidationReport] = None

    @property
    def batch_polling(self) -> bool:
        return self.config.batch_polling

    def _deadline_for(self, instance) -> float:
        return self.cascade.deadline_for(instance)

    def servlet_cacheable(self, servlet) -> bool:
        """Feedback hook for the sniffer's request logger."""
        return self.policy_engine.servlet_cacheable(servlet.name)

    # -- the invalidation cycle ---------------------------------------------------------

    def run_cycle(self) -> InvalidationReport:
        """One full invalidation cycle (Figure 11, arrows (A)-(C))."""
        cycle_start = time.perf_counter()

        def elapsed_ms() -> float:
            """Time from the synchronization point to this invalidation —
            the per-type latency statistic of §4.1.1 (item 4)."""
            return 1000.0 * (time.perf_counter() - cycle_start)

        self.cycles_run += 1
        report = InvalidationReport()
        # A cycle reads every record since the previous one, and always
        # promotes the POLL_ONLY baseline (its records are fully processed).
        self._ingest(promote=True)
        batch = self.tailer.poll_to_head()
        if batch.lost:
            report.updates_lost = True
            self._eject(self.lose_updates(), report)
        elif batch.records:
            report.records_processed = len(batch)
            deltas = self._prelude(batch)
            run = CascadeRun(report, elapsed_ms)
            for table in deltas.tables():
                # §4.2.1: related updates are processed as a group —
                # identical change records (same kind, same tuple) yield
                # identical verdicts for every instance, so only the
                # first is checked.
                records, duplicates = dedupe_records(deltas.changes_for(table))
                report.duplicate_records_skipped += duplicates
                self.cascade.evaluate(run, table, records)
            self.cascade.finish(run)
            self._eject(run.urls, report)
            self.unwatch(run.urls)
            report.polling_work_units = self.polling.stats.total_work_units
            # Policy discovery runs at the end of each cycle (§4.1.4).
            self.policy_engine.discover(self.registry)
        for name, value in census(self.registry, self.safety).items():
            setattr(report, name, value)
        self.last_report = report
        return report

    def deliver(self, urls):
        return self.messages.invalidate(sorted(urls))

    def _eject(self, urls, report: InvalidationReport) -> None:
        outcomes = self.deliver(urls)
        report.urls_ejected = len(outcomes)
        report.pages_removed = sum(outcome.pages_removed for outcome in outcomes)


class TriggerInvalidator:
    """Baseline: invalidation via database triggers (§4, paragraph 1).

    A trigger per (table, change kind) runs the same independence check
    synchronously inside every DML statement.  Needed polling queries are
    issued inline against the DBMS — the database pays for everything,
    including keeping the table of cached pages.
    """

    def __init__(self, database: Database, caches: Sequence[WebCache]) -> None:
        self.database = database
        self.registry = QueryTypeRegistry()
        self.checker = IndependenceChecker()
        self.messages = InvalidationMessageGenerator(caches)
        self.pages_ejected = 0
        self.checks_performed = 0
        self.polls_issued = 0
        self.db_work_units = 0
        self._installed = False

    def watch(self, sql: str, url_key: str) -> None:
        """Declare that ``url_key`` depends on query instance ``sql``."""
        self.registry.observe_instance(sql, url_key)
        self._ensure_triggers()

    def _ensure_triggers(self) -> None:
        if self._installed:
            return
        for table in self.database.table_names():
            for kind in (ChangeKind.INSERT, ChangeKind.DELETE):
                self.database.triggers.register(
                    f"cacheportal-{table}-{kind.value}",
                    table,
                    kind,
                    self._on_change,
                )
        self._installed = True

    def _on_change(self, record: UpdateRecord) -> None:
        ejected: Set[str] = set()
        for instance in self.registry.instances_touching(record.table):
            self.checks_performed += 1
            verdict = self.checker.check(instance.statement, record)
            if verdict.kind is VerdictKind.UNAFFECTED:
                continue
            if verdict.kind is VerdictKind.NEEDS_POLLING:
                self.polls_issued += 1
                result = self.database.execute(verdict.polling_query)
                self.db_work_units += result.work_units
                if not (result.rows and result.rows[0][0]):
                    continue
            ejected.update(instance.urls)
        if ejected:
            outcomes = self.messages.invalidate(sorted(ejected))
            self.pages_ejected += sum(o.pages_removed for o in outcomes)
            for url in ejected:
                self.registry.drop_url(url)


class MatViewInvalidator:
    """Baseline: invalidation via materialized views (§4, paragraph 2).

    One materialized view per watched query instance; a change in the view
    contents ejects the dependent pages.  Expressive — the view *is* the
    query — but every base-table change recomputes every dependent view,
    inside the update path.
    """

    def __init__(self, database: Database, caches: Sequence[WebCache]) -> None:
        self.database = database
        self.views = MaterializedViewManager(database)
        self.messages = InvalidationMessageGenerator(caches)
        self._urls_by_view: Dict[str, Set[str]] = {}
        self._view_by_sql: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self.pages_ejected = 0
        self.views.on_view_change(self._on_view_change)

    def watch(self, sql: str, url_key: str) -> None:
        view_name = self._view_by_sql.get(sql)
        if view_name is None:
            view_name = f"cacheportal_view_{next(self._ids)}"
            self.views.define(view_name, sql)
            self._view_by_sql[sql] = view_name
            self._urls_by_view[view_name] = set()
        self._urls_by_view[view_name].add(url_key)

    @property
    def maintenance_work(self) -> int:
        """Total DB work spent keeping the views fresh."""
        return sum(
            self.views.get(name).maintenance_work for name in self.views.names()
        )

    def _on_view_change(self, view) -> None:
        urls = self._urls_by_view.get(view.name, set())
        if not urls:
            return
        outcomes = self.messages.invalidate(sorted(urls))
        self.pages_ejected += sum(o.pages_removed for o in outcomes)
        self._urls_by_view[view.name] = set()
