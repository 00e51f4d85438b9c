"""The verdict cascade: one decision procedure for both invalidation drivers.

The synchronous :class:`~repro.core.invalidator.invalidator.Invalidator`
and the streaming shard workers decide the same question — which cached
instances does this batch of changed tuples affect? — with the same
tiers, cheapest first:

1. **predicate index** — one probe per changed tuple returns the only
   instances that can be affected; nothing else is materialized;
2. **safety enforcement** — POLL_ONLY / ALWAYS_EJECT types replace the
   precise check (the index keeps them as candidates for every tuple);
3. **static conflict matrix** — a registration-time DISJOINT proof
   answers the pair without probe or checker;
4. **version keys** — a quiet per-region counter proves a single-table
   pair UNAFFECTED in O(1);
5. **independence checker** — grouped (per-type analysis) or the
   per-instance oracle: UNAFFECTED, AFFECTED, or NEEDS_POLLING;
6. **budgeted polling** — one scheduler cycle; polls run set-oriented
   (one delta-join per polling-query type) or per instance, and what the
   budget cannot afford is over-invalidated.

Pairs the probe prunes are never visited.  They are charged in bulk, per
changed tuple, to the tier the ladder would have resolved them with had
they been materialized — static skip, else version key, else index
prune — from small exception sets the tiers keep current (the matrix's
per-class disjoint sets, the version index's refusals), so every counter
reads the same as a full scan while the work tracks the candidates.

:class:`CascadeConfig` holds the A/B arms (each tier can be switched off
to serve as the oracle for the tier above it); :class:`CascadeCounters`
is the one counter struct the drivers' reports are views over.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.db.log import UpdateRecord
from repro.sql.params import parameterize
from repro.core.invalidator.analysis import IndependenceChecker, Verdict, VerdictKind
from repro.core.invalidator.batchpoll import BatchPollExecutor, batch_key
from repro.core.invalidator.conflict import ConflictMatrix
from repro.core.invalidator.grouping import GroupedChecker
from repro.core.invalidator.predindex import PredicateIndex
from repro.core.invalidator.registration import QueryInstance, QueryType
from repro.core.invalidator.safety import SafetyEnforcer, SafetyVerdict
from repro.core.invalidator.scheduler import InvalidationScheduler, PollCandidate
from repro.core.invalidator.versionkey import VersionKeyIndex


@dataclass(frozen=True)
class CascadeConfig:
    """Which tiers the cascade runs.  Every tier defaults to on; turning
    one off is that tier's A/B control arm, with identical ejects."""

    #: Probe-first candidate selection; off scans every instance of the
    #: changed table.
    predicate_index: bool = True
    #: O(1) counter checks for single-table (VERSION_KEY) types.
    version_keys: bool = True
    #: Registration-time (template × update-class) disjointness proofs.
    conflict_matrix: bool = True
    #: One delta-join per polling-query type instead of one query per
    #: instance.
    batch_polling: bool = True
    #: Per-type structural analysis; off runs the per-instance checker.
    grouped_analysis: bool = True
    #: Lint-derived POLL_ONLY / ALWAYS_EJECT overrides (and the
    #: VERSION_KEY upgrade, which needs a trusted SAFE verdict).
    safety_enforcement: bool = True


@dataclass
class CascadeCounters:
    """Verdict and poll counters of one cycle or one pipeline.

    Every pair examined (``pairs_checked``) is resolved by exactly one
    tier: ``static_disjoint_skips``, ``polls_avoided`` (version key),
    ``pairs_pruned`` (index), ``poll_only_checks`` / ``fallback_ejects``
    (safety), or the checker (:attr:`checker_invocations`).
    """

    pairs_checked: int = 0
    #: Pairs visited one by one; the rest were charged in bulk.
    pairs_materialized: int = 0
    unaffected: int = 0
    affected: int = 0
    pairs_pruned: int = 0
    index_probes: int = 0
    probe_time_ms: float = 0.0
    polls_requested: int = 0
    polls_executed: int = 0
    polls_impacted: int = 0
    over_invalidated: int = 0
    scheduler_cycles: int = 0
    #: Budget slots offered (the requested polls when unbudgeted).
    poll_slots_offered: int = 0
    #: Set-oriented polling: delta-join queries issued, the instances
    #: folded into them, and demultiplexed ids that matched no pending
    #: instance (always 0 unless the engine misbehaves).
    batched_queries: int = 0
    batched_instances: int = 0
    demux_misses: int = 0
    #: Safety enforcement: pages ejected by the ALWAYS_EJECT fallback and
    #: fingerprint polls for POLL_ONLY pairs.
    fallback_ejects: int = 0
    poll_only_checks: int = 0
    #: Version keys: counter checks performed, and pairs the counter
    #: resolved without the precise checker.
    version_key_checks: int = 0
    polls_avoided: int = 0
    #: Static conflict analysis: pairs resolved by a DISJOINT proof, and
    #: the subset decided at template level (valid for every binding).
    static_disjoint_skips: int = 0
    template_pairs_pruned: int = 0

    @property
    def poll_round_trips_saved(self) -> int:
        """Per-instance round trips batching avoided."""
        return max(0, self.batched_instances - self.batched_queries)

    @property
    def checker_invocations(self) -> int:
        """Pairs that actually reached the independence checker."""
        return self.pairs_checked - (
            self.static_disjoint_skips
            + self.polls_avoided
            + self.pairs_pruned
            + self.poll_only_checks
            + self.fallback_ejects
        )

    def counter_values(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(CascadeCounters)}


@dataclass
class CascadeTiers:
    """The registry-attached tiers a cascade consults (None when off)."""

    safety: SafetyEnforcer
    conflict_matrix: Optional[ConflictMatrix] = None
    pred_index: Optional[PredicateIndex] = None
    version_index: Optional[VersionKeyIndex] = None

    @classmethod
    def attach(
        cls,
        config: CascadeConfig,
        registry,
        database,
        stamp_source: Callable[[], int],
    ) -> "CascadeTiers":
        """Build the tiers ``config`` enables and attach them to
        ``registry``.  The matrix attaches before the index so its
        listener sees each instance first (the index's classifier may ask
        it for whole-table drop proofs); ``stamp_source`` is the driver's
        update cursor, stamped onto new version-keyed instances."""
        safety = SafetyEnforcer(database, enabled=config.safety_enforcement)
        registry.add_listener(safety)
        tiers = cls(safety)
        if config.conflict_matrix:

            def columns_of(table: str) -> Optional[List[str]]:
                try:
                    return list(database.table_columns(table))
                except ReproError:
                    return None  # unknown table: the matrix refuses the drop

            tiers.conflict_matrix = ConflictMatrix(columns_of=columns_of).attach_to(
                registry
            )
        if config.predicate_index:
            tiers.pred_index = PredicateIndex(
                conflict=tiers.conflict_matrix
            ).attach_to(registry)
        if config.version_keys:
            tiers.version_index = VersionKeyIndex(
                stamp_source=stamp_source
            ).attach_to(registry)
        return tiers


def census(registry, safety: SafetyEnforcer) -> Dict[str, int]:
    """Live instances per enforced verdict plus total lint findings, from
    the registry's per-type live counts (O(types), not O(instances))."""
    counts = {"safe_instances": 0, "version_key_instances": 0, "lint_findings": 0}
    for query_type in registry.types():
        if query_type.safety is not None:
            counts["lint_findings"] += len(query_type.safety.findings)
        verdict = safety.verdict_for(query_type)
        if verdict is SafetyVerdict.SAFE:
            counts["safe_instances"] += query_type.live_instances
        elif verdict is SafetyVerdict.VERSION_KEY:
            counts["version_key_instances"] += query_type.live_instances
    return counts


class CascadeRun:
    """State of one cascade pass: a synchronous cycle or one streaming
    batch.  Instances doomed by an earlier record are skipped (uncounted)
    for every later record, in any table."""

    def __init__(
        self,
        counters: CascadeCounters,
        elapsed_ms: Optional[Callable[[], float]] = None,
    ) -> None:
        self.counters = counters
        self.elapsed_ms = elapsed_ms or (lambda: 0.0)
        self.doomed: Dict[int, QueryInstance] = {}
        #: Insertion-ordered URL set: ejects in doom (log) order.
        self.urls: Dict[str, None] = {}
        self.poll_tasks: List[Tuple[QueryInstance, Verdict]] = []


class VerdictCascade:
    """The tiered per-(instance, record) decision plus the shared
    poll / over-invalidate finisher.

    The registry-attached tiers come from :class:`CascadeTiers` (None
    when switched off).  The streaming workers pass the pipeline's
    registry and database locks; the synchronous invalidator runs
    lock-free.
    """

    def __init__(
        self,
        config: CascadeConfig,
        registry,
        infomgmt,
        tiers: CascadeTiers,
        polling_budget: Optional[int] = None,
        grouped_checker: Optional[GroupedChecker] = None,
        servlet_deadline: Optional[Callable[[str], float]] = None,
        registry_lock=None,
        db_lock=None,
    ) -> None:
        self.config = config
        self.registry = registry
        self.infomgmt = infomgmt
        self.scheduler = InvalidationScheduler(polling_budget=polling_budget)
        self.polling = infomgmt.polling_generator()
        self.batch_poller = BatchPollExecutor(infomgmt, self.polling)
        self.grouped_checker = grouped_checker or GroupedChecker()
        self.checker = IndependenceChecker()
        self.safety = tiers.safety
        self.pred_index = tiers.pred_index
        self.version_index = tiers.version_index
        self.conflict_matrix = tiers.conflict_matrix
        #: Servlet name → temporal sensitivity in ms (§3.1): a poll
        #: candidate inherits the tightest deadline among the servlets
        #: whose pages it feeds.
        self.servlet_deadline = servlet_deadline
        self.registry_lock = registry_lock or contextlib.nullcontext()
        self.db_lock = db_lock or contextlib.nullcontext()

    # -- the decision -----------------------------------------------------------

    def evaluate(
        self, run: CascadeRun, table: str, records: Sequence[UpdateRecord]
    ) -> None:
        """Decide every (instance, record) pair of one table's deduped
        records, record by record (ejects follow log order)."""
        counters = run.counters
        safety = self.safety if self.safety is not None and self.safety.enabled else None
        matrix = self.conflict_matrix
        index = self.pred_index
        if matrix is not None:
            # Classify each tuple into its update classes once; the
            # matrix refuses a skip whose proof cites a column the record
            # does not carry (checker parity).
            tags = [
                (matrix.classes_for_record(record), set(record.columns))
                for record in records
            ]
        else:
            tags = [(None, None)] * len(records)
        probes = pruned_tiers = type_totals = None
        with self.registry_lock:
            # One consistent snapshot: other shards may register or drop
            # instances mid-batch (both happen under the registry lock).
            if index is not None:
                started = time.perf_counter()
                probes = [index.probe(table, record) for record in records]
                counters.probe_time_ms += 1000.0 * (time.perf_counter() - started)
                counters.index_probes += len(records)
                type_totals = list(index.table_type_counts(table).values())
                pruned_tiers = [
                    self._pruned_tiers(table, record, classes, columns)
                    for record, (classes, columns) in zip(records, tags)
                ]
            else:
                instances = self.registry.instances_touching(table)
        verdicts: Dict[int, SafetyVerdict] = {}

        def verdict_of(query_type: QueryType) -> SafetyVerdict:
            verdict = verdicts.get(query_type.type_id)
            if verdict is None:
                verdict = (
                    safety.verdict_for(query_type)
                    if safety is not None
                    else SafetyVerdict.SAFE
                )
                verdicts[query_type.type_id] = verdict
            return verdict

        #: type_id → [QueryType, pairs seen] (per-type updates_seen).
        seen: Dict[int, list] = {}
        for position, record in enumerate(records):
            record_classes, record_columns = tags[position]
            if probes is None:
                row = instances
            else:
                row = probes[position].candidates
                self._charge_pruned(
                    run, probes[position], type_totals, pruned_tiers[position],
                    verdict_of, seen,
                )
            for instance in row:
                if instance.instance_id in run.doomed:
                    continue
                counters.pairs_checked += 1
                counters.pairs_materialized += 1
                tally = seen.setdefault(
                    instance.query_type.type_id, [instance.query_type, 0]
                )
                tally[1] += 1
                self._decide(
                    run, instance, record, verdict_of(instance.query_type),
                    record_classes, record_columns,
                )
        if seen:
            with self.registry_lock:
                for query_type, count in seen.values():
                    query_type.stats.updates_seen += count

    def _decide(
        self,
        run: CascadeRun,
        instance: QueryInstance,
        record: UpdateRecord,
        safety_verdict: SafetyVerdict,
        record_classes: Optional[List[str]],
        record_columns: Optional[set],
    ) -> None:
        """One materialized (instance, record) pair through the ladder."""
        counters = run.counters
        if safety_verdict >= SafetyVerdict.POLL_ONLY:
            # Enforcement replaces the precise check entirely: findings
            # of this severity mean the analyzer cannot be trusted here.
            if safety_verdict is SafetyVerdict.ALWAYS_EJECT:
                counters.fallback_ejects += 1
                eject = True
            else:
                counters.poll_only_checks += 1
                with self.db_lock:
                    eject = self.safety.check_poll_only(instance, record)
            if eject:
                counters.affected += 1
                self._doom(run, instance)
            else:
                counters.unaffected += 1
            return
        if record_classes is not None:
            level = self.conflict_matrix.skip_level(
                instance, record_columns, record_classes
            )
            if level is not None:
                counters.static_disjoint_skips += 1
                if level == "template":
                    counters.template_pairs_pruned += 1
                counters.unaffected += 1
                return
        if (
            safety_verdict is SafetyVerdict.VERSION_KEY
            and self.version_index is not None
        ):
            counters.version_key_checks += 1
            if self.version_index.fresh(instance, record):
                counters.polls_avoided += 1
                counters.unaffected += 1
                return
        if self.config.grouped_analysis:
            verdict = self.grouped_checker.check_instance(instance, record)
        else:
            verdict = self.checker.check(instance.statement, record)
        if verdict.kind is VerdictKind.UNAFFECTED:
            counters.unaffected += 1
        elif verdict.kind is VerdictKind.AFFECTED:
            counters.affected += 1
            self._doom(run, instance)
        else:
            run.poll_tasks.append((instance, verdict))

    def _pruned_tiers(self, table, record, classes, columns):
        """The exception sets that attribute one record's pruned pairs:
        the instances a static proof skips (id → (instance, level)) and
        the version index's ``(vouched, exceptions)`` refusals."""
        static = (
            self.conflict_matrix.disjoint_instances(classes, columns)
            if classes is not None
            else {}
        )
        refusals = (
            self.version_index.refusals(table, record)
            if self.version_index is not None
            else (False, set())
        )
        return static, refusals

    def _charge_pruned(
        self,
        run: CascadeRun,
        probe,
        type_totals,
        pruned_tiers,
        verdict_of: Callable[[QueryType], SafetyVerdict],
        seen: Dict[int, list],
    ) -> None:
        """Account every pair the probe ruled out, without visiting it.

        Live instances of the table, minus the candidates, minus the
        doomed non-candidates (skipped uncounted, as a scan skips them)
        are UNAFFECTED.  Each is charged to the first tier of the ladder
        that would have resolved it: a static proof, else a vouching
        version key, else the index prune.
        """
        counters = run.counters
        doomed = run.doomed
        candidate_ids = probe.candidate_ids
        # Per type: instances not to charge (candidates, doomed ones).
        excluded: Dict[int, int] = {}
        for instance in probe.candidates:
            type_id = instance.query_type.type_id
            excluded[type_id] = excluded.get(type_id, 0) + 1
        for instance_id, instance in doomed.items():
            if instance_id not in candidate_ids:
                type_id = instance.query_type.type_id
                excluded[type_id] = excluded.get(type_id, 0) + 1
        skipped_total = keyed_skipped = 0
        for query_type, live in type_totals:
            skipped = live - excluded.get(query_type.type_id, 0)
            if skipped <= 0:
                continue
            skipped_total += skipped
            tally = seen.setdefault(query_type.type_id, [query_type, 0])
            tally[1] += skipped
            if self._keyed(verdict_of(query_type)):
                keyed_skipped += skipped
        if not skipped_total:
            return
        counters.pairs_checked += skipped_total
        counters.unaffected += skipped_total
        static_map, (vouched, exceptions) = pruned_tiers
        static = set()
        for instance_id, (instance, level) in static_map.items():
            if instance_id in candidate_ids or instance_id in doomed:
                continue
            static.add(instance_id)
            counters.static_disjoint_skips += 1
            if level == "template":
                counters.template_pairs_pruned += 1
            if self._keyed(verdict_of(instance.query_type)):
                keyed_skipped -= 1
        pruned = skipped_total - len(static) - keyed_skipped
        if keyed_skipped > 0:
            excepted = sum(
                1
                for instance_id in exceptions
                if instance_id not in candidate_ids
                and instance_id not in doomed
                and instance_id not in static
            )
            fresh = keyed_skipped - excepted if vouched else excepted
            counters.version_key_checks += keyed_skipped
            counters.polls_avoided += fresh
            pruned += keyed_skipped - fresh
            self.version_index.count_bulk(keyed_skipped, fresh)
        counters.pairs_pruned += pruned

    def _keyed(self, verdict: SafetyVerdict) -> bool:
        return verdict is SafetyVerdict.VERSION_KEY and self.version_index is not None

    # -- the finisher -----------------------------------------------------------

    def finish(self, run: CascadeRun) -> None:
        """Budgeted polling (§4.2.2), one scheduler cycle: poll what the
        budget affords, over-invalidate the rest."""
        counters = run.counters
        live = [
            (instance, verdict)
            for instance, verdict in run.poll_tasks
            if instance.instance_id not in run.doomed
        ]
        if not live:
            return
        batching = self.config.batch_polling
        # One parameterization per task: it is both the scheduler's batch
        # group identity and the executor's coalescing key.
        parameterized = [
            parameterize(verdict.polling_query) if batching else None
            for _instance, verdict in live
        ]
        schedule = self.scheduler.schedule(
            [
                PollCandidate(
                    key=position,
                    priority=instance.query_type.priority,
                    cost=instance.query_type.cost,
                    urls_at_stake=len(instance.urls),
                    deadline_ms=self.deadline_for(instance),
                    batch_key=(
                        batch_key(verdict.polling_query, parameterized[position])
                        if batching
                        else None
                    ),
                )
                for position, (instance, verdict) in enumerate(live)
            ]
        )
        budget = self.scheduler.polling_budget
        counters.polls_requested += len(live)
        counters.scheduler_cycles += 1
        counters.poll_slots_offered += budget if budget is not None else len(live)
        self.polling.begin_cycle()
        stats = self.polling.stats
        batched_before = (
            stats.batched_queries, stats.batched_instances, stats.demux_misses
        )
        outcomes = {}
        if batching:
            with self.db_lock:
                outcomes = self.batch_poller.execute(
                    [
                        (c.key, live[c.key][1].polling_query, parameterized[c.key])
                        for c in schedule.to_poll
                        if live[c.key][0].instance_id not in run.doomed
                    ]
                )
        # Applied in schedule order; a task whose instance an earlier
        # answer already doomed is skipped uncounted.
        for candidate in schedule.to_poll:
            instance, verdict = live[candidate.key]
            if instance.instance_id in run.doomed:
                continue
            if batching:
                outcome = outcomes.get(candidate.key)
                if outcome is None:  # pragma: no cover - defensive
                    continue
                impacted, work = outcome.impacted, outcome.work_units
            else:
                with self.db_lock:
                    before = stats.total_work_units
                    impacted = self.infomgmt.poll_with_caching(
                        self.polling, verdict.polling_query
                    )
                    work = stats.total_work_units - before
            counters.polls_executed += 1
            with self.registry_lock:
                query_type = instance.query_type
                query_type.stats.polling_queries_issued += 1
                # Self-tuning cost estimate (§4.1.1 item 4): an EMA of
                # measured polling work feeds later scheduling decisions.
                if work > 0:
                    query_type.cost = 0.8 * query_type.cost + 0.2 * work
            if impacted:
                counters.polls_impacted += 1
                self._doom(run, instance)
        for candidate in schedule.over_invalidate:
            instance, _verdict = live[candidate.key]
            if instance.instance_id in run.doomed:
                continue
            counters.over_invalidated += 1
            self._doom(run, instance)
        counters.batched_queries += stats.batched_queries - batched_before[0]
        counters.batched_instances += stats.batched_instances - batched_before[1]
        counters.demux_misses += stats.demux_misses - batched_before[2]

    # -- helpers ------------------------------------------------------------------

    def _doom(self, run: CascadeRun, instance: QueryInstance) -> None:
        run.doomed[instance.instance_id] = instance
        with self.registry_lock:
            instance.query_type.stats.record_invalidation(elapsed=run.elapsed_ms())
            for url in sorted(instance.urls):
                run.urls.setdefault(url)

    def deadline_for(self, instance: QueryInstance) -> float:
        """The tightest deadline among the servlets the instance feeds."""
        deadline = instance.query_type.deadline_ms
        if self.servlet_deadline is not None:
            for servlet in instance.servlets:
                try:
                    deadline = min(deadline, self.servlet_deadline(servlet))
                except Exception:
                    continue  # unknown servlet: keep the type default
        return deadline
