"""Predicate index: sub-linear update → instance candidate matching.

The invalidator must decide, for every changed tuple, which cached query
instances it can affect.  The baseline is a scan: run the (grouped)
independence check against *every* live instance of the changed relation
— O(instances × updates), which caps the registry size the invalidator
can sustain.  Almost all of those checks return UNAFFECTED by failing one
*local* conjunct (``price < 20000`` vs a tuple with price 72000), and
that failure is computable from an index probe instead of a checker run.

:class:`PredicateIndex` keeps, per (table, column):

* a **hash index** for equality and IN-list conjuncts — bucket by bound
  value; a probe is one dict lookup;
* a **sorted interval index** (bisect over the SQL total order via
  :class:`~repro.db.types.SortKey`) for range and BETWEEN conjuncts —
  a probe is a binary search plus the matching prefix/suffix;
* an **IS [NOT] NULL** bucket pair;
* a per-table **residual scan-list** for instances whose local conjuncts
  have no probe-friendly shape (LIKE, OR at the top level, self-joins,
  unions, LEFT JOINs, subquery-only references, unbindable templates).

A probe returns the *candidate set*: every instance whose verdict could
be anything other than UNAFFECTED.  Everything outside the candidate set
is **provably** UNAFFECTED — the changed tuple fails the instance's
indexed local conjunct, which is exactly the first way the grouped
checker rules a pair out — so pruning changes the amount of work, never
a verdict.  Soundness cases the probe honours:

* a tuple **missing the probe column** cannot be ruled out (the checker
  skips unevaluable conditions): all instances indexed on that column
  become candidates;
* a **NULL tuple value** fails every comparison (three-valued logic):
  equality/range instances are pruned, ``IS NULL`` instances match;
* a **NULL bound** (``col = NULL``) can never evaluate to TRUE: the
  instance is indexed but unreachable by any probe value;
* a provably **constant-false** instance (``WHERE 1 = 2`` bound) is
  never affected at all and is pruned without any probe structure;
* a conjunct qualified by the base-table name while the table is bound
  under an alias would be unresolvable in the checker's scope (skipped,
  hence no pruning) — :class:`TypeAnalysis` never marks it indexable.

Consistency: the index implements the
:class:`~repro.core.invalidator.registration.RegistryListener` protocol;
attach it to a :class:`QueryTypeRegistry` and every instance discovery
inserts entries while every eviction (``drop_url`` orphaning an
instance) removes them.  Mutations and probes are not internally locked
— callers serialize through the registry lock, as the streaming workers
already do for ``instances_touching``.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.db.log import UpdateRecord
from repro.db.types import SortKey, Value, sql_compare
from repro.core.invalidator.grouping import (
    IntervalSpec,
    Probe,
    TypeAnalysis,
)
from repro.core.invalidator.registration import (
    QueryInstance,
    RegistryListener,
)
from repro.core.invalidator.safety import SafetyVerdict

#: Sorts after every sequence number inside bisect boundary tuples.
_SEQ_INF = float("inf")


@dataclass
class ProbeResult:
    """Outcome of one (table, changed tuple) probe."""

    table: str
    #: Instances that may be affected, in registration (instance-id) order.
    candidates: List[QueryInstance]
    #: ``{instance_id}`` of :attr:`candidates`, for O(1) membership tests.
    candidate_ids: Set[int]
    #: Live instances registered for the table that the probe ruled out.
    pruned: int


@dataclass
class _Entry:
    """How one instance is represented in one table's index."""

    instance: QueryInstance
    #: "hash" | "interval" | "isnull" | "residual" | "never" | "static"
    #: ("static": the conflict matrix proved the instance disjoint from
    #: every possible record of the table — like "never", the entry is
    #: pruned by every probe and exists only for accounting).
    mode: str
    #: The folded probe for "hash" / "interval" / "isnull" entries.
    probe: Optional["Probe"] = None


class _HashColumn:
    """Equality / IN-list entries for one (table, column)."""

    __slots__ = ("members", "by_value", "keys_of")

    def __init__(self) -> None:
        self.members: Dict[int, QueryInstance] = {}
        self.by_value: Dict[Value, Dict[int, QueryInstance]] = {}
        self.keys_of: Dict[int, Tuple[Value, ...]] = {}

    def add(self, instance: QueryInstance, keys: Tuple[Value, ...]) -> None:
        iid = instance.instance_id
        self.members[iid] = instance
        self.keys_of[iid] = keys
        for key in keys:
            # A None key is unreachable on purpose: probes never look up
            # NULL, and a NULL bound never compares TRUE.
            self.by_value.setdefault(key, {})[iid] = instance

    def remove(self, instance_id: int) -> None:
        self.members.pop(instance_id, None)
        for key in self.keys_of.pop(instance_id, ()):
            bucket = self.by_value.get(key)
            if bucket is not None:
                bucket.pop(instance_id, None)
                if not bucket:
                    del self.by_value[key]


class _NullColumn:
    """IS NULL / IS NOT NULL entries for one (table, column)."""

    __slots__ = ("members", "null_entries", "notnull_entries")

    def __init__(self) -> None:
        self.members: Dict[int, QueryInstance] = {}
        self.null_entries: Dict[int, QueryInstance] = {}
        self.notnull_entries: Dict[int, QueryInstance] = {}

    def add(self, instance: QueryInstance, negated: bool) -> None:
        iid = instance.instance_id
        self.members[iid] = instance
        target = self.notnull_entries if negated else self.null_entries
        target[iid] = instance

    def remove(self, instance_id: int) -> None:
        self.members.pop(instance_id, None)
        self.null_entries.pop(instance_id, None)
        self.notnull_entries.pop(instance_id, None)


class _IntervalColumn:
    """Range / BETWEEN entries for one (table, column).

    Three sorted lists keep probes output-sensitive for the common
    one-sided shapes: ``uppers`` (only an upper bound — the Table-3
    ``price < $1`` family), ``lowers`` (only a lower bound), ``bounded``
    (both).  Sorting uses :class:`SortKey`, i.e. exactly the SQL total
    order ``sql_compare`` applies, so cross-type probes (a string value
    against numeric bounds) prune precisely when the checker would.
    """

    __slots__ = ("members", "uppers", "lowers", "bounded", "placement", "_seq")

    def __init__(self) -> None:
        self.members: Dict[int, QueryInstance] = {}
        # Items: (bound SortKey, flag, seq, instance_id); flag semantics
        # are chosen per list so the bisect boundary splits exactly.
        self.uppers: List[tuple] = []
        self.lowers: List[tuple] = []
        self.bounded: List[tuple] = []
        #: instance_id → (list name, item, high, high_incl); list name
        #: None marks a never-matching (NULL-bounded) entry.
        self.placement: Dict[int, tuple] = {}
        self._seq = 0

    def add(self, instance: QueryInstance, spec: IntervalSpec) -> None:
        low, low_incl, high, high_incl, has_low, has_high = spec
        iid = instance.instance_id
        self.members[iid] = instance
        self._seq += 1
        seq = self._seq
        if (has_low and low is None) or (has_high and high is None):
            # NULL bound: the conjunct can never evaluate TRUE; keep the
            # entry for the column-missing fallback only.
            self.placement[iid] = (None, None, None, None)
            return
        if has_low and has_high:
            # flag 0 = inclusive (>=), 1 = strict (>): inclusive sorts
            # first so boundary (v, 1) keeps low==v inclusive entries.
            item = (SortKey(low), 0 if low_incl else 1, seq, iid)
            insort(self.bounded, item)
            self.placement[iid] = ("bounded", item, high, high_incl)
        elif has_high:
            # flag 0 = strict (<), 1 = inclusive (<=): strict sorts first
            # so boundary (v, 0, inf) drops high==v strict entries.
            item = (SortKey(high), 1 if high_incl else 0, seq, iid)
            insort(self.uppers, item)
            self.placement[iid] = ("uppers", item, None, None)
        else:
            item = (SortKey(low), 0 if low_incl else 1, seq, iid)
            insort(self.lowers, item)
            self.placement[iid] = ("lowers", item, None, None)

    def remove(self, instance_id: int) -> None:
        self.members.pop(instance_id, None)
        placed = self.placement.pop(instance_id, None)
        if placed is None or placed[0] is None:
            return
        target = getattr(self, placed[0])
        position = bisect_left(target, placed[1])
        if position < len(target) and target[position] == placed[1]:
            del target[position]

    def probe_into(self, value: Value, out: Dict[int, QueryInstance]) -> None:
        """Add every entry whose interval contains ``value`` to ``out``."""
        key = SortKey(value)
        for item in self.uppers[bisect_left(self.uppers, (key, 0, _SEQ_INF)) :]:
            out[item[3]] = self.members[item[3]]
        for item in self.lowers[: bisect_left(self.lowers, (key, 1))]:
            out[item[3]] = self.members[item[3]]
        for item in self.bounded[: bisect_left(self.bounded, (key, 1))]:
            iid = item[3]
            high, high_incl = self.placement[iid][2:]
            order = sql_compare(value, high)
            if order is not None and (order < 0 or (order == 0 and high_incl)):
                out[iid] = self.members[iid]


class _ProbeStructures:
    """Hash, interval and IS [NOT] NULL structures over one table, plus
    the members every probe returns.  Members are anything keyed by an
    ``instance_id`` attribute: query instances here, version keys in
    :mod:`~repro.core.invalidator.versionkey`, which must honour the same
    missing-column / NULL-value soundness cases at bump time."""

    __slots__ = ("always", "hash_cols", "interval_cols", "null_cols")

    def __init__(self) -> None:
        self.always: Dict[int, object] = {}
        self.hash_cols: Dict[str, _HashColumn] = {}
        self.interval_cols: Dict[str, _IntervalColumn] = {}
        self.null_cols: Dict[str, _NullColumn] = {}

    def place(self, member, probe: Optional["Probe"]) -> None:
        """Index ``member`` under its folded probe (None: always)."""
        if probe is None:
            self.always[member.instance_id] = member
            return
        mode, column, payload = probe
        if mode == "hash":
            structures, kind = self.hash_cols, _HashColumn
        elif mode == "interval":
            structures, kind = self.interval_cols, _IntervalColumn
        else:
            structures, kind = self.null_cols, _NullColumn
        structure = structures.get(column)
        if structure is None:
            structure = structures[column] = kind()
        structure.add(member, payload)

    def unplace(self, member_id: int, probe: Optional["Probe"]) -> None:
        if probe is None:
            self.always.pop(member_id, None)
            return
        mode, column, _payload = probe
        structures = {
            "hash": self.hash_cols,
            "interval": self.interval_cols,
            "isnull": self.null_cols,
        }[mode]
        structure = structures.get(column)
        if structure is not None:
            structure.remove(member_id)

    def candidates(self, tuple_values: Dict[str, Value]) -> Dict[int, object]:
        """Every member the changed tuple may satisfy."""
        found = dict(self.always)
        for column, hash_column in self.hash_cols.items():
            if column not in tuple_values:
                found.update(hash_column.members)
                continue
            value = tuple_values[column]
            if value is None:
                continue  # NULL equals nothing: every entry pruned
            bucket = hash_column.by_value.get(value)
            if bucket:
                found.update(bucket)
        for column, interval_column in self.interval_cols.items():
            if column not in tuple_values:
                found.update(interval_column.members)
                continue
            value = tuple_values[column]
            if value is None:
                continue  # NULL is inside no interval
            interval_column.probe_into(value, found)
        for column, null_column in self.null_cols.items():
            if column not in tuple_values:
                found.update(null_column.members)
            elif tuple_values[column] is None:
                found.update(null_column.null_entries)
            else:
                found.update(null_column.notnull_entries)
        return found


class _TableIndex(_ProbeStructures):
    """All index structures for one base table."""

    __slots__ = ("entries", "by_type")

    def __init__(self) -> None:
        super().__init__()
        self.entries: Dict[int, _Entry] = {}
        #: type_id → [QueryType, live instance count] — lets callers
        #: account for pruned pairs per type without touching instances.
        self.by_type: Dict[int, list] = {}

    def add(self, entry: _Entry) -> None:
        instance = entry.instance
        self.entries[instance.instance_id] = entry
        tally = self.by_type.setdefault(
            instance.query_type.type_id, [instance.query_type, 0]
        )
        tally[1] += 1
        # "never"/"static" entries live only in entries/by_type: always
        # pruned.
        if entry.mode == "residual" or entry.probe is not None:
            self.place(instance, entry.probe)

    def remove(self, instance_id: int) -> Optional[_Entry]:
        entry = self.entries.pop(instance_id, None)
        if entry is None:
            return None
        type_id = entry.instance.query_type.type_id
        tally = self.by_type.get(type_id)
        if tally is not None:
            tally[1] -= 1
            if tally[1] <= 0:
                del self.by_type[type_id]
        if entry.mode == "residual" or entry.probe is not None:
            self.unplace(instance_id, entry.probe)
        return entry


#: Live composition counters, per (instance, table) entry.
_COMPOSITION = ("indexed", "residual", "never", "static")


def _composition_of(entry: _Entry) -> str:
    return entry.mode if entry.mode in _COMPOSITION else "indexed"


class PredicateIndex(RegistryListener):
    """Update → candidate-instance index over a query registry.

    Type decompositions come from :attr:`QueryType.analysis` (computed
    once per type) and per-instance facts from :attr:`QueryInstance.bound`.

    Args:
        conflict: optional
            :class:`~repro.core.invalidator.conflict.ConflictMatrix`.
            When it proves an instance disjoint from *every* possible
            record of a table (``index_drop``), the instance is parked
            in a never-matching entry instead of any probe structure.
    """

    def __init__(self, conflict=None) -> None:
        self._tables: Dict[str, _TableIndex] = {}
        self._conflict = conflict
        self._composition: Dict[str, int] = dict.fromkeys(_COMPOSITION, 0)
        # Probe counters.
        self.probes = 0
        self.probe_seconds = 0.0
        self.candidates_returned = 0
        self.pairs_pruned = 0

    # -- registry listener protocol ------------------------------------------

    def instance_registered(self, instance: QueryInstance) -> None:
        analysis = instance.query_type.analysis
        for table in instance.query_type.tables:
            entry = self._classify(instance, analysis, table)
            table_index = self._tables.get(table)
            if table_index is None:
                table_index = self._tables[table] = _TableIndex()
            table_index.add(entry)
            self._composition[_composition_of(entry)] += 1

    def instance_dropped(self, instance: QueryInstance) -> None:
        for table in instance.query_type.tables:
            table_index = self._tables.get(table)
            if table_index is None:
                continue
            entry = table_index.remove(instance.instance_id)
            if entry is not None:
                self._composition[_composition_of(entry)] -= 1

    # -- probing --------------------------------------------------------------

    def probe(self, table: str, record: UpdateRecord) -> ProbeResult:
        """Candidate instances for one changed tuple of ``table``.

        Cost is O(indexed columns · log n + candidates); every instance
        outside the result is provably UNAFFECTED by ``record``.
        """
        started = time.perf_counter()
        table_index = self._tables.get(table.lower())
        if table_index is None:
            self.probes += 1
            self.probe_seconds += time.perf_counter() - started
            return ProbeResult(table, [], set(), 0)
        found = table_index.candidates(record.as_dict())
        candidates = sorted(found.values(), key=lambda i: i.instance_id)
        pruned = len(table_index.entries) - len(candidates)
        self.probes += 1
        self.candidates_returned += len(candidates)
        self.pairs_pruned += pruned
        self.probe_seconds += time.perf_counter() - started
        return ProbeResult(table, candidates, set(found), pruned)

    def table_type_counts(self, table: str) -> Dict[int, list]:
        """Live ``type_id → [QueryType, count]`` view for one table."""
        table_index = self._tables.get(table.lower())
        return table_index.by_type if table_index is not None else {}

    def registered(self, table: str) -> int:
        """Live instance count currently indexed under ``table``."""
        table_index = self._tables.get(table.lower())
        return len(table_index.entries) if table_index is not None else 0

    def stats(self) -> Dict[str, object]:
        return {
            "tables": len(self._tables),
            **{f"entries_{kind}": count for kind, count in self._composition.items()},
            "probes": self.probes,
            "probe_time_ms": round(1000.0 * self.probe_seconds, 3),
            "candidates_returned": self.candidates_returned,
            "pairs_pruned": self.pairs_pruned,
        }

    # -- classification --------------------------------------------------------

    def _classify(
        self, instance: QueryInstance, analysis: TypeAnalysis, table: str
    ) -> _Entry:
        """Pick the entry mode for (instance, table), mirroring the
        grouped checker's decision ladder so pruning can never contradict
        a verdict."""
        safety = instance.query_type.safety
        if safety is not None and safety.verdict not in (
            SafetyVerdict.SAFE,
            SafetyVerdict.VERSION_KEY,
        ):
            # Safety enforcement replaces the precise analysis for this
            # type; the instance must surface as a candidate for every
            # record so enforcement runs identically on both paths.
            # VERSION_KEY types stay index-eligible: their fast path only
            # ever *skips* checker work, so pruning a pair the counter
            # would also have skipped cannot change a verdict.
            return _Entry(instance, "residual")
        if analysis.is_union or analysis.has_left_join:
            return _Entry(instance, "residual")
        bindings = analysis.bindings_by_table.get(table)
        if bindings is None:
            return _Entry(instance, "residual")  # subquery-only: conservative
        if len(bindings) != 1:
            # Self-join: UNAFFECTED requires *every* occurrence to fail a
            # local conjunct; one probe structure cannot prove that.
            return _Entry(instance, "residual")
        bound = instance.bound
        # Checker parity: when any template of this binding is unbindable
        # the grouped checker abandons local pruning for the instance
        # (conservative AFFECTED path), so the index must not prune either.
        if not bound.bindable:
            return _Entry(instance, "residual")
        if bound.constant_false:
            return _Entry(instance, "never")
        if self._conflict is not None and self._conflict.index_drop(
            instance, table
        ):
            # The conflict matrix proved this instance disjoint from
            # every record the table can ever log: no probe structure
            # needed, the entry only participates in bulk accounting.
            return _Entry(instance, "static")
        folded = bound.probe(bindings[0])
        if folded is None:
            return _Entry(instance, "residual")
        return _Entry(instance, folded[0], folded)
