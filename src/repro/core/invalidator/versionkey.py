"""Version-keyed O(1) single-table invalidation fast path.

Even after grouping (§4.1.2), predicate indexing, and set-oriented
polling, every live instance of a single-table query class still pays a
per-(instance, update) independence check each cycle.  Following the
interval/version-key argument of Łopuszański (arxiv 2310.15360), that
whole class can be resolved by a *counter comparison* instead: keep one
monotone version counter per predicate region — a point key for
equality conjuncts, an interval entry for range conjuncts, and a
per-table coarse counter as the fallback watermark — bump it from the
update stream, and an instance whose counter has not moved past its
registration stamp is provably untouched.

The contract is deliberately one-sided so the fast path can never
change an eject decision:

* ``fresh(instance, record)`` returns **True** only when the counter
  *proves* the pair UNAFFECTED — the grouped checker would reach the
  same verdict, so the caller may skip it.
* Anything unprovable (no key, counter moved, stamp missing, record
  predates the stamp, record not yet observed) returns **False** and
  the caller falls back to the precise checker.  Ejects are therefore
  bit-identical with the fast path on or off; only the number of
  checker invocations changes.

Soundness rests on three invariants:

1. **Stamp**: an instance is stamped with the update cursor at
   registration time.  The sniffer-first cycle order guarantees every
   record at or below that cursor is reflected in the cached page, so
   only records *above* the stamp can matter — and ``fresh`` refuses to
   vouch for records at or below it.
2. **Bump-before-check**: both consumers feed each pulled batch through
   :meth:`VersionKeyIndex.observe` before any pair of that batch is
   checked, so a record that satisfies *all* of a key's conjuncts has
   already bumped the key when its own pair is examined.  The per-table
   coarse counter records the highest observed LSN and gates every
   answer: a record the index has not seen cannot be vouched for.
3. **Floor**: the index only vouches for stamps at or above its bump
   floor (creation cursor, raised by log truncation and conservative
   restores); below it, bump coverage is unknown.

Checkpointing: :meth:`snapshot_state` captures the floor, the coarse
watermarks, and every key counter; instances persist their stamps in
the registry snapshot.  On restore the keys themselves are rebuilt by
registry replay (never deserialized) and :meth:`restore_state` overlays
the counters — a missing or old-format snapshot degrades to "never
fresh" for restored instances rather than to staleness.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.db.expr import Scope
from repro.db.log import UpdateRecord
from repro.sql import ast
from repro.sql.params import Value, bind_expression
from repro.sql.printer import to_sql
from repro.core.invalidator.analysis import first_failing
from repro.core.invalidator.grouping import TypeAnalysis
# The probe structures are shared with the predicate index on purpose:
# candidate discovery at bump time must honour exactly the same
# missing-column / NULL-value soundness cases as candidate discovery at
# check time, so the same implementation serves both.
from repro.core.invalidator.predindex import _ProbeStructures
from repro.core.invalidator.registration import (
    QueryInstance,
    RegistryListener,
)
from repro.core.invalidator.safety import (
    SafetyClassification,
    SafetyVerdict,
)


def analysis_qualifies(analysis: TypeAnalysis) -> bool:
    """True when a type's WHERE is a single-table indexable conjunction.

    Mirrors the grouped checker's decision ladder: every shape that
    would make the checker conservative (unions, LEFT JOINs, subquery
    references, residual conjuncts, non-indexable locals) disqualifies
    the type from the fast path.
    """
    if analysis.is_union or analysis.has_left_join:
        return False
    if len(analysis.aliases) != 1:
        return False
    if analysis.all_tables != frozenset(analysis.aliases.values()):
        return False  # also referenced via a subquery: conservative
    binding_analysis = next(iter(analysis.by_binding.values()))
    if binding_analysis.residual_templates:
        return False
    if not binding_analysis.local_templates:
        return False  # no WHERE: every touching update affects it anyway
    return len(binding_analysis.indexable_templates) == len(
        binding_analysis.local_templates
    )


class _TemplateShim:
    """Minimal ``QueryType`` stand-in: :meth:`TypeAnalysis.of` reads only
    the template, so classification can run before a type exists."""

    __slots__ = ("template",)

    def __init__(self, template) -> None:
        self.template = template


def template_qualifies(template) -> bool:
    """Qualify a bare template (no registered type yet)."""
    try:
        return analysis_qualifies(TypeAnalysis.of(_TemplateShim(template)))
    except ReproError:
        return False


def upgrade_classification(
    classification: SafetyClassification, template
) -> SafetyClassification:
    """Upgrade a SAFE classification to VERSION_KEY when the template
    qualifies for the fast path.

    The upgrade applies **only** from SAFE: a finding that floors the
    verdict above SAFE can never be masked by the fast path (the
    satellite guarantee asserted by the test suite).
    """
    if classification.verdict is not SafetyVerdict.SAFE:
        return classification
    if not template_qualifies(template):
        return classification
    return SafetyClassification(
        verdict=SafetyVerdict.VERSION_KEY, findings=classification.findings
    )


#: One conjunct of a key's region: the conjunct template with its
#: parameters printed as ``?``, and the type-tagged values they take.
_RegionPart = Tuple[str, Tuple[Tuple[str, Value], ...]]


def _conjunct_shape(template: ast.Expr) -> Tuple[str, Optional[Tuple[int, ...]]]:
    """A conjunct template printed with anonymous parameters, plus the
    binding positions those parameters read, in walk order.  Positions
    are None for a conjunct with a subquery, whose parameters the walk
    does not reach."""
    if any(True for _ in ast.subqueries(template)):
        return "", None
    positions: List[int] = []

    def leaf(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Parameter) and node.index is not None:
            positions.append(node.index - 1)
            return ast.Parameter(None)
        return node

    return to_sql(ast.map_scalar(template, leaf)), tuple(positions)


class _Key:
    """One refcounted version counter for a predicate region.

    ``instance_id`` is the key's own integer id — named so the key can
    duck-type into the predicate index's probe structures, which index
    their members by that attribute.  The region's bound conjuncts and
    its printed ``canonical`` form are built on first read: bumps
    evaluate the former, checkpoints name the key by the latter.
    """

    __slots__ = (
        "instance_id",
        "ident",
        "table",
        "binding",
        "templates",
        "bindings",
        "probe",
        "last_bump_lsn",
        "refs",
        "_conjuncts",
        "_canonical",
    )

    def __init__(
        self,
        key_id: int,
        ident: Tuple,
        table: str,
        binding: str,
        templates: List[ast.Expr],
        bindings: Tuple[Value, ...],
        probe: Optional[Tuple],
    ) -> None:
        self.instance_id = key_id
        self.ident = ident
        self.table = table
        self.binding = binding
        self.templates = templates
        self.bindings = bindings
        #: ("hash", column, values) | ("interval", column, spec) |
        #: ("isnull", column, negated) | None (always a bump candidate).
        self.probe = probe
        self.last_bump_lsn = 0
        self.refs: Set[int] = set()
        self._conjuncts: Optional[List[ast.Expr]] = None
        self._canonical: Optional[str] = None

    @property
    def conjuncts(self) -> List[ast.Expr]:
        if self._conjuncts is None:
            self._conjuncts = [
                bind_expression(template, self.bindings) for template in self.templates
            ]
        return self._conjuncts

    @property
    def canonical(self) -> str:
        if self._canonical is None:
            self._canonical = "{}|{}".format(
                self.table,
                " AND ".join(sorted(to_sql(conjunct) for conjunct in self.conjuncts)),
            )
        return self._canonical


class _TableKeys(_ProbeStructures):
    """Bump-time probe structures for one base table's keys.  A key with
    no foldable probe conjunct is a candidate for every record of the
    table (evaluation still decides the bump)."""

    __slots__ = ("members",)

    def __init__(self) -> None:
        super().__init__()
        self.members: Dict[int, _Key] = {}

    def add(self, key: _Key) -> None:
        self.members[key.instance_id] = key
        self.place(key, key.probe)

    def remove(self, key: _Key) -> None:
        self.members.pop(key.instance_id, None)
        self.unplace(key.instance_id, key.probe)


class VersionKeyIndex(RegistryListener):
    """Monotone version counters over the VERSION_KEY instance class.

    Args:
        stamp_source: zero-argument callable returning the consumer's
            current update cursor; newly registered fast-path instances
            are stamped with it.  ``None`` leaves stamps unset (the
            index then never vouches — restore overlays real stamps).
    """

    def __init__(self, stamp_source=None) -> None:
        self._lock = threading.RLock()
        self._stamp_source = stamp_source
        self._key_ids = itertools.count(1)
        self._keys: Dict[Tuple, _Key] = {}
        #: Type signature → local conjunct shapes (see _conjunct_shape),
        #: or None when the type does not qualify for a key.
        self._shapes: Dict[str, Optional[List[Tuple[str, Optional[Tuple[int, ...]]]]]] = {}
        self._key_of: Dict[int, _Key] = {}
        #: Instances whose bound WHERE is provably constant-false: no
        #: update can ever affect them, so they are fresh forever.
        self._never: Set[int] = set()
        self._never_by_table: Dict[str, Set[int]] = {}
        self._tables: Dict[str, _TableKeys] = {}
        #: Highest observed LSN per table: the coarse counter.  It gates
        #: every precise answer — a record above it was never observed,
        #: so no key counter can vouch for it.
        self._coarse: Dict[str, int] = {}
        #: Stamps below the floor predate complete bump coverage.
        self._floor = 0
        #: The part of the floor owed to log truncation specifically —
        #: a checkpoint restore may replace the construction-time floor
        #: (the snapshot supplies the missing coverage) but never this.
        self._truncation_floor = 0
        if stamp_source is not None:
            self._floor = int(stamp_source())
        # The exception sets behind :meth:`refusals`, kept current on
        # register, drop, bump and floor change so that the bulk answer
        # never walks the instances fresh() would vouch for.
        #: Keyed and unkeyed (not constant-false) instances.
        self._tracked: Dict[int, QueryInstance] = {}
        #: table → ids fresh() refuses for every record: unkeyed,
        #: unstamped, stamped below the floor, or key bumped past stamp.
        self._unvouched: Dict[str, Set[int]] = {}
        #: table → sorted (stamp, id) of stamped keyed instances: fresh()
        #: also refuses records at or below an instance's stamp.
        self._stamps: Dict[str, List[Tuple[int, int]]] = {}
        self._stamp_entry: Dict[int, Tuple[str, Tuple[int, int]]] = {}
        # Observability counters.
        self.records_observed = 0
        self.keys_bumped = 0
        self.checks = 0
        self.fresh_hits = 0
        self.instances_unkeyed = 0

    # -- registry listener protocol -------------------------------------------

    def instance_registered(self, instance: QueryInstance) -> None:
        classification = instance.query_type.safety
        if (
            classification is None
            or classification.verdict is not SafetyVerdict.VERSION_KEY
        ):
            return
        with self._lock:
            if self._stamp_source is not None:
                instance.version_stamp_lsn = int(self._stamp_source())
            analysis = instance.query_type.analysis
            built = self._build_key_parts(instance, analysis)
            if built == "never":
                self._never.add(instance.instance_id)
                for table in instance.query_type.tables:
                    self._never_by_table.setdefault(table, set()).add(
                        instance.instance_id
                    )
                return
            if built is None:
                self.instances_unkeyed += 1
                self._track(instance)
                return
            ident, table, binding, templates, probe = built
            key = self._keys.get(ident)
            if key is None:
                key = _Key(
                    next(self._key_ids),
                    ident,
                    table,
                    binding,
                    templates,
                    instance.bindings,
                    probe,
                )
                self._keys[ident] = key
                table_keys = self._tables.get(table)
                if table_keys is None:
                    table_keys = self._tables[table] = _TableKeys()
                table_keys.add(key)
            key.refs.add(instance.instance_id)
            self._key_of[instance.instance_id] = key
            self._track(instance)

    def instance_dropped(self, instance: QueryInstance) -> None:
        with self._lock:
            iid = instance.instance_id
            if iid in self._never:
                self._never.discard(iid)
                for table in instance.query_type.tables:
                    self._never_by_table.get(table, set()).discard(iid)
            self._untrack(instance)
            key = self._key_of.pop(iid, None)
            if key is None:
                return
            key.refs.discard(iid)
            if key.refs:
                return
            del self._keys[key.ident]
            table_keys = self._tables.get(key.table)
            if table_keys is not None:
                table_keys.remove(key)
                if not table_keys.members:
                    del self._tables[key.table]

    # -- the update stream -----------------------------------------------------

    def observe(self, records: Sequence[UpdateRecord]) -> int:
        """Bump counters for one batch of update records.

        Must run before any (instance, record) pair of the batch is
        checked — both consumers call it right after pulling a batch.
        Returns the number of key bumps performed.
        """
        bumped = 0
        with self._lock:
            for record in records:
                table = record.table.lower()
                if self._coarse.get(table, -1) < record.lsn:
                    self._coarse[table] = record.lsn
                table_keys = self._tables.get(table)
                if table_keys is None or not table_keys.members:
                    continue
                tuple_values = record.as_dict()
                for key in table_keys.candidates(tuple_values).values():
                    if key.last_bump_lsn >= record.lsn:
                        continue
                    if self._matches(key, tuple_values):
                        key.last_bump_lsn = record.lsn
                        bumped += 1
                        # Refs stamped below the bump are no longer
                        # vouchable: O(refs of the bumped key).
                        for iid in key.refs:
                            entry = self._stamp_entry.get(iid)
                            if entry is not None and entry[1][0] < record.lsn:
                                self._unvouched.setdefault(table, set()).add(iid)
            self.records_observed += len(records)
            self.keys_bumped += bumped
        return bumped

    def note_truncation(self, floor_lsn: int) -> None:
        """The log truncated past the cursor: bump coverage up to the
        resynced cursor is unknowable, so no older stamp may be vouched
        for again.  Pass the consumer's resynced cursor."""
        with self._lock:
            self._truncation_floor = max(self._truncation_floor, int(floor_lsn))
            self._floor = max(self._floor, int(floor_lsn))
            self._rebuild_exceptions()

    # -- the O(1) check --------------------------------------------------------

    def fresh(self, instance: QueryInstance, record: UpdateRecord) -> bool:
        """True iff the counter *proves* the pair UNAFFECTED.

        False means "cannot vouch", never "affected" — the caller falls
        back to the precise checker.
        """
        with self._lock:
            self.checks += 1
            instance_id = instance.instance_id
            if instance_id in self._never:
                self.fresh_hits += 1
                return True
            key = self._key_of.get(instance_id)
            if key is None:
                return False
            stamp = instance.version_stamp_lsn
            if stamp is None or stamp < self._floor:
                return False
            if record.lsn <= stamp:
                # At or below the stamp the page's own render already
                # reflects the record — or, for a restored instance, the
                # record was handled before the checkpoint.  Either way
                # this index has nothing to add; stay conservative.
                return False
            if self._coarse.get(record.table.lower(), -1) < record.lsn:
                return False  # record not yet observed: cannot vouch
            if key.last_bump_lsn <= stamp:
                self.fresh_hits += 1
                return True
            return False

    def refusals(self, table: str, record: UpdateRecord) -> Tuple[bool, Set[int]]:
        """:meth:`fresh` in bulk over every version-keyed instance of
        ``table`` for one observed record, without visiting them.

        Returns ``(vouched, exceptions)``: when ``vouched`` is True,
        fresh() holds for every such instance except the ids in
        ``exceptions``; when False (the record was never observed), it
        holds for none except the constant-false ids in ``exceptions``.
        Cost is the size of the exception sets, not of the table.
        """
        table = table.lower()
        with self._lock:
            if self._coarse.get(table, -1) < record.lsn:
                return False, set(self._never_by_table.get(table, ()))
            refused = set(self._unvouched.get(table, ()))
            stamps = self._stamps.get(table)
            if stamps:
                start = bisect_left(stamps, (record.lsn, -1))
                refused.update(iid for _stamp, iid in stamps[start:])
            return True, refused

    def count_bulk(self, checks: int, fresh_hits: int) -> None:
        """Account counter checks a consumer resolved through
        :meth:`refusals` rather than pair by pair."""
        with self._lock:
            self.checks += checks
            self.fresh_hits += fresh_hits

    # -- exception sets ----------------------------------------------------------

    def _track(self, instance: QueryInstance) -> None:
        iid = instance.instance_id
        key = self._key_of.get(iid)
        tables = [key.table] if key is not None else instance.query_type.tables
        self._tracked[iid] = instance
        stamp = instance.version_stamp_lsn
        if key is not None and stamp is not None:
            entry = (int(stamp), iid)
            insort(self._stamps.setdefault(key.table, []), entry)
            self._stamp_entry[iid] = (key.table, entry)
        if (
            key is None
            or stamp is None
            or stamp < self._floor
            or key.last_bump_lsn > stamp
        ):
            for table in tables:
                self._unvouched.setdefault(table, set()).add(iid)

    def _untrack(self, instance: QueryInstance) -> None:
        iid = instance.instance_id
        if self._tracked.pop(iid, None) is None:
            return
        for table in instance.query_type.tables:
            self._unvouched.get(table, set()).discard(iid)
        placed = self._stamp_entry.pop(iid, None)
        if placed is not None:
            stamps = self._stamps[placed[0]]
            position = bisect_left(stamps, placed[1])
            if position < len(stamps) and stamps[position] == placed[1]:
                del stamps[position]

    def _rebuild_exceptions(self) -> None:
        """Recompute every exception set (floor changes and restores
        move stamps or counters wholesale; both are rare)."""
        tracked = list(self._tracked.values())
        self._tracked.clear()
        self._unvouched.clear()
        self._stamps.clear()
        self._stamp_entry.clear()
        for instance in tracked:
            self._track(instance)

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self) -> Dict:
        """JSON-compatible counter state; keys themselves are derived
        state and are rebuilt by registry replay on restore."""
        with self._lock:
            return {
                "floor": self._floor,
                "coarse": dict(self._coarse),
                "keys": {
                    key.canonical: key.last_bump_lsn for key in self._keys.values()
                },
            }

    def restore_state(self, state: Optional[Dict], fallback_floor: int) -> int:
        """Overlay checkpointed counters onto the replay-rebuilt keys.

        Returns the number of key counters restored.  With no usable
        state (old-format snapshot) the floor rises to ``fallback_floor``
        (the restored cursor) so pre-checkpoint stamps are never vouched
        for — conservative, not stale.
        """
        with self._lock:
            if not state:
                self._floor = max(self._floor, int(fallback_floor))
                for key in self._keys.values():
                    key.last_bump_lsn = max(key.last_bump_lsn, int(fallback_floor))
                self._rebuild_exceptions()
                return 0
            # The snapshot's floor *replaces* the construction-time one:
            # its counters cover everything from that floor through the
            # checkpoint, and the rewound cursor replays the rest through
            # ``observe`` before any pair is checked.  Truncation floors
            # are the exception — lost bumps stay lost.
            self._floor = max(
                int(state.get("floor", fallback_floor)), self._truncation_floor
            )
            for table, lsn in (state.get("coarse") or {}).items():
                if self._coarse.get(table, -1) < int(lsn):
                    self._coarse[table] = int(lsn)
            counters = state.get("keys") or {}
            restored = 0
            for key in self._keys.values():
                if key.canonical in counters:
                    key.last_bump_lsn = max(
                        key.last_bump_lsn, int(counters[key.canonical])
                    )
                    restored += 1
                else:
                    # Unknown to the snapshot: assume bumped through the
                    # checkpoint so only post-restore quiet can vouch.
                    key.last_bump_lsn = max(key.last_bump_lsn, int(fallback_floor))
            self._rebuild_exceptions()
            return restored

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "keys": len(self._keys),
                "keyed_instances": len(self._key_of),
                "never_instances": len(self._never),
                "unkeyed_instances": self.instances_unkeyed,
                "tables": len(self._tables),
                "floor": self._floor,
                "records_observed": self.records_observed,
                "keys_bumped": self.keys_bumped,
                "checks": self.checks,
                "fresh_hits": self.fresh_hits,
            }

    # -- key construction ------------------------------------------------------

    def _build_key_parts(self, instance: QueryInstance, analysis: TypeAnalysis):
        """Fold one instance into key parts.

        Returns ``"never"`` for a provably constant-false instance,
        ``None`` when no sound key exists (the instance stays on the
        precise checker), or ``(ident, table, binding, templates,
        probe)``.  ``ident`` names the predicate region: the table plus
        each local conjunct's shape and the values its parameters take,
        so instances of different types over one WHERE share a key.
        """
        signature = instance.query_type.signature
        if signature not in self._shapes:
            self._shapes[signature] = (
                [
                    _conjunct_shape(template)
                    for template in next(iter(analysis.by_binding.values())).local_templates
                ]
                if analysis_qualifies(analysis)
                else None
            )
        shapes = self._shapes[signature]
        if shapes is None:
            return None  # defensive: verdicts and analyses agree in practice
        binding_analysis = next(iter(analysis.by_binding.values()))
        bound = instance.bound
        if bound.constant_false:
            return "never"
        if not bound.bindable:
            # Unbindable: the checker treats every touching record as
            # AFFECTED, and so must we — no counter can prove otherwise.
            return None
        bindings = instance.bindings
        parts: List[_RegionPart] = []
        for (text, positions), template in zip(shapes, binding_analysis.local_templates):
            if positions is None:
                # Name a subquery conjunct's region by its bound text.
                parts.append((to_sql(bind_expression(template, bindings)), ()))
                continue
            parts.append(
                (
                    text,
                    tuple(
                        (type(bindings[position]).__name__, bindings[position])
                        for position in positions
                    ),
                )
            )
        parts.sort()
        return (
            (binding_analysis.base_table, tuple(parts)),
            binding_analysis.base_table,
            binding_analysis.binding,
            binding_analysis.local_templates,
            bound.probe(binding_analysis.binding),
        )

    def _matches(self, key: _Key, tuple_values: Dict) -> bool:
        """True when the tuple satisfies every bound conjunct of the key
        — mirroring the grouped checker's local-condition loop, where an
        unevaluable condition cannot rule the tuple out."""
        scope = Scope([(key.binding, list(tuple_values.keys()))])
        return first_failing(key.conjuncts, tuple_values, scope) is None
