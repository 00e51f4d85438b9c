"""Type-level grouped independence checking (paper §4.1.2).

*"Since the number of query types and instances to be maintained can be
large, instead of treating each query instance individually, the
invalidator finds the related instances and process them as a group."*

The plain :class:`~repro.core.invalidator.analysis.IndependenceChecker`
re-derives the alias map and re-classifies every WHERE conjunct for every
(instance, update) pair.  All of that structure is a property of the
*query type*: instances differ only in their parameter bindings.  This
module performs the structural analysis once per type
(:class:`TypeAnalysis`) and reduces the per-instance work to binding
parameters into pre-classified conjunct templates.

:class:`GroupedChecker` produces verdicts identical to the per-instance
checker (tested property), at a fraction of the cost when many instances
share a type — the common case for servlet-generated queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DatabaseError, ReproError
from repro.sql import ast
from repro.sql.analysis import (
    all_conditions,
    alias_map,
    column_free,
    has_left_join,
    implied_equalities,
)
from repro.sql.params import Value, bind_expression
from repro.sql.printer import to_sql
from repro.sql.satisfiability import Extraction, extract, scoped_resolver
from repro.db.expr import Scope
from repro.db.log import UpdateRecord
from repro.db.types import sql_compare
from repro.core.invalidator.analysis import (
    UNEVALUABLE,
    IndependenceChecker,
    Verdict,
    VerdictKind,
    first_failing,
    fold_constant,
    polling_query,
)
from repro.core.invalidator.registration import QueryInstance, QueryType


@dataclass(frozen=True)
class IndexableConjunct:
    """One local conjunct template the predicate index can turn into a
    probe structure.

    Kinds (``column`` is the tuple column the probe reads):

    * ``"eq"`` — ``column = <value>``; value side is column-free.
    * ``"in"`` — ``column IN (<values>)`` (non-negated).
    * ``"range"`` — ``column <op> <value>`` for ``< <= > >=``, or
      ``column BETWEEN <low> AND <high>`` (non-negated).  ``op`` is
      normalized so the column sits on the left; for BETWEEN it is None.
    * ``"isnull"`` — ``column IS [NOT] NULL``.

    Soundness requires that the grouped checker could itself evaluate the
    conjunct against a changed tuple: the column reference is either
    unqualified (single-binding queries) or qualified by the *binding*
    name — never by a base-table name hidden behind an alias, which the
    checker's scope cannot resolve.
    """

    kind: str
    column: str
    template: ast.Expr
    op: Optional[ast.BinaryOp] = None
    negated: bool = False


#: Preference order when one instance offers several indexable conjuncts:
#: equality prunes hardest, IS NULL barely at all.
_INDEX_KIND_RANK = {"eq": 0, "in": 1, "range": 2, "isnull": 3}


@dataclass
class BindingAnalysis:
    """Pre-classified conjunct templates for one table occurrence."""

    binding: str
    base_table: str
    #: Conjuncts referencing only this binding (parameters unbound).
    local_templates: List[ast.Expr] = field(default_factory=list)
    #: Conjuncts also referencing other bindings.
    residual_templates: List[ast.Expr] = field(default_factory=list)
    #: The subset of ``local_templates`` with an index-probe shape,
    #: best-pruning kinds first (see :class:`IndexableConjunct`).
    indexable_templates: List[IndexableConjunct] = field(default_factory=list)
    #: Equalities implied across inner-join equality chains
    #: (:func:`~repro.sql.analysis.implied_equalities`).  Kept apart from
    #: ``local_templates`` so the conflict matrix's certificates and the
    #: version-key qualification see only what the query states.
    implied_templates: List[ast.Expr] = field(default_factory=list)
    #: What the predicate index may probe on: the indexable locals plus
    #: the indexable implied equalities, best-pruning kinds first.
    probe_templates: List[IndexableConjunct] = field(default_factory=list)

    def extraction(self, bindings: Optional[Tuple[Value, ...]]) -> Extraction:
        """Satisfiability extraction of the local conjuncts, folded with
        ``bindings`` (None: valid for every binding)."""
        return extract(self.local_templates, bindings, scoped_resolver(self.binding))


@dataclass
class TypeAnalysis:
    """The once-per-type structural decomposition."""

    aliases: Dict[str, str]
    has_left_join: bool
    constant_templates: List[ast.Expr]
    by_binding: Dict[str, BindingAnalysis]
    #: All referenced tables, including via subqueries and UNION parts.
    all_tables: frozenset = frozenset()
    #: Compound (UNION) templates get only table-level treatment.
    is_union: bool = False
    #: Base table → the bindings it is joined under, in FROM order.
    bindings_by_table: Dict[str, List[str]] = field(default_factory=dict)
    #: Binding-tuple length → whether the non-constant conditions bind.
    _binds: Dict[int, bool] = field(default_factory=dict, repr=False)

    def binds(self, bindings: Tuple[Value, ...]) -> bool:
        """True when every non-constant condition binds with ``bindings``.

        Binding fails only for a parameter with no value, so the answer
        depends on the tuple's length alone and is computed once per
        length."""
        known = self._binds.get(len(bindings))
        if known is None:
            known = True
            try:
                for analysis in self.by_binding.values():
                    for template in analysis.local_templates + analysis.residual_templates:
                        bind_expression(template, bindings)
            except ReproError:
                known = False
            self._binds[len(bindings)] = known
        return known

    @classmethod
    def of(cls, query_type: QueryType) -> "TypeAnalysis":
        from repro.sql.analysis import referenced_tables

        template = query_type.template
        all_tables = frozenset(referenced_tables(template))
        if isinstance(template, ast.Union):
            return cls(
                aliases={},
                has_left_join=False,
                constant_templates=[],
                by_binding={},
                all_tables=all_tables,
                is_union=True,
            )
        aliases = alias_map(template)
        conditions = all_conditions(template)
        single_binding = len(aliases) == 1
        constant_templates: List[ast.Expr] = []
        by_binding = {
            binding: BindingAnalysis(binding, base_table)
            for binding, base_table in aliases.items()
        }
        for condition in conditions:
            referenced: Set[Optional[str]] = set()
            for node in ast.walk(condition):
                if isinstance(node, ast.ColumnRef):
                    referenced.add(node.table.lower() if node.table else None)
            if not referenced:
                constant_templates.append(condition)
                continue
            for binding, analysis in by_binding.items():
                placement = cls._placement(
                    referenced, binding, analysis.base_table, single_binding
                )
                if placement == "local":
                    analysis.local_templates.append(condition)
                elif placement == "residual":
                    analysis.residual_templates.append(condition)
        left_join = has_left_join(template)
        implied = {} if left_join else implied_equalities(conditions, aliases)
        for analysis in by_binding.values():
            analysis.implied_templates = implied.get(analysis.binding, [])
            analysis.indexable_templates = cls._ranked(
                analysis.local_templates, analysis.binding
            )
            analysis.probe_templates = cls._ranked(
                analysis.local_templates + analysis.implied_templates,
                analysis.binding,
            )
        bindings_by_table: Dict[str, List[str]] = {}
        for binding, base_table in aliases.items():
            bindings_by_table.setdefault(base_table, []).append(binding)
        return cls(
            aliases=aliases,
            has_left_join=left_join,
            constant_templates=constant_templates,
            by_binding=by_binding,
            all_tables=all_tables,
            bindings_by_table=bindings_by_table,
        )

    @classmethod
    def _ranked(
        cls, conditions: List[ast.Expr], binding: str
    ) -> List[IndexableConjunct]:
        indexable = [
            found
            for condition in conditions
            for found in [cls._indexable(condition, binding)]
            if found is not None
        ]
        indexable.sort(key=lambda c: _INDEX_KIND_RANK[c.kind])
        return indexable

    @classmethod
    def _indexable(
        cls, condition: ast.Expr, binding: str
    ) -> Optional[IndexableConjunct]:
        """Classify one local conjunct template for the predicate index,
        or return None when it has no probe-friendly shape."""
        if isinstance(condition, ast.Binary) and condition.op in ast.COMPARISONS:
            if condition.op is ast.BinaryOp.NE:
                return None  # "everything but one value" prunes nothing
            column = cls._probe_column(condition.left, binding)
            if column is not None and column_free(condition.right):
                op = condition.op
            else:
                column = cls._probe_column(condition.right, binding)
                if column is None or not column_free(condition.left):
                    return None
                op = ast.FLIPPED[condition.op]
            kind = "eq" if op is ast.BinaryOp.EQ else "range"
            return IndexableConjunct(kind, column, condition, op=op)
        if isinstance(condition, ast.Between) and not condition.negated:
            column = cls._probe_column(condition.expr, binding)
            if (
                column is not None
                and column_free(condition.low)
                and column_free(condition.high)
            ):
                return IndexableConjunct("range", column, condition)
            return None
        if isinstance(condition, ast.InList) and not condition.negated:
            column = cls._probe_column(condition.expr, binding)
            if column is not None and all(
                column_free(item) for item in condition.items
            ):
                return IndexableConjunct("in", column, condition)
            return None
        if isinstance(condition, ast.IsNull):
            column = cls._probe_column(condition.expr, binding)
            if column is not None:
                return IndexableConjunct(
                    "isnull", column, condition, negated=condition.negated
                )
        return None

    @staticmethod
    def _probe_column(expr: ast.Expr, binding: str) -> Optional[str]:
        """Lower-case column name when ``expr`` is a plain reference the
        checker's tuple scope could resolve (unqualified, or qualified by
        the binding name — not by an aliased-away base table)."""
        if not isinstance(expr, ast.ColumnRef):
            return None
        if expr.table is not None and expr.table.lower() != binding:
            return None
        return expr.column.lower()

    @staticmethod
    def _placement(
        referenced: Set[Optional[str]],
        binding: str,
        base_table: str,
        single_binding: bool,
    ) -> str:
        if None in referenced and not single_binding:
            return "residual"
        qualified = {name for name in referenced if name is not None}
        if qualified <= {binding, base_table}:
            return "local"
        return "residual"


#: Interval spec: (low, low_incl, high, high_incl, has_low, has_high).
IntervalSpec = Tuple[Value, bool, Value, bool, bool, bool]

#: A folded probe: ("hash", column, values) | ("interval", column, spec) |
#: ("isnull", column, negated).
Probe = Tuple[str, str, object]


def fold_probe(
    conjuncts: Sequence[IndexableConjunct], bindings: Tuple[Value, ...]
) -> Optional[Probe]:
    """Fold the best-ranked foldable conjunct into a probe structure.

    ``conjuncts`` come best-pruning kind first.  Equality and IN-lists
    become hash keys; a range conjunct becomes an interval, intersected
    with every other foldable range on the same column, so ``price >= ?
    AND price < ?`` probes as one bounded interval rather than a half
    line.  None when nothing folds to constants.  Shared by the
    predicate index (check-time candidates) and the version-key index
    (bump-time candidates), which must honour the same soundness cases.
    """
    for position, conjunct in enumerate(conjuncts):
        folded = _fold_one(conjunct, bindings)
        if folded is None:
            continue
        if folded[0] != "interval":
            return folded
        spec = folded[2]
        for other in conjuncts[position + 1 :]:
            if other.kind == "range" and other.column == conjunct.column:
                more = _fold_one(other, bindings)
                if more is not None:
                    spec = _intersect(spec, more[2])
        return ("interval", conjunct.column, spec)
    return None


def _fold_one(conjunct: IndexableConjunct, bindings: Tuple[Value, ...]) -> Optional[Probe]:
    template = conjunct.template
    if conjunct.kind == "isnull":
        return ("isnull", conjunct.column, conjunct.negated)
    if conjunct.kind == "in":
        values = []
        for item in template.items:
            value = fold_constant(item, bindings)
            if value is UNEVALUABLE:
                return None
            values.append(value)
        return ("hash", conjunct.column, tuple(values))
    if isinstance(template, ast.Between):
        low = fold_constant(template.low, bindings)
        high = fold_constant(template.high, bindings)
        if low is UNEVALUABLE or high is UNEVALUABLE:
            return None
        return ("interval", conjunct.column, (low, True, high, True, True, True))
    # Binary comparison; conjunct.op is normalized (column on the left),
    # but the template keeps its original orientation.
    left_is_column = isinstance(template.left, ast.ColumnRef)
    bound = fold_constant(template.right if left_is_column else template.left, bindings)
    if bound is UNEVALUABLE:
        return None
    if conjunct.kind == "eq":
        return ("hash", conjunct.column, (bound,))
    op = conjunct.op
    if op is ast.BinaryOp.LT:
        spec = (None, False, bound, False, False, True)
    elif op is ast.BinaryOp.LE:
        spec = (None, False, bound, True, False, True)
    elif op is ast.BinaryOp.GT:
        spec = (bound, False, None, False, True, False)
    else:  # GE
        spec = (bound, True, None, False, True, False)
    return ("interval", conjunct.column, spec)


def _intersect(a: IntervalSpec, b: IntervalSpec) -> IntervalSpec:
    """The interval both specs admit.  A NULL bound on either side can
    never compare TRUE, so it survives (the entry stays unreachable)."""
    low, low_incl, has_low = _tighter(a[0], a[1], a[4], b[0], b[1], b[4], 1)
    high, high_incl, has_high = _tighter(a[2], a[3], a[5], b[2], b[3], b[5], -1)
    return (low, low_incl, high, high_incl, has_low, has_high)


def _tighter(value_a, incl_a, has_a, value_b, incl_b, has_b, direction):
    """The tighter of two bounds: the larger low (direction 1) or the
    smaller high (direction -1); on a tie, strict beats inclusive."""
    if not has_b:
        return value_a, incl_a, has_a
    if not has_a:
        return value_b, incl_b, has_b
    if value_a is None or value_b is None:
        return None, False, True
    order = sql_compare(value_a, value_b)
    if order == 0:
        return value_a, incl_a and incl_b, True
    return (value_a, incl_a, True) if order == direction else (value_b, incl_b, True)



class InstanceAnalysis:
    """The one binding pass over a type's analysis for one instance.

    Every registry listener needs the same per-instance facts — do the
    templates bind, does a constant condition fold to false, which probe
    structure does a binding's best conjunct fold into, what does the
    satisfiability engine extract — so registration computes each once
    (:attr:`QueryInstance.bound`) and the predicate index, the version-key
    index and the conflict matrix all read it.  Probes and extractions
    are built on first read.
    """

    __slots__ = (
        "analysis",
        "bindings",
        "bindable",
        "constant_false",
        "_probes",
        "_extraction",
    )

    def __init__(self, analysis: TypeAnalysis, bindings: Tuple[Value, ...]) -> None:
        self.analysis = analysis
        self.bindings = bindings
        #: Every non-constant condition binds; when False the checker is
        #: conservative (AFFECTED) and nothing may prune the instance.
        self.bindable = analysis.binds(bindings)
        #: Some query-wide constant condition folds to False: the query
        #: is empty for these bindings, so no update can affect it.
        constants = analysis.constant_templates
        self.constant_false = bool(constants) and any(
            fold_constant(template, bindings) is False for template in constants
        )
        self._probes: Dict[str, Optional[Probe]] = {}
        self._extraction: Optional[Dict[str, Extraction]] = None

    def probe(self, binding: str) -> Optional["Probe"]:
        """The folded probe of ``binding``'s best foldable conjunct."""
        if binding not in self._probes:
            self._probes[binding] = fold_probe(
                self.analysis.by_binding[binding].probe_templates, self.bindings
            )
        return self._probes[binding]

    def extraction(self) -> Optional[Dict[str, Extraction]]:
        """Per-binding satisfiability extraction with the bindings folded
        in, or None when the templates do not bind."""
        if not self.bindable:
            return None
        if self._extraction is None:
            self._extraction = {
                binding: binding_analysis.extraction(self.bindings)
                for binding, binding_analysis in self.analysis.by_binding.items()
            }
        return self._extraction


class GroupedChecker:
    """Independence checking with per-type analysis caching.

    Drop-in alternative to :class:`IndependenceChecker` for instances that
    carry their :class:`QueryType`.  Analyses are cached by type id for
    the checker's lifetime (types are immutable once registered).
    """

    def __init__(self) -> None:
        self._analyses: Dict[int, TypeAnalysis] = {}
        # Per-instance bound conditions: an instance's bindings never
        # change, so binding parameters into the templates happens once.
        self._bound: Dict[Tuple[int, str], Tuple[list, list]] = {}
        self.analyses_computed = 0
        self.checks_performed = 0

    def analysis_for(self, query_type: QueryType) -> TypeAnalysis:
        analysis = self._analyses.get(query_type.type_id)
        if analysis is None:
            analysis = query_type.analysis
            self._analyses[query_type.type_id] = analysis
            self.analyses_computed += 1
        return analysis

    def check_instance(self, instance: QueryInstance, record: UpdateRecord) -> Verdict:
        """Classify one update against one instance via its type analysis."""
        self.checks_performed += 1
        analysis = self.analysis_for(instance.query_type)
        if record.table not in analysis.all_tables:
            return Verdict(VerdictKind.UNAFFECTED, reason="table not referenced")
        if analysis.is_union:
            return Verdict(VerdictKind.AFFECTED, reason="union: conservative")
        if record.table not in set(analysis.aliases.values()):
            return Verdict(
                VerdictKind.AFFECTED, reason="referenced via subquery: conservative"
            )
        if analysis.has_left_join:
            return Verdict(VerdictKind.AFFECTED, reason="left join: conservative")

        bindings = instance.bindings
        # Constant conditions apply query-wide: a provably false one means
        # the query is always empty, hence unaffected by anything.
        for template in analysis.constant_templates:
            if fold_constant(template, bindings) is False:
                return Verdict(VerdictKind.UNAFFECTED, reason="constant-false condition")

        tuple_values = record.as_dict()
        overall: Optional[Verdict] = None
        for binding, binding_analysis in analysis.by_binding.items():
            if binding_analysis.base_table != record.table:
                continue
            locals_bound, implied_bound, residuals_bound = self._bound_conditions(
                instance, binding_analysis
            )
            verdict = self._check_binding(
                analysis,
                binding_analysis,
                locals_bound,
                implied_bound,
                residuals_bound,
                tuple_values,
            )
            overall = IndependenceChecker._combine(overall, verdict)
            if overall.kind is VerdictKind.AFFECTED:
                return overall
        return overall or Verdict(VerdictKind.UNAFFECTED)

    def _bound_conditions(
        self, instance: QueryInstance, binding_analysis: BindingAnalysis
    ) -> Tuple[list, list, Optional[list]]:
        """Bind the instance's parameters into the templates, memoized:
        (locals, implied equalities, residuals — None when unbindable)."""
        key = (instance.instance_id, binding_analysis.binding)
        cached = self._bound.get(key)
        if cached is not None:
            return cached
        try:
            locals_bound = [
                bind_expression(template, instance.bindings)
                for template in binding_analysis.local_templates
            ]
            residuals_bound: Optional[list] = [
                bind_expression(template, instance.bindings)
                for template in binding_analysis.residual_templates
            ]
        except (DatabaseError, ReproError):
            locals_bound, residuals_bound = [], None
        try:
            implied_bound = [
                bind_expression(template, instance.bindings)
                for template in binding_analysis.implied_templates
            ]
        except (DatabaseError, ReproError):
            implied_bound = []  # only ever prunes: dropping it is safe
        cached = (locals_bound, implied_bound, residuals_bound)
        self._bound[key] = cached
        return cached

    # -- internals --------------------------------------------------------------

    def _check_binding(
        self,
        analysis: TypeAnalysis,
        binding_analysis: BindingAnalysis,
        locals_bound: list,
        implied_bound: list,
        residuals_bound: Optional[list],
        tuple_values: Dict[str, Value],
    ) -> Verdict:
        scope = Scope([(binding_analysis.binding, list(tuple_values.keys()))])
        failed = first_failing(locals_bound + implied_bound, tuple_values, scope)
        if failed is not None:
            return Verdict(
                VerdictKind.UNAFFECTED,
                reason=f"tuple fails local condition {to_sql(failed)}",
            )

        other_bindings = [
            name for name in analysis.aliases if name != binding_analysis.binding
        ]
        if not other_bindings:
            return Verdict(VerdictKind.AFFECTED, reason="single-table query")

        if residuals_bound is None:
            return Verdict(VerdictKind.AFFECTED, reason="unbindable residual")
        polling = polling_query(
            binding_analysis.binding, analysis.aliases, residuals_bound, tuple_values
        )
        if polling is None:
            return Verdict(VerdictKind.AFFECTED, reason="unsubstitutable residual")
        return Verdict(VerdictKind.NEEDS_POLLING, polling_query=polling)
