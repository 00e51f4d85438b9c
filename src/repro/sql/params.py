"""Query-instance ↔ query-type conversion (paper §2.3.2 and §4.1.2).

A *query instance* is a fully bound SELECT as issued by the application
server, e.g.::

    SELECT * FROM car WHERE car.price < 25000

Its *query type* replaces the constants that vary across instances with
positional parameters::

    SELECT * FROM car WHERE car.price < $1        -- bindings: (25000,)

The invalidator registers query types once and keeps one binding tuple per
instance, which is what makes grouping "related instances" (§4.1.2)
possible: two instances of the same type share all analysis work.

Only literals inside the WHERE/HAVING clauses and join ON conditions are
parameterized; constants in the select list are part of the page structure,
not of the data selection, and stay inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple, Union

from repro.errors import ExecutionError, SQLError
from repro.sql import ast
from repro.sql.printer import to_sql

Value = Union[int, float, str, bool, None]


@dataclass(frozen=True)
class ParameterizedQuery:
    """A query type plus the bindings extracted from one instance.

    Attributes:
        template: the SELECT with :class:`~repro.sql.ast.Parameter` nodes.
        bindings: constants extracted, ordered by parameter index.
        signature: canonical SQL text of the template — the query-type key.
    """

    template: Union[ast.Select, "ast.Union"]
    bindings: Tuple[Value, ...]
    signature: str


class _Extractor:
    """Rewrites literals to parameters while collecting their values."""

    def __init__(self) -> None:
        self.bindings: List[Value] = []
        #: Pre-existing placeholders seen while extracting.  They collide
        #: with the indexes handed to lifted literals and print in whatever
        #: style (``?`` vs ``$n``) the template author used, so the caller
        #: canonicalizes the whole statement when this is set.
        self.saw_parameters = False

    def rewrite(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Parameter):
            self.saw_parameters = True
            return node
        if isinstance(node, ast.Literal):
            self.bindings.append(node.value)
            return ast.Parameter(len(self.bindings))
        if isinstance(node, ast.Binary):
            return ast.Binary(node.op, self.rewrite(node.left), self.rewrite(node.right))
        if isinstance(node, ast.Unary):
            return ast.Unary(node.op, self.rewrite(node.operand))
        if isinstance(node, ast.Between):
            return ast.Between(
                self.rewrite(node.expr),
                self.rewrite(node.low),
                self.rewrite(node.high),
                node.negated,
            )
        if isinstance(node, ast.InList):
            return ast.InList(
                self.rewrite(node.expr),
                tuple(self.rewrite(item) for item in node.items),
                node.negated,
            )
        if isinstance(node, ast.IsNull):
            return ast.IsNull(self.rewrite(node.expr), node.negated)
        if isinstance(node, ast.FunctionCall):
            return ast.FunctionCall(
                node.name, tuple(self.rewrite(arg) for arg in node.args), node.distinct
            )
        if isinstance(node, ast.Case):
            whens = tuple(
                (self.rewrite(cond), self.rewrite(value)) for cond, value in node.whens
            )
            default = self.rewrite(node.default) if node.default is not None else None
            return ast.Case(whens, default)
        if isinstance(node, ast.Exists):
            return ast.Exists(
                _rewrite_select_conditions(node.query, self.rewrite), node.negated
            )
        if isinstance(node, ast.InSelect):
            return ast.InSelect(
                self.rewrite(node.expr),
                _rewrite_select_conditions(node.query, self.rewrite),
                node.negated,
            )
        if isinstance(node, ast.ScalarSubquery):
            return ast.ScalarSubquery(
                _rewrite_select_conditions(node.query, self.rewrite)
            )
        # ColumnRef, Parameter, Star: nothing to extract.
        return node


class _Renumberer:
    """Canonicalizes placeholders to sequential ``$1..$n``.

    Applied to the *original* statement (literals still inline) when it
    mixes placeholders with constants: literals and anonymous ``?``
    markers each take the next index, while a repeated ``$k`` keeps
    mapping to the same new index so value-sharing semantics (``a = $1 OR
    b = $1``) survive.  The walk order matches :class:`_Extractor`
    exactly, which is what makes ``price < ?``, ``price < $3`` and
    ``price < 20000`` all canonicalize to the same ``price < $1``
    signature.
    """

    def __init__(self) -> None:
        self._mapping: dict = {}
        self._next = 0

    def rewrite(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, (ast.Literal, ast.Parameter)):
            if isinstance(node, ast.Parameter) and node.index is not None:
                if node.index not in self._mapping:
                    self._next += 1
                    self._mapping[node.index] = self._next
                return ast.Parameter(self._mapping[node.index])
            self._next += 1
            return ast.Parameter(self._next)
        if isinstance(node, ast.Binary):
            return ast.Binary(node.op, self.rewrite(node.left), self.rewrite(node.right))
        if isinstance(node, ast.Unary):
            return ast.Unary(node.op, self.rewrite(node.operand))
        if isinstance(node, ast.Between):
            return ast.Between(
                self.rewrite(node.expr),
                self.rewrite(node.low),
                self.rewrite(node.high),
                node.negated,
            )
        if isinstance(node, ast.InList):
            return ast.InList(
                self.rewrite(node.expr),
                tuple(self.rewrite(item) for item in node.items),
                node.negated,
            )
        if isinstance(node, ast.IsNull):
            return ast.IsNull(self.rewrite(node.expr), node.negated)
        if isinstance(node, ast.FunctionCall):
            return ast.FunctionCall(
                node.name, tuple(self.rewrite(arg) for arg in node.args), node.distinct
            )
        if isinstance(node, ast.Case):
            whens = tuple(
                (self.rewrite(cond), self.rewrite(value)) for cond, value in node.whens
            )
            default = self.rewrite(node.default) if node.default is not None else None
            return ast.Case(whens, default)
        if isinstance(node, ast.Exists):
            return ast.Exists(
                _rewrite_select_conditions(node.query, self.rewrite), node.negated
            )
        if isinstance(node, ast.InSelect):
            return ast.InSelect(
                self.rewrite(node.expr),
                _rewrite_select_conditions(node.query, self.rewrite),
                node.negated,
            )
        if isinstance(node, ast.ScalarSubquery):
            return ast.ScalarSubquery(
                _rewrite_select_conditions(node.query, self.rewrite)
            )
        return node


def _rewrite_source(source: ast.FromSource, rewrite: Callable[[ast.Expr], ast.Expr]) -> ast.FromSource:
    if isinstance(source, (ast.TableRef, ast.ValuesSource)):
        # VALUES rows are instance payload (probe parameters), never part
        # of the query type's selection structure — leave them inline.
        return source
    on = rewrite(source.on) if source.on is not None else None
    return ast.Join(
        source.kind,
        _rewrite_source(source.left, rewrite),
        _rewrite_source(source.right, rewrite),
        on,
    )


def _rewrite_select_conditions(
    stmt: ast.Select, rewrite: Callable[[ast.Expr], ast.Expr]
) -> ast.Select:
    """Rewrite a (sub)query's WHERE/HAVING/ON with ``rewrite``.

    The select list and grouping keys stay untouched — like top-level
    parameterization, only data-selection constants are lifted.
    """
    where = rewrite(stmt.where) if stmt.where is not None else None
    having = rewrite(stmt.having) if stmt.having is not None else None
    sources = tuple(_rewrite_source(source, rewrite) for source in stmt.sources)
    return ast.Select(
        items=stmt.items,
        sources=sources,
        where=where,
        group_by=stmt.group_by,
        having=having,
        order_by=stmt.order_by,
        limit=stmt.limit,
        offset=stmt.offset,
        distinct=stmt.distinct,
    )


def _rewrite_statement(
    stmt: Union[ast.Select, ast.Union],
    rewrite: Callable[[ast.Expr], ast.Expr],
) -> Union[ast.Select, ast.Union]:
    """Rewrite the data-selection expressions of a SELECT or UNION."""
    if isinstance(stmt, ast.Union):
        parts = tuple(
            _rewrite_select_conditions(part, rewrite) for part in stmt.parts
        )
        return ast.Union(
            parts, stmt.all_flags, stmt.order_by, stmt.limit, stmt.offset
        )
    return _rewrite_select_conditions(stmt, rewrite)


def parameterize(stmt) -> ParameterizedQuery:
    """Turn a bound SELECT (or UNION) into its query type plus bindings.

    A statement that already contains ``?``/``$n`` placeholders (offline
    template registration rather than a sniffed instance) is renumbered to
    canonical sequential ``$1..$n`` in a second pass, so that ``price <
    ?``, ``price < $3`` and ``price < 20000`` all produce one signature
    instead of registering as distinct query types.  Such templates carry
    no bindings; fully bound instances never contain placeholders and
    keep the identity mapping between bindings and parameter indexes.
    """
    extractor = _Extractor()
    template = _rewrite_statement(stmt, extractor.rewrite)
    bindings: Tuple[Value, ...] = tuple(extractor.bindings)
    if extractor.saw_parameters:
        template = _rewrite_statement(stmt, _Renumberer().rewrite)
        bindings = ()
    return ParameterizedQuery(
        template=template,
        bindings=bindings,
        signature=to_sql(template),
    )


#: Where one canonical binding of a bound template comes from:
#: ``(position, constant, negate)``.  ``position`` indexes the bindings
#: the template executes with (``-1``: the template's own literal
#: ``constant``); ``negate`` flips the sign of a negative bound number.
BindingSlot = Tuple[int, Value, bool]


class _SlotExtractor(_Extractor):
    """:class:`_Extractor` over a template whose ``$n`` parameters are
    bound at execution: a lifted parameter records its binding position
    instead of a value, so one walk serves every binding tuple.

    Positions in ``negated`` are bound to negative numbers.  A printed
    instance spells those ``-5``, which parses back as ``-(5)``: the
    parameter goes under unary minus and the slot flips the sign, as
    parameterizing the printed instance would."""

    def __init__(self, negated: FrozenSet[int]) -> None:
        super().__init__()
        self.negated = negated
        self.slots: List[BindingSlot] = []

    def rewrite(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Parameter):
            position = (node.index or 0) - 1
            negate = position in self.negated
            self.slots.append((position, None, negate))
            parameter = ast.Parameter(len(self.slots))
            return ast.Unary(ast.UnaryOp.NEG, parameter) if negate else parameter
        if isinstance(node, ast.Literal):
            self.slots.append((-1, node.value, False))
            return ast.Parameter(len(self.slots))
        return super().rewrite(node)


def parameterize_template(
    stmt: Union[ast.Select, ast.Union], negated: FrozenSet[int] = frozenset()
) -> Tuple[ParameterizedQuery, Tuple[BindingSlot, ...]]:
    """The query type of every bound instance of a numbered template.

    ``stmt`` carries ``$n`` parameters (see :func:`number_parameters`).
    Returns the type (bindings empty) and one :data:`BindingSlot` per
    canonical parameter, so an instance's canonical bindings follow from
    its execution bindings without printing or parsing it.  Parameters
    outside the lifted regions (select list, VALUES) are not slotted, so
    the slots do not describe such a template; discovery
    (:mod:`repro.core.discovery`) detects that by checking each plan once
    against parameterizing the printed instance.
    """
    extractor = _SlotExtractor(negated)
    template = _rewrite_statement(stmt, extractor.rewrite)
    query = ParameterizedQuery(template=template, bindings=(), signature=to_sql(template))
    return query, tuple(extractor.slots)


def polling_key(stmt: Union[ast.Select, ast.Union]) -> Tuple[str, Tuple[Value, ...]]:
    """Canonical identity of a *bound* query: (type signature, bindings).

    Two polling queries coalesce exactly when they select the same data —
    same parameterized template AND same constants.  Keying a cycle's
    result memo by printed SQL misses equivalent spellings (``price <
    20000`` vs ``price < 20000.0`` print differently; alias or literal
    formatting differences likewise), while keying by signature alone
    would wrongly merge different constants.  This key recovers the former
    without the latter: bindings are compared with Python equality, which
    matches SQL numeric equality for the int/float values that reach the
    invalidator.
    """
    parameterized = parameterize(stmt)
    return parameterized.signature, parameterized.bindings


class _Binder:
    """Substitutes parameters with their bound values."""

    def __init__(self, bindings: Tuple[Value, ...]) -> None:
        self.bindings = bindings
        self._anonymous_next = 0

    def rewrite(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Parameter):
            if node.index is None:
                index = self._anonymous_next
                self._anonymous_next += 1
            else:
                index = node.index - 1
            if index < 0 or index >= len(self.bindings):
                raise ExecutionError(
                    f"parameter ${index + 1} has no binding "
                    f"(got {len(self.bindings)} values)"
                )
            return ast.Literal(self.bindings[index])
        if isinstance(node, ast.Binary):
            return ast.Binary(node.op, self.rewrite(node.left), self.rewrite(node.right))
        if isinstance(node, ast.Unary):
            return ast.Unary(node.op, self.rewrite(node.operand))
        if isinstance(node, ast.Between):
            return ast.Between(
                self.rewrite(node.expr),
                self.rewrite(node.low),
                self.rewrite(node.high),
                node.negated,
            )
        if isinstance(node, ast.InList):
            return ast.InList(
                self.rewrite(node.expr),
                tuple(self.rewrite(item) for item in node.items),
                node.negated,
            )
        if isinstance(node, ast.IsNull):
            return ast.IsNull(self.rewrite(node.expr), node.negated)
        if isinstance(node, ast.FunctionCall):
            return ast.FunctionCall(
                node.name, tuple(self.rewrite(arg) for arg in node.args), node.distinct
            )
        if isinstance(node, ast.Case):
            whens = tuple(
                (self.rewrite(cond), self.rewrite(value)) for cond, value in node.whens
            )
            default = self.rewrite(node.default) if node.default is not None else None
            return ast.Case(whens, default)
        if isinstance(node, ast.Exists):
            return ast.Exists(
                _rewrite_select_conditions(node.query, self.rewrite), node.negated
            )
        if isinstance(node, ast.InSelect):
            return ast.InSelect(
                self.rewrite(node.expr),
                _rewrite_select_conditions(node.query, self.rewrite),
                node.negated,
            )
        if isinstance(node, ast.ScalarSubquery):
            return ast.ScalarSubquery(
                _rewrite_select_conditions(node.query, self.rewrite)
            )
        return node


class _Numberer(_Binder):
    """Rewrites anonymous ``?`` markers to explicit ``$n`` parameters.

    Walks exactly like :class:`_Binder` (it reuses the traversal), so the
    k-th anonymous marker receives the index ``_Binder`` would have bound
    it with.  Explicit ``$n`` parameters pass through unchanged.  Used by
    the engine's plan cache: a numbered statement plans once and executes
    under any bindings, with parameters resolved at runtime.
    """

    def __init__(self) -> None:
        super().__init__(())

    def rewrite(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Parameter):
            if node.index is None:
                index = self._anonymous_next
                self._anonymous_next += 1
                return ast.Parameter(index + 1)
            return node
        return super().rewrite(node)


class _ArityProbe(_Binder):
    """Walks exactly like :class:`_Binder` and records, instead of
    binding, how many values a binding tuple must hold."""

    def __init__(self) -> None:
        super().__init__(())
        self.arity: Optional[int] = 0

    def rewrite(self, node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Parameter):
            if node.index is None:
                index = self._anonymous_next
                self._anonymous_next += 1
            else:
                index = node.index - 1
            if index < 0:
                self.arity = None  # ``$0``: no binding tuple satisfies it
            elif self.arity is not None:
                self.arity = max(self.arity, index + 1)
            return node
        return super().rewrite(node)


def binding_arity(stmt: Union[ast.Select, ast.Union]) -> Optional[int]:
    """Fewest values :func:`bind_parameters` binds ``stmt`` with without
    raising, or None when no tuple can bind it."""
    probe = _ArityProbe()
    for part in stmt.parts if isinstance(stmt, ast.Union) else (stmt,):
        _bind_select(part, probe)
    return probe.arity


def number_parameters(stmt: ast.Statement) -> ast.Statement:
    """Return ``stmt`` with anonymous ``?`` parameters numbered ``$1..$n``.

    Statement kinds without bindable expressions are returned unchanged.
    """
    numberer = _Numberer()
    if isinstance(stmt, ast.Select):
        return _bind_select(stmt, numberer)
    if isinstance(stmt, ast.Union):
        parts = tuple(_bind_select(part, numberer) for part in stmt.parts)
        return ast.Union(
            parts, stmt.all_flags, stmt.order_by, stmt.limit, stmt.offset
        )
    return stmt


def _bind_select(stmt: ast.Select, binder: "_Binder") -> ast.Select:
    where = binder.rewrite(stmt.where) if stmt.where is not None else None
    having = binder.rewrite(stmt.having) if stmt.having is not None else None
    sources = tuple(_rewrite_source(source, binder.rewrite) for source in stmt.sources)
    items = tuple(
        ast.SelectItem(binder.rewrite(item.expr), item.alias) for item in stmt.items
    )
    group_by = tuple(binder.rewrite(expr) for expr in stmt.group_by)
    order_by = tuple(
        ast.OrderItem(binder.rewrite(item.expr), item.descending)
        for item in stmt.order_by
    )
    return ast.Select(
        items=items,
        sources=sources,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=stmt.limit,
        offset=stmt.offset,
        distinct=stmt.distinct,
    )


def bind_expression(expr: Optional[ast.Expr], bindings: Tuple[Value, ...]) -> Optional[ast.Expr]:
    """Substitute the parameters of a bare expression with ``bindings``."""
    if expr is None:
        return None
    return _Binder(bindings).rewrite(expr)


def bind_parameters(stmt: ast.Statement, bindings: Tuple[Value, ...]) -> ast.Statement:
    """Substitute all parameters in ``stmt`` with the given ``bindings``.

    Anonymous ``?`` placeholders consume bindings left to right; ``$n``
    placeholders index into ``bindings`` directly (1-based).  Mixing both
    styles in one statement is allowed but rarely wise.
    """
    binder = _Binder(tuple(bindings))
    if isinstance(stmt, ast.Select):
        return _bind_select(stmt, binder)
    if isinstance(stmt, ast.Union):
        parts = tuple(_bind_select(part, binder) for part in stmt.parts)
        return ast.Union(
            parts, stmt.all_flags, stmt.order_by, stmt.limit, stmt.offset
        )
    if isinstance(stmt, ast.Insert):
        rows = tuple(
            tuple(binder.rewrite(value) for value in row) for row in stmt.rows
        )
        return ast.Insert(stmt.table, stmt.columns, rows)
    if isinstance(stmt, ast.Update):
        assignments = tuple(
            (column, binder.rewrite(value)) for column, value in stmt.assignments
        )
        where = binder.rewrite(stmt.where) if stmt.where is not None else None
        return ast.Update(stmt.table, assignments, where)
    if isinstance(stmt, ast.Delete):
        where = binder.rewrite(stmt.where) if stmt.where is not None else None
        return ast.Delete(stmt.table, where)
    raise SQLError(f"cannot bind parameters in {type(stmt).__name__}")
