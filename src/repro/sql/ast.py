"""AST node definitions for the SQL dialect.

Expression nodes are immutable (frozen dataclasses) so they can be hashed,
cached, and shared freely — the invalidator keeps thousands of them in its
query-type store.  Statement nodes are plain dataclasses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Marker base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, str, bool, or None (SQL NULL)."""

    value: Union[int, float, str, bool, None]


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly table-qualified column reference, e.g. ``car.model``."""

    column: str
    table: Optional[str] = None

    def key(self) -> str:
        """Canonical lower-case ``table.column`` (or bare column) string."""
        if self.table:
            return f"{self.table.lower()}.{self.column.lower()}"
        return self.column.lower()


@dataclass(frozen=True)
class Parameter(Expr):
    """A query parameter: ``$n`` (index = n) or ``?`` (index = None)."""

    index: Optional[int] = None


class BinaryOp(enum.Enum):
    """Binary operators, with their SQL spelling as value."""

    AND = "AND"
    OR = "OR"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    CONCAT = "||"
    LIKE = "LIKE"


#: Comparison operators, in the sense used by the invalidator's
#: interval-based independence analysis.
COMPARISONS = frozenset(
    {BinaryOp.EQ, BinaryOp.NE, BinaryOp.LT, BinaryOp.LE, BinaryOp.GT, BinaryOp.GE}
)

#: Operator → its mirror image (``a < b`` ≡ ``b > a``).
FLIPPED: dict = {
    BinaryOp.EQ: BinaryOp.EQ,
    BinaryOp.NE: BinaryOp.NE,
    BinaryOp.LT: BinaryOp.GT,
    BinaryOp.LE: BinaryOp.GE,
    BinaryOp.GT: BinaryOp.LT,
    BinaryOp.GE: BinaryOp.LE,
}

#: Operator → its logical negation (``NOT (a < b)`` ≡ ``a >= b``).
NEGATED: dict = {
    BinaryOp.EQ: BinaryOp.NE,
    BinaryOp.NE: BinaryOp.EQ,
    BinaryOp.LT: BinaryOp.GE,
    BinaryOp.LE: BinaryOp.GT,
    BinaryOp.GT: BinaryOp.LE,
    BinaryOp.GE: BinaryOp.LT,
}


@dataclass(frozen=True)
class Binary(Expr):
    """A binary operation ``left op right``."""

    op: BinaryOp
    left: Expr
    right: Expr


class UnaryOp(enum.Enum):
    NOT = "NOT"
    NEG = "-"
    POS = "+"


@dataclass(frozen=True)
class Unary(Expr):
    """A unary operation: ``NOT expr`` or ``-expr``."""

    op: UnaryOp
    operand: Expr


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (item, ...)``."""

    expr: Expr
    items: Tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``table.*`` in a select list or ``COUNT(*)``."""

    table: Optional[str] = None


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A function or aggregate call, e.g. ``COUNT(DISTINCT x)``."""

    name: str  # upper-case
    args: Tuple[Expr, ...]
    distinct: bool = False

    AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

    @property
    def is_aggregate(self) -> bool:
        return self.name in self.AGGREGATES


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class InSelect(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    expr: Expr
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """``(SELECT ...)`` used as a value; yields the first row's first
    column, or NULL when the subquery is empty."""

    query: "Select"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Marker base class for statements."""

    __slots__ = ()


@dataclass(frozen=True)
class TableRef:
    """A table in a FROM clause, with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is visible under inside the query."""
        return self.alias or self.name


class JoinKind(enum.Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    CROSS = "CROSS"


@dataclass(frozen=True)
class Join:
    """An explicit join between two from-sources."""

    kind: JoinKind
    left: "FromSource"
    right: "FromSource"
    on: Optional[Expr] = None


@dataclass(frozen=True)
class ValuesSource:
    """An inline derived table: ``(VALUES (...), ...) AS name (col, ...)``.

    Each row is a tuple of constant expressions; every row must have
    ``len(columns)`` entries.  The batch polling compiler uses this to
    ship per-instance probe parameters into one set-oriented query.
    """

    rows: Tuple[Tuple[Expr, ...], ...]
    name: str
    columns: Tuple[str, ...]

    @property
    def binding(self) -> str:
        """The name the derived table is visible under inside the query."""
        return self.name


FromSource = Union[TableRef, Join, ValuesSource]


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression and its optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    """One entry of an ORDER BY clause."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select(Statement):
    """A SELECT statement."""

    items: Tuple[SelectItem, ...]
    sources: Tuple[FromSource, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO table [(cols)] VALUES (...), (...)``."""

    table: str
    columns: Tuple[str, ...]  # empty means "all columns in schema order"
    rows: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE table SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM table [WHERE ...]``."""

    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class ColumnDef:
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str  # "INT", "REAL", or "TEXT"
    primary_key: bool = False
    unique: bool = False
    not_null: bool = False


@dataclass(frozen=True)
class CreateTable(Statement):
    table: str
    columns: Tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class DropTable(Statement):
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN <select>`` — plan the query, return the plan as text."""

    statement: Statement


@dataclass(frozen=True)
class BeginTransaction(Statement):
    """``BEGIN [TRANSACTION]``."""


@dataclass(frozen=True)
class CommitTransaction(Statement):
    """``COMMIT [TRANSACTION]``."""


@dataclass(frozen=True)
class RollbackTransaction(Statement):
    """``ROLLBACK [TRANSACTION]``."""


@dataclass(frozen=True)
class Union(Statement):
    """``select UNION [ALL] select [...] [ORDER BY ...] [LIMIT ...]``.

    ``parts`` holds the component selects (each without its own ORDER
    BY/LIMIT); the trailing tail applies to the combined result, as in
    standard SQL.  ``all_flags[i]`` is True when the i-th UNION keyword
    was ``UNION ALL`` (len == len(parts) - 1).
    """

    parts: Tuple[Select, ...]
    all_flags: Tuple[bool, ...]
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None


def _select_expressions(stmt: "Select"):
    """All expressions syntactically contained in a SELECT."""
    for item in stmt.items:
        yield item.expr
    if stmt.where is not None:
        yield stmt.where
    if stmt.having is not None:
        yield stmt.having
    yield from stmt.group_by
    for order in stmt.order_by:
        yield order.expr

    def source_conditions(source: "FromSource"):
        if isinstance(source, Join):
            if source.on is not None:
                yield source.on
            yield from source_conditions(source.left)
            yield from source_conditions(source.right)

    for source in stmt.sources:
        yield from source_conditions(source)


def walk(expr: Optional[Expr]) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, depth-first.

    Descends *into* subqueries (their WHERE/HAVING/select list/ON
    conditions), so column and table usage inside an ``EXISTS`` is visible
    to callers like the invalidator's dependency analysis.  ``None``
    yields nothing, which lets callers pass optional WHERE clauses
    without a guard.
    """
    if expr is None:
        return
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Between):
            stack.extend((node.expr, node.low, node.high))
        elif isinstance(node, InList):
            stack.append(node.expr)
            stack.extend(node.items)
        elif isinstance(node, IsNull):
            stack.append(node.expr)
        elif isinstance(node, FunctionCall):
            stack.extend(node.args)
        elif isinstance(node, Case):
            for cond, value in node.whens:
                stack.append(cond)
                stack.append(value)
            if node.default is not None:
                stack.append(node.default)
        elif isinstance(node, Exists):
            stack.extend(_select_expressions(node.query))
        elif isinstance(node, InSelect):
            stack.append(node.expr)
            stack.extend(_select_expressions(node.query))
        elif isinstance(node, ScalarSubquery):
            stack.extend(_select_expressions(node.query))


def map_scalar(node: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """Rebuild a scalar expression bottom-up, replacing every leaf —
    column, parameter, literal, or a subquery (not descended into) — by
    ``leaf(node)``."""
    if isinstance(node, Binary):
        return Binary(node.op, map_scalar(node.left, leaf), map_scalar(node.right, leaf))
    if isinstance(node, Unary):
        return Unary(node.op, map_scalar(node.operand, leaf))
    if isinstance(node, Between):
        return Between(
            map_scalar(node.expr, leaf),
            map_scalar(node.low, leaf),
            map_scalar(node.high, leaf),
            node.negated,
        )
    if isinstance(node, InList):
        return InList(
            map_scalar(node.expr, leaf),
            tuple(map_scalar(item, leaf) for item in node.items),
            node.negated,
        )
    if isinstance(node, IsNull):
        return IsNull(map_scalar(node.expr, leaf), node.negated)
    if isinstance(node, FunctionCall):
        return FunctionCall(
            node.name, tuple(map_scalar(arg, leaf) for arg in node.args), node.distinct
        )
    if isinstance(node, Case):
        return Case(
            tuple(
                (map_scalar(cond, leaf), map_scalar(value, leaf))
                for cond, value in node.whens
            ),
            map_scalar(node.default, leaf) if node.default is not None else None,
        )
    return leaf(node)


def subqueries(expr: Optional[Expr]) -> Iterator[Expr]:
    """Yield every subquery node (Exists/InSelect/ScalarSubquery) in
    ``expr``, including nested ones."""
    for node in walk(expr):
        if isinstance(node, (Exists, InSelect, ScalarSubquery)):
            yield node
