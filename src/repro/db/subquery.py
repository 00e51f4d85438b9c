"""Subquery resolution: execute uncorrelated subqueries ahead of the plan.

The planner/executor pair operates on subquery-free expressions.  Before
planning, the engine runs this resolver over a SELECT: every
``EXISTS (…)``, ``IN (SELECT …)``, and scalar ``(SELECT …)`` whose inner
query references only its own tables (i.e. is *uncorrelated*) is executed
once and replaced by its value — a boolean literal, an IN-list of
literals, or a scalar literal.  Correlated subqueries are rejected with a
clear error; the paper's workloads do not need them and silently wrong
results would be worse than honesty.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.analysis import alias_map


def contains_subquery(stmt: ast.Select) -> bool:
    """True when any expression in ``stmt`` embeds a subquery.

    Used by the engine's plan cache: subquery-free SELECTs plan
    deterministically from their text, so their plans are reusable.
    """
    return any(
        True
        for expr in ast._select_expressions(stmt)
        for _node in ast.subqueries(expr)
    )


class SubqueryResolver:
    """Rewrites one statement, executing its uncorrelated subqueries.

    Args:
        database: engine to run subqueries on (the same database).

    Attributes:
        rows_examined / index_probes: work done by subquery execution,
            added to the outer statement's accounting by the engine.
        subqueries_executed: how many subqueries actually ran.
    """

    def __init__(self, database) -> None:
        self.database = database
        self.rows_examined = 0
        self.index_probes = 0
        self.subqueries_executed = 0

    # -- entry point ------------------------------------------------------------

    def resolve_select(self, stmt: ast.Select) -> ast.Select:
        """Return ``stmt`` with every subquery replaced by its value."""
        if not self._contains_subquery(stmt):
            return stmt
        items = tuple(
            ast.SelectItem(self._rewrite(item.expr), item.alias)
            for item in stmt.items
        )
        where = self._rewrite(stmt.where) if stmt.where is not None else None
        having = self._rewrite(stmt.having) if stmt.having is not None else None
        group_by = tuple(self._rewrite(expr) for expr in stmt.group_by)
        order_by = tuple(
            ast.OrderItem(self._rewrite(item.expr), item.descending)
            for item in stmt.order_by
        )
        sources = tuple(self._rewrite_source(source) for source in stmt.sources)
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

    # -- internals ---------------------------------------------------------------

    _contains_subquery = staticmethod(contains_subquery)

    def _rewrite_source(self, source: ast.FromSource) -> ast.FromSource:
        if isinstance(source, (ast.TableRef, ast.ValuesSource)):
            return source
        on = self._rewrite(source.on) if source.on is not None else None
        return ast.Join(
            source.kind,
            self._rewrite_source(source.left),
            self._rewrite_source(source.right),
            on,
        )

    def _rewrite(self, node: ast.Expr) -> ast.Expr:
        return ast.map_scalar(node, self._resolve)

    def _resolve(self, node: ast.Expr) -> ast.Expr:
        """Leaf of :meth:`_rewrite`: a subquery becomes its value."""
        if isinstance(node, ast.Exists):
            rows = self._run(node.query)
            return ast.Literal(bool(rows) != node.negated)
        if isinstance(node, ast.InSelect):
            rows = self._run(node.query)
            items = tuple(ast.Literal(row[0]) for row in rows)
            return ast.InList(self._rewrite(node.expr), items, node.negated)
        if isinstance(node, ast.ScalarSubquery):
            rows = self._run(node.query)
            if len(rows) > 1:
                raise ExecutionError(
                    "scalar subquery returned more than one row"
                )
            value = rows[0][0] if rows else None
            return ast.Literal(value)
        return node

    def _run(self, query: ast.Select) -> List[Tuple]:
        # Inner subqueries first (innermost-out evaluation).
        resolved = self.resolve_select(query)
        self._reject_correlated(resolved)
        result = self.database.execute(resolved)
        self.subqueries_executed += 1
        self.rows_examined += result.rows_examined
        self.index_probes += result.index_probes
        return result.rows

    def _reject_correlated(self, query: ast.Select) -> None:
        """Raise for column references the subquery cannot resolve itself."""
        aliases = alias_map(query)
        own_columns: Set[str] = set()
        for table in set(aliases.values()):
            if self.database.has_table(table):
                own_columns |= {
                    column.lower_name
                    for column in self.database.schema(table).columns
                }
        for expr in ast._select_expressions(query):
            for node in ast.walk(expr):
                if not isinstance(node, ast.ColumnRef):
                    continue
                table = node.table.lower() if node.table else None
                if table is not None and table not in aliases:
                    raise ExecutionError(
                        f"correlated subqueries are not supported "
                        f"(outer reference {node.table}.{node.column})"
                    )
                if table is None and node.column.lower() not in own_columns:
                    raise ExecutionError(
                        f"correlated subqueries are not supported "
                        f"(unresolvable column {node.column!r})"
                    )
