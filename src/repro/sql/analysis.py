"""Static analysis helpers over SQL ASTs.

These utilities back the invalidator's independence check (paper §4.2):
splitting WHERE clauses into conjuncts, discovering which tables and
columns a query touches, and building alias maps so that conditions can be
attributed to base tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.sql import ast
from repro.sql.params import parameterize
from repro.sql.printer import to_sql


def conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Split ``expr`` at top-level ANDs into a flat list of conjuncts.

    ``None`` (no WHERE clause) yields the empty list, i.e. "no conditions".
    """
    if expr is None:
        return []
    result: List[ast.Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Binary) and node.op is ast.BinaryOp.AND:
            stack.append(node.right)
            stack.append(node.left)
        else:
            result.append(node)
    return result


def disjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Split ``expr`` at top-level ORs into a flat list of disjuncts."""
    if expr is None:
        return []
    result: List[ast.Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Binary) and node.op is ast.BinaryOp.OR:
            stack.append(node.right)
            stack.append(node.left)
        else:
            result.append(node)
    return result


def conjoin(parts: List[ast.Expr]) -> Optional[ast.Expr]:
    """Combine expressions with AND; the empty list means "always true"."""
    if not parts:
        return None
    combined = parts[0]
    for part in parts[1:]:
        combined = ast.Binary(ast.BinaryOp.AND, combined, part)
    return combined


def _collect_sources(source: ast.FromSource, refs: List[ast.TableRef]) -> None:
    if isinstance(source, ast.TableRef):
        refs.append(source)
    elif isinstance(source, ast.Join):
        _collect_sources(source.left, refs)
        _collect_sources(source.right, refs)
    # ValuesSource: an inline derived table, not a base-table reference.


def values_sources(stmt: ast.Select) -> List[ast.ValuesSource]:
    """All inline VALUES derived tables in FROM, in source order."""
    found: List[ast.ValuesSource] = []

    def visit(source: ast.FromSource) -> None:
        if isinstance(source, ast.ValuesSource):
            found.append(source)
        elif isinstance(source, ast.Join):
            visit(source.left)
            visit(source.right)

    for source in stmt.sources:
        visit(source)
    return found


def table_refs(stmt: ast.Select) -> List[ast.TableRef]:
    """All table references in FROM, in source order."""
    refs: List[ast.TableRef] = []
    for source in stmt.sources:
        _collect_sources(source, refs)
    return refs


def alias_map(stmt: ast.Select) -> Dict[str, str]:
    """Map of visible binding name (lower-case) → base table name (lower-case)."""
    mapping: Dict[str, str] = {}
    for ref in table_refs(stmt):
        mapping[ref.binding.lower()] = ref.name.lower()
    return mapping


def referenced_tables(stmt: ast.Statement) -> Set[str]:
    """Base table names (lower-case) a statement reads or writes.

    For SELECTs this includes tables referenced only inside subqueries —
    the invalidator's dependency tracking must see through EXISTS/IN.
    """
    if isinstance(stmt, ast.Select):
        tables = {ref.name.lower() for ref in table_refs(stmt)}
        for expr in ast._select_expressions(stmt):
            for node in ast.subqueries(expr):
                tables |= referenced_tables(node.query)
        return tables
    if isinstance(stmt, ast.Union):
        tables: Set[str] = set()
        for part in stmt.parts:
            tables |= referenced_tables(part)
        return tables
    if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
        return {stmt.table.lower()}
    if isinstance(stmt, (ast.CreateTable, ast.DropTable)):
        return {stmt.table.lower()}
    if isinstance(stmt, ast.CreateIndex):
        return {stmt.table.lower()}
    return set()


def referenced_columns(
    expr: Optional[ast.Expr], aliases: Optional[Dict[str, str]] = None
) -> Set[Tuple[Optional[str], str]]:
    """(table, column) pairs referenced in ``expr``, all lower-case.

    When ``aliases`` is given, alias qualifiers are resolved to base table
    names, and unqualified columns are resolved through the alias map too:
    a single-source query attributes them to its one base table; with
    several sources (no schema to disambiguate) one pair per distinct base
    table is emitted — conservative, never invisible.  Without ``aliases``
    unqualified columns appear with table ``None``.
    """
    columns: Set[Tuple[Optional[str], str]] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.ColumnRef):
            table = node.table.lower() if node.table else None
            if aliases is not None:
                if table is not None:
                    table = aliases.get(table, table)
                    columns.add((table, node.column.lower()))
                else:
                    bases = set(aliases.values()) or {None}
                    for base in sorted(bases, key=str):
                        columns.add((base, node.column.lower()))
                continue
            columns.add((table, node.column.lower()))
    return columns


def has_left_join(stmt: ast.Select) -> bool:
    """True when any FROM source involves a LEFT (outer) join.

    Outer joins make the *absence* of matches observable, which defeats
    the invalidator's local reasoning — callers treat such statements
    conservatively.
    """

    def visit(source: ast.FromSource) -> bool:
        if isinstance(source, ast.Join):
            if source.kind is ast.JoinKind.LEFT:
                return True
            return visit(source.left) or visit(source.right)
        return False

    return any(visit(source) for source in stmt.sources)


def join_on_conditions(stmt: ast.Select) -> List[ast.Expr]:
    """All ON conditions from explicit joins, flattened into conjuncts."""
    conditions: List[ast.Expr] = []

    def visit(source: ast.FromSource) -> None:
        if isinstance(source, ast.Join):
            visit(source.left)
            visit(source.right)
            if source.on is not None:
                conditions.extend(conjuncts(source.on))

    for source in stmt.sources:
        visit(source)
    return conditions


def all_conditions(stmt: ast.Select) -> List[ast.Expr]:
    """WHERE conjuncts plus all explicit-join ON conjuncts."""
    return conjuncts(stmt.where) + join_on_conditions(stmt)


def column_free(expr: ast.Expr) -> bool:
    """True when ``expr`` references no columns (and no subqueries), so
    binding parameters into it yields a constant."""
    return not any(
        isinstance(node, (ast.ColumnRef, ast.Exists, ast.InSelect, ast.ScalarSubquery))
        for node in ast.walk(expr)
    )


def implied_equalities(
    conditions: List[ast.Expr], aliases: Dict[str, str]
) -> Dict[str, List[ast.Expr]]:
    """Per-binding equalities implied across inner-join equality chains.

    ``item.vid = vendor.vid AND vendor.vid = ?`` implies ``item.vid = ?``:
    a tuple of ``item`` whose ``vid`` differs from the bound value (or is
    NULL) joins no row of the result.  Sound because SQL ``=`` is
    transitive wherever it is TRUE (numbers compare as floats, strings
    exactly, numbers never equal strings, NULL is never equal; a stored
    NaN would compare equal to every number and break this).

    ``conditions`` must be inner-join conjuncts (callers bail out on
    LEFT JOINs).  Only references qualified by a binding name take part —
    an unqualified column of a multi-source query is ambiguous.  Returns
    binding → implied ``binding.column = <column-free expr>`` conjuncts,
    omitting the binding that already carries the constant equality.
    """
    if len(aliases) < 2:
        return {}
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(node: Tuple[str, str]) -> Tuple[str, str]:
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    def column_of(expr: ast.Expr) -> Optional[Tuple[str, str]]:
        if isinstance(expr, ast.ColumnRef) and expr.table is not None:
            binding = expr.table.lower()
            if binding in aliases:
                return (binding, expr.column.lower())
        return None

    constants: List[Tuple[Tuple[str, str], ast.Expr]] = []
    for condition in conditions:
        if not (isinstance(condition, ast.Binary) and condition.op is ast.BinaryOp.EQ):
            continue
        left, right = column_of(condition.left), column_of(condition.right)
        if left is not None and right is not None:
            parent[find(left)] = find(right)
        elif left is not None and column_free(condition.right):
            constants.append((left, condition.right))
        elif right is not None and column_free(condition.left):
            constants.append((right, condition.left))
    implied: Dict[str, List[ast.Expr]] = {}
    for node, value in constants:
        root = find(node)
        for member in list(parent):
            if member[0] != node[0] and find(member) == root:
                implied.setdefault(member[0], []).append(
                    ast.Binary(
                        ast.BinaryOp.EQ, ast.ColumnRef(member[1], member[0]), value
                    )
                )
    return implied


def tables_of_condition(
    condition: ast.Expr, aliases: Dict[str, str]
) -> Set[str]:
    """Which base tables a single condition mentions.

    Column references (qualified or not) are resolved through ``aliases``
    by :func:`referenced_columns`: unqualified names belong to the single
    source when there is one, and conservatively to every source table
    otherwise (no schema is available to disambiguate).
    """
    return {
        table
        for table, _column in referenced_columns(condition, aliases)
        if table is not None
    }


def has_parameters(expr: Optional[ast.Expr]) -> bool:
    """True when the expression still contains unbound parameters."""
    return any(isinstance(node, ast.Parameter) for node in ast.walk(expr))


def query_signature(stmt: ast.Select) -> str:
    """Canonical query-type signature: parameterized template SQL text.

    Two query instances that differ only in their constants map to the same
    signature, which is the key used by the invalidator's registration
    module (§4.1).
    """
    return parameterize(stmt).signature


def statement_kind(stmt: ast.Statement) -> str:
    """Short lower-case tag for logging: 'select', 'insert', ..."""
    return type(stmt).__name__.lower()


def is_read_only(stmt: ast.Statement) -> bool:
    """True for statements that cannot modify table contents."""
    return isinstance(stmt, ast.Select)


def normalized_sql(stmt: ast.Statement) -> str:
    """Round-trip a statement through the printer for canonical text."""
    return to_sql(stmt)
