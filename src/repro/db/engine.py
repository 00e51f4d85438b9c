"""The database engine facade: catalog, DML, SELECT execution, logging.

:class:`Database` is the single entry point the rest of the system uses.
It owns the catalog (tables + indexes), maintains secondary indexes on
every change, appends to the :class:`~repro.db.log.UpdateLog`, fires
triggers, and refreshes materialized views.

Work accounting: every statement returns a :class:`StatementResult` whose
``rows_examined`` / ``index_probes`` counters feed the simulator's cost
model, so "heavy" queries really are heavier than "light" ones.
"""

from __future__ import annotations

import itertools
import random
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CatalogError, ExecutionError
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.params import bind_parameters, binding_arity, number_parameters
from repro.db.executor import ExecutionContext, execute
from repro.db.expr import Scope, evaluate, execution_context, passes
from repro.db.index import HashIndex, Index, SortedIndex
from repro.db.log import ChangeKind, UpdateLog, UpdateRecord
from repro.db.planner import Planner, PlanNode
from repro.db.schema import Column, TableSchema
from repro.db.table import HeapTable
from repro.db.triggers import TriggerManager
from repro.db.types import SqlType, Value

Row = Tuple[Value, ...]

#: Bound on cached (statement, plan) entries; oldest evicted beyond this.
_PLAN_CACHE_CAP = 256


class StatementResult:
    """Outcome of one executed statement.

    For SELECTs, ``columns``/``rows`` carry the result set.  For DML,
    ``rowcount`` is the number of affected rows.  The work counters are
    cumulative over the whole statement, including index maintenance.

    ``statement`` is the statement with its parameters bound.  A SELECT
    served from a cached plan binds nothing to run, so its result keeps
    the parsed ``template`` plus the bindings and builds the bound
    statement on first read; for every other result ``template`` is the
    executed statement itself.
    """

    def __init__(
        self,
        statement: ast.Statement,
        columns: Optional[List[str]] = None,
        rows: Optional[List[Row]] = None,
        rowcount: int = 0,
        rows_examined: int = 0,
        index_probes: int = 0,
        triggers_fired: int = 0,
        bindings: Optional[Tuple[Value, ...]] = None,
    ) -> None:
        self.template = statement
        self._statement = statement if bindings is None else None
        self._bindings = bindings
        self.columns: List[str] = columns if columns is not None else []
        self.rows: List[Row] = rows if rows is not None else []
        self.rowcount = rowcount
        self.rows_examined = rows_examined
        self.index_probes = index_probes
        self.triggers_fired = triggers_fired

    @property
    def statement(self) -> ast.Statement:
        if self._statement is None:
            self._statement = bind_parameters(self.template, self._bindings)
        return self._statement

    @property
    def work_units(self) -> int:
        """Scalar work measure used by the latency model."""
        return self.rows_examined + 2 * self.index_probes + len(self.rows)


class Database:
    """An in-memory SQL database with an update log.

    Args:
        clock: callable returning the current time for log timestamps.
            Defaults to a logical counter so tests are deterministic; the
            simulator injects its simulated clock.
        log_capacity: optional bound on retained update-log records.
        executor: ``"columnar"`` (default) runs plans through the
            vectorized batch executor; ``"row"`` selects the reference
            tuple-at-a-time executor kept for differential testing.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        log_capacity: Optional[int] = None,
        executor: str = "columnar",
    ) -> None:
        if executor not in ("columnar", "row"):
            raise ValueError(f"unknown executor mode {executor!r}")
        self.executor_mode = executor
        if executor == "row":
            from repro.db.rowexec import execute as execute_plan
        else:
            execute_plan = execute
        self._execute_plan = execute_plan
        # Statement/plan cache: raw SQL text of a SELECT maps to its parsed
        # statement plus a plan built from the parameter-numbered form.  The
        # planner treats $n placeholders as constants, so one plan serves
        # every binding; entries whose plan is None memoize the parse only
        # (subquery-bearing SELECTs must re-resolve against live data).
        # Cleared on any DDL.
        self._plan_cache: Dict[
            str, Tuple[ast.Statement, Optional[PlanNode], Optional[int]]
        ] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self._tables: Dict[str, HeapTable] = {}
        self._indexes: Dict[str, Index] = {}
        self._indexes_by_table: Dict[str, List[Index]] = {}
        self.update_log = UpdateLog(capacity=log_capacity)
        self.triggers = TriggerManager()
        from repro.db.transactions import TransactionManager

        self.transactions = TransactionManager()
        self._planner = Planner(self)
        self._logical_clock = itertools.count()
        self._clock = clock or (lambda: float(next(self._logical_clock)))
        self._change_listeners: List[Callable[[UpdateRecord], None]] = []
        self.statements_executed = 0
        # Seeded stream backing RAND()/RANDOM(): deterministic per database.
        self._rand = random.Random(0x5EED)
        # Statement execution is serialized: the engine's shared state
        # (plan cache LRU, update log, heap tables, indexes) is not safe
        # under concurrent mutation, and the async serving tier runs
        # servlet+DB work on several worker threads.  Re-entrant because
        # materialized-view refresh re-executes SQL within a statement.
        self._exec_lock = threading.RLock()

    # -- catalog -------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        key = schema.lower_name
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = HeapTable(schema)
        self._indexes_by_table[key] = []
        self._plan_cache.clear()

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        del self._tables[key]
        for index in self._indexes_by_table.pop(key, []):
            del self._indexes[index.name]
        self._plan_cache.clear()

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def heap(self, name: str) -> HeapTable:
        """The heap storage for ``name`` (case-insensitive)."""
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"no table named {name!r}") from exc

    def schema(self, name: str) -> TableSchema:
        return self.heap(name).schema

    def create_index(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        unique: bool = False,
        sorted_index: bool = True,
    ) -> Index:
        """Create and backfill a secondary index.

        Single-column indexes default to the sorted variant (supports both
        equality and range probes); multi-column indexes are hash-only.
        """
        if name in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        heap = self.heap(table)
        if len(columns) == 1 and sorted_index:
            index: Index = SortedIndex(name, heap.schema, columns, unique)
        else:
            index = HashIndex(name, heap.schema, columns, unique)
        for rowid, row in heap.rows():
            index.add(rowid, row)
        self._indexes[name] = index
        self._indexes_by_table[heap.schema.lower_name].append(index)
        self._plan_cache.clear()
        return index

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name]
        except KeyError as exc:
            raise CatalogError(f"no index named {name!r}") from exc

    def indexes_on(self, table: str) -> List[Index]:
        return list(self._indexes_by_table.get(table.lower(), ()))

    # -- CatalogView protocol (used by the planner) ---------------------------

    def table_columns(self, table: str) -> List[str]:
        return [column.lower_name for column in self.schema(table).columns]

    def equality_index(self, table: str, column: str) -> Optional[str]:
        for index in self.indexes_on(table):
            if index.columns == (column.lower(),):
                return index.name
        return None

    def range_index(self, table: str, column: str) -> Optional[str]:
        for index in self.indexes_on(table):
            if isinstance(index, SortedIndex) and index.columns == (column.lower(),):
                return index.name
        return None

    # -- change listeners ------------------------------------------------------

    def add_change_listener(self, listener: Callable[[UpdateRecord], None]) -> None:
        """Register a callback invoked synchronously after each logged change.

        Materialized views use this; the CachePortal invalidator pointedly
        does *not* — it reads the update log asynchronously instead.
        """
        self._change_listeners.append(listener)

    def remove_change_listener(self, listener: Callable[[UpdateRecord], None]) -> None:
        self._change_listeners.remove(listener)

    # -- statement execution ----------------------------------------------------

    def execute(
        self,
        statement: Union[str, ast.Statement],
        params: Optional[Sequence[Value]] = None,
    ) -> StatementResult:
        """Parse (if needed), bind, and run one statement.

        SELECT text is memoized in the plan cache: the first execution
        parses, numbers its parameters, and plans; repeats skip straight to
        the executor.  The cache is LRU — a hit refreshes the entry so hot
        statements survive bursts of cold ones.  The cached plan resolves
        ``$n`` placeholders at runtime from this call's bindings, so a
        planned SELECT binds nothing: the entry's arity check raises the
        binder's own error for too few bindings, and
        ``StatementResult.statement`` binds on first read.

        Thread safety: statements serialize on a per-database re-entrant
        lock, so concurrent connections (the async gateway's miss
        workers) cannot corrupt the plan-cache LRU or interleave
        update-log appends.
        """
        with self._exec_lock:
            return self._execute_locked(statement, params)

    def _execute_locked(
        self,
        statement: Union[str, ast.Statement],
        params: Optional[Sequence[Value]] = None,
    ) -> StatementResult:
        plan: Optional[PlanNode] = None
        arity: Optional[int] = None
        fill_key: Optional[str] = None
        if isinstance(statement, str):
            text = statement
            entry = self._plan_cache.get(text)
            if entry is not None:
                statement, plan = entry[0], entry[1]
                if plan is not None:
                    arity = entry[2]
                    self.plan_cache_hits += 1
                    # LRU: re-insert so eviction pops the coldest entry,
                    # not merely the oldest.
                    del self._plan_cache[text]
                    self._plan_cache[text] = entry
                elif isinstance(statement, ast.Select):
                    # ``(statement, None)`` placeholder: the parse is
                    # reusable but no plan was produced.  Retry planning —
                    # it counts as neither a hit nor a miss.
                    fill_key = text
            else:
                statement = parse_statement(text)
                if isinstance(statement, ast.Select):
                    fill_key = text
        bindings = tuple(params) if params else None
        bound: Optional[ast.Statement] = statement
        if bindings is not None:
            if plan is None:
                bound = bind_parameters(statement, bindings)
            else:
                if arity is None or len(bindings) < arity:
                    bind_parameters(statement, bindings)  # raises the bind error
                bound = None  # the result binds on first read
        self.statements_executed += 1
        # NOW() reads the logical DML clock and RAND() the seeded
        # per-database stream; both are pinned for the statement's duration
        # so one statement sees one consistent value.
        with execution_context(
            self.update_log.last_lsn, self._rand.random, params=bindings
        ):
            if fill_key is not None:
                plan = self._fill_plan_cache(fill_key, statement)
            if bound is None:
                return self._run_plan(statement, plan, bindings)
            if plan is not None:
                return self._run_plan(bound, plan)
            return self._dispatch(bound)

    def _dispatch(self, statement: ast.Statement) -> StatementResult:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        if isinstance(statement, ast.Union):
            return self._execute_union(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateIndex):
            self.create_index(
                statement.name, statement.table, statement.columns, statement.unique
            )
            return StatementResult(statement)
        if isinstance(statement, ast.DropTable):
            if statement.if_exists and not self.has_table(statement.table):
                return StatementResult(statement)
            self.drop_table(statement.table)
            return StatementResult(statement)
        if isinstance(statement, ast.Explain):
            from repro.db.explain import explain

            lines = explain(self, statement.statement)
            result = StatementResult(statement)
            result.columns = ["plan"]
            result.rows = [(line,) for line in lines]
            result.rowcount = len(lines)
            return result
        if isinstance(statement, ast.BeginTransaction):
            self.begin()
            return StatementResult(statement)
        if isinstance(statement, ast.CommitTransaction):
            result = StatementResult(statement)
            result.triggers_fired = self.commit()
            return result
        if isinstance(statement, ast.RollbackTransaction):
            result = StatementResult(statement)
            result.rowcount = self.rollback()
            return result
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def query(
        self, sql: str, params: Optional[Sequence[Value]] = None
    ) -> List[Row]:
        """Convenience wrapper returning only the rows of a SELECT."""
        return self.execute(sql, params).rows

    # -- SELECT -------------------------------------------------------------

    def _fill_plan_cache(
        self, key: str, statement: ast.Select
    ) -> Optional[PlanNode]:
        """Plan a freshly parsed SELECT and memoize it under its SQL text.

        Returns ``None`` (caching the parse only) when the statement
        contains subqueries — those re-resolve against live data each run,
        so their physical plan cannot be reused.  Planning errors propagate
        without caching, exactly as the uncached path would raise them.

        Re-planning a cached ``(statement, None)`` placeholder neither
        counts a miss nor evicts: the entry already occupies its slot, and
        a successful retry upgrades it in place.
        """
        from repro.db.subquery import contains_subquery

        replanning = key in self._plan_cache
        if not replanning:
            self.plan_cache_misses += 1
            if len(self._plan_cache) >= _PLAN_CACHE_CAP:
                self._plan_cache.pop(next(iter(self._plan_cache)))
        if contains_subquery(statement):
            self._plan_cache[key] = (statement, None, None)
            return None
        for table in self._select_tables(statement):
            self.heap(table)  # raises CatalogError for unknown tables
        plan = self._planner.plan(number_parameters(statement))
        self._plan_cache[key] = (statement, plan, binding_arity(statement))
        return plan

    def _run_plan(
        self,
        statement: ast.Select,
        plan: PlanNode,
        bindings: Optional[Tuple[Value, ...]] = None,
    ) -> StatementResult:
        """Execute a cached physical plan (no resolver work to charge).

        With ``bindings``, ``statement`` is the unbound template and the
        result binds it on first read."""
        context = ExecutionContext(self)
        scope, rows = self._execute_plan(plan, context)
        labels = [label.split(".", 1)[-1] for label in scope.column_labels()]
        return StatementResult(
            statement,
            columns=labels,
            rows=rows,
            rowcount=len(rows),
            rows_examined=context.rows_examined,
            index_probes=context.index_probes,
            bindings=bindings,
        )

    def _execute_select(self, statement: ast.Select) -> StatementResult:
        for table in self._select_tables(statement):
            self.heap(table)  # raises CatalogError for unknown tables
        # Uncorrelated subqueries execute ahead of the plan (innermost
        # first); their work is charged to this statement.
        from repro.db.subquery import SubqueryResolver

        resolver = SubqueryResolver(self)
        resolved = resolver.resolve_select(statement)
        plan = self._planner.plan(resolved)
        context = ExecutionContext(self)
        scope, rows = self._execute_plan(plan, context)
        labels = [label.split(".", 1)[-1] for label in scope.column_labels()]
        return StatementResult(
            statement,
            columns=labels,
            rows=rows,
            rowcount=len(rows),
            rows_examined=context.rows_examined + resolver.rows_examined,
            index_probes=context.index_probes + resolver.index_probes,
        )

    def _execute_union(self, statement: ast.Union) -> StatementResult:
        parts = [self._execute_select(part) for part in statement.parts]
        width = len(parts[0].columns)
        for part in parts[1:]:
            if len(part.columns) != width:
                raise ExecutionError(
                    "UNION parts have different numbers of columns "
                    f"({width} vs {len(part.columns)})"
                )
        # Left-associative combination: each non-ALL union deduplicates
        # the rows accumulated so far, as in standard SQL.
        rows: List[Row] = list(parts[0].rows)
        for all_flag, part in zip(statement.all_flags, parts[1:]):
            rows.extend(part.rows)
            if not all_flag:
                seen = set()
                deduped: List[Row] = []
                for row in rows:
                    if row not in seen:
                        seen.add(row)
                        deduped.append(row)
                rows = deduped
        if statement.order_by:
            scope = Scope([("", parts[0].columns)])
            from repro.db.executor import _Directional
            from repro.db.types import SortKey

            def sort_key(row: Row):
                return [
                    _Directional(
                        SortKey(evaluate(item.expr, row, scope)), item.descending
                    )
                    for item in statement.order_by
                ]

            rows.sort(key=sort_key)
        offset = statement.offset or 0
        if offset:
            rows = rows[offset:]
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return StatementResult(
            statement,
            columns=parts[0].columns,
            rows=rows,
            rowcount=len(rows),
            rows_examined=sum(part.rows_examined for part in parts),
            index_probes=sum(part.index_probes for part in parts),
        )

    def _select_tables(self, statement: ast.Select) -> List[str]:
        names: List[str] = []

        def visit(source: ast.FromSource) -> None:
            if isinstance(source, ast.TableRef):
                names.append(source.name)
            elif isinstance(source, ast.Join):
                visit(source.left)
                visit(source.right)
            # ValuesSource carries its own rows; nothing to validate.

        for source in statement.sources:
            visit(source)
        return names

    # -- DML ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> StatementResult:
        if statement.if_not_exists and self.has_table(statement.table):
            return StatementResult(statement)
        columns = [
            Column(
                name=col.name,
                sql_type=SqlType.from_name(col.type_name),
                primary_key=col.primary_key,
                unique=col.unique,
                not_null=col.not_null,
            )
            for col in statement.columns
        ]
        self.create_table(TableSchema(statement.table, columns))
        return StatementResult(statement)

    def _execute_insert(self, statement: ast.Insert) -> StatementResult:
        heap = self.heap(statement.table)
        schema = heap.schema
        result = StatementResult(statement)
        empty_scope = Scope([])
        for row_exprs in statement.rows:
            values = [evaluate(expr, (), empty_scope) for expr in row_exprs]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT specifies {len(statement.columns)} columns "
                        f"but {len(values)} values"
                    )
                full: List[Value] = [None] * len(schema)
                for column, value in zip(statement.columns, values):
                    full[schema.position(column)] = value
                values = full
            rowid, stored = heap.insert(values)
            for index in self.indexes_on(statement.table):
                index.add(rowid, stored)
            result.rowcount += 1
            result.triggers_fired += self._log_change(
                schema,
                ChangeKind.INSERT,
                stored,
                undo=self._make_insert_undo(schema.lower_name, rowid, stored),
            )
        return result

    def _dml_targets(
        self,
        heap: HeapTable,
        scope: Scope,
        where: Optional[ast.Expr],
        result: StatementResult,
    ) -> List[Tuple[int, Row]]:
        """Rows matching ``where``, charged to ``result.rows_examined``.

        The columnar engine filters whole storage batches through a
        compiled mask and charges per batch; the row engine walks tuples
        and charges one at a time.  Final counters are identical — only
        the charging granularity differs.
        """
        targets: List[Tuple[int, Row]] = []
        if self.executor_mode != "columnar":
            for rowid, row in heap.rows():
                result.rows_examined += 1
                if passes(where, row, scope):
                    targets.append((rowid, row))
            return targets
        from repro.db.vector import compile_mask

        mask_fn = None
        for rowids, columns in heap.scan_batches():
            count = len(rowids)
            result.rows_examined += count
            if where is None:
                targets.extend(zip(rowids, zip(*columns)))
                continue
            # Compiled lazily so an empty heap never evaluates the
            # predicate — matching the row engine's per-tuple behavior.
            if mask_fn is None:
                mask_fn = compile_mask(where, scope)
            mask = mask_fn(columns, count)
            for position, keep in enumerate(mask):
                if keep:
                    targets.append(
                        (
                            rowids[position],
                            tuple(column[position] for column in columns),
                        )
                    )
        return targets

    def _execute_update(self, statement: ast.Update) -> StatementResult:
        heap = self.heap(statement.table)
        schema = heap.schema
        scope = Scope([(schema.lower_name, schema.column_names)])
        result = StatementResult(statement)
        # Materialize targets first: assignments must not affect row selection.
        targets = self._dml_targets(heap, scope, statement.where, result)
        assignment_positions = [
            (schema.position(column), expr) for column, expr in statement.assignments
        ]
        for rowid, old_row in targets:
            new_values = list(old_row)
            for position, expr in assignment_positions:
                new_values[position] = evaluate(expr, old_row, scope)
            old_row, new_row = heap.update(rowid, new_values)
            for index in self.indexes_on(statement.table):
                index.replace(rowid, old_row, new_row)
            result.rowcount += 1
            # An UPDATE logs a delete+insert pair; the single physical
            # undo (restore the old image) rides on the second record so
            # that reversed-order rollback runs it exactly once.
            result.triggers_fired += self._log_change(
                schema, ChangeKind.DELETE, old_row, undo=lambda: None
            )
            result.triggers_fired += self._log_change(
                schema,
                ChangeKind.INSERT,
                new_row,
                undo=self._make_update_undo(
                    schema.lower_name, rowid, old_row, new_row
                ),
            )
        return result

    def _execute_delete(self, statement: ast.Delete) -> StatementResult:
        heap = self.heap(statement.table)
        schema = heap.schema
        scope = Scope([(schema.lower_name, schema.column_names)])
        result = StatementResult(statement)
        targets = self._dml_targets(heap, scope, statement.where, result)
        for rowid, row in targets:
            heap.delete(rowid)
            for index in self.indexes_on(statement.table):
                index.remove(rowid, row)
            result.rowcount += 1
            result.triggers_fired += self._log_change(
                schema,
                ChangeKind.DELETE,
                row,
                undo=self._make_delete_undo(schema.lower_name, rowid, row),
            )
        return result

    # -- transactions ------------------------------------------------------------

    def begin(self) -> None:
        """Open a transaction: changes stay unpublished until commit."""
        self.transactions.begin()

    def commit(self) -> int:
        """Publish all buffered changes (log, triggers, listeners).

        Returns the number of triggers fired.  A commit with no open
        transaction is a no-op (auto-commit mode).
        """
        if not self.transactions.active:
            return 0
        transaction = self.transactions.take_for_commit()
        fired = 0
        for change in transaction.changes:
            fired += self._publish(
                change.table, change.kind, change.values, change.columns
            )
        return fired

    def rollback(self) -> int:
        """Undo every change of the open transaction; returns the count."""
        return self.transactions.rollback()

    @property
    def in_transaction(self) -> bool:
        return self.transactions.active

    # -- change publication ---------------------------------------------------------

    def _publish(self, table: str, kind: ChangeKind, values: Row, columns) -> int:
        record = self.update_log.append(
            table=table,
            kind=kind,
            values=values,
            columns=columns,
            timestamp=self._clock(),
        )
        fired = self.triggers.fire(record)
        for listener in self._change_listeners:
            listener(record)
        return fired

    def _log_change(
        self,
        schema: TableSchema,
        kind: ChangeKind,
        row: Row,
        undo: Optional[Callable[[], None]] = None,
    ) -> int:
        columns = tuple(column.lower_name for column in schema.columns)
        if self.transactions.active:
            self.transactions.current.record(
                schema.lower_name, kind, tuple(row), columns,
                undo if undo is not None else (lambda: None),
            )
            return 0
        return self._publish(schema.lower_name, kind, tuple(row), columns)

    # -- undo builders ---------------------------------------------------------------

    def _make_insert_undo(self, table: str, rowid: int, row: Row) -> Callable[[], None]:
        def undo() -> None:
            self.heap(table).delete(rowid)
            for index in self.indexes_on(table):
                index.remove(rowid, row)

        return undo

    def _make_delete_undo(self, table: str, rowid: int, row: Row) -> Callable[[], None]:
        def undo() -> None:
            self.heap(table).restore(rowid, row)
            for index in self.indexes_on(table):
                index.add(rowid, row)

        return undo

    def _make_update_undo(
        self, table: str, rowid: int, old_row: Row, new_row: Row
    ) -> Callable[[], None]:
        def undo() -> None:
            self.heap(table).update(rowid, old_row)
            for index in self.indexes_on(table):
                index.replace(rowid, new_row, old_row)

        return undo
