"""The sniffer's query logger: a wrapper driver around the real driver.

Paper §3.2: *"the query logger works as a wrapper around the JDBC drivers
... it is possible to log all queries that go through JDBC drivers,
independent of how they are generated."*

:class:`LoggingDriver` decorates any :class:`repro.db.dbapi.Driver`.  For
every statement it records the SQL template text, the bound parameters,
and the two timestamps the request-to-query mapper needs — query receive
time and result delivery time.  Only SELECTs are logged (updates are
visible to the invalidator through the database update log instead).

A record keeps the statement as the driver received it — the ``?``
template the engine's plan cache keys on, plus the bindings — rather
than printing the bound instance: registration parses each template once
and derives every instance's query type from its bindings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.concurrency import ChunkedRecordLog, current_request_token
from repro.sql import ast
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql
from repro.db.dbapi import Driver
from repro.db.engine import Database, StatementResult
from repro.db.types import Value


@dataclass(frozen=True)
class QueryLogRecord:
    """One logged query instance.

    Attributes:
        query_id: unique id of this log entry.
        template: SQL text as executed; its ``?``/``$n`` parameters take
            ``bindings`` (literal SQL has no bindings).
        receive_time: when the driver received the statement.
        delivery_time: when the results were handed back.
        rows_returned: result-set size (kept as a tuning statistic).
        request_token: correlation token of the request being serviced on
            this thread when the query ran, or None for queries issued
            outside any instrumented request (those fall back to the
            paper's interval join in the mapper).
        bindings: the parameter values the template executed with.
    """

    query_id: int
    template: str
    receive_time: float
    delivery_time: float
    rows_returned: int
    request_token: Optional[int] = None
    bindings: Tuple[Value, ...] = ()

    @property
    def sql(self) -> str:
        """Canonical text of the bound instance, printed on each read."""
        statement = parse_statement(self.template)
        if self.bindings:
            statement = bind_parameters(statement, self.bindings)
        return to_sql(statement)


def _query_sort_key(record: QueryLogRecord) -> tuple:
    return (record.receive_time, record.delivery_time, record.query_id)


class QueryLog(ChunkedRecordLog[QueryLogRecord]):
    """Append-only store of :class:`QueryLogRecord` with window reads.

    Appends are lock-free per writer thread (see
    :class:`~repro.concurrency.ChunkedRecordLog`); the mapper is the one
    drainer.
    """

    def __init__(self) -> None:
        super().__init__(sort_key=_query_sort_key)

    def in_interval(self, start: float, end: float) -> List[QueryLogRecord]:
        """Queries whose receive time falls inside [start, end].

        This is the access pattern of the request-to-query mapper (§3.3):
        find all queries processed during one request's service interval.
        """
        return [
            record
            for record in self.all()
            if start <= record.receive_time <= end
        ]

    def drain(self) -> List[QueryLogRecord]:
        """Return and clear all records (used by periodic log shipping)."""
        return super().drain()


class LoggingDriver(Driver):
    """Driver decorator that records every SELECT that passes through it.

    Args:
        inner: the wrapped driver (defaults to the native driver).
        clock: time source for the receive/delivery stamps; injected by
            tests and the simulator.
    """

    def __init__(
        self,
        inner: Optional[Driver] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.inner = inner or Driver()
        self.log = QueryLog()
        self._ids = itertools.count(1)
        self._logical = itertools.count()
        self.clock = clock or (lambda: float(next(self._logical)))

    def run(
        self, database: Database, sql: str, params: Optional[Sequence[Value]]
    ) -> StatementResult:
        receive_time = self.clock()
        result = self.inner.run(database, sql, params)
        delivery_time = self.clock()
        if isinstance(result.template, (ast.Select, ast.Union)):
            self.log.append(
                QueryLogRecord(
                    query_id=next(self._ids),
                    template=sql if isinstance(sql, str) else to_sql(sql),
                    receive_time=receive_time,
                    delivery_time=delivery_time,
                    rows_returned=result.rowcount,
                    request_token=current_request_token(),
                    bindings=tuple(params) if params else (),
                )
            )
        return result
