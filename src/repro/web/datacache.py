"""Middle-tier data cache (paper Configuration II).

Caches *query results* next to each application server, Oracle-8i-data-
cache style.  Reads hit the cache when the identical SQL text (with bound
parameters) was executed before and no conflicting update has arrived.

Synchronization follows the paper's model (§5.2.5): at every
synchronization interval the cache fetches the list of recent updates from
the database (one query against the update log) and invalidates cached
results whose base tables changed.  This table-granularity invalidation is
deliberately coarse — making it finer is precisely the hard problem
CachePortal solves for *page* caches.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.sql import ast
from repro.sql.analysis import referenced_tables
from repro.sql.parser import parse_statement
from repro.sql.params import bind_parameters
from repro.sql.printer import to_sql
from repro.db.dbapi import Driver
from repro.db.engine import Database, StatementResult
from repro.db.types import Value


@dataclass
class DataCacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    synchronizations: int = 0
    sync_records_seen: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


@dataclass
class _CachedResult:
    sql: str
    tables: Set[str]
    result: StatementResult


class DataCache:
    """Query-result cache with log-based synchronization."""

    def __init__(self, database: Database, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("data cache capacity must be positive")
        self.database = database
        self.capacity = capacity
        self._entries: "OrderedDict[str, _CachedResult]" = OrderedDict()
        self._by_table: Dict[str, Set[str]] = {}
        self._sync_lsn = database.update_log.head_lsn - 1
        self.stats = DataCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def execute(
        self, sql: str, params: Optional[Sequence[Value]] = None
    ) -> StatementResult:
        """Serve a SELECT from cache when possible; pass everything else on."""
        statement = parse_statement(sql)
        if params:
            statement = bind_parameters(statement, tuple(params))
        if not isinstance(statement, (ast.Select, ast.Union)):
            return self.database.execute(statement)
        key = to_sql(statement)
        cached = self._entries.get(key)
        if cached is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return cached.result
        self.stats.misses += 1
        result = self.database.execute(statement)
        self._store(key, referenced_tables(statement), result)
        return result

    def _store(self, key: str, tables: Set[str], result: StatementResult) -> None:
        self._entries[key] = _CachedResult(key, tables, result)
        for table in tables:
            self._by_table.setdefault(table, set()).add(key)
        while len(self._entries) > self.capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            for table in evicted.tables:
                self._by_table.get(table, set()).discard(evicted_key)

    def synchronize(self) -> int:
        """Pull the update log tail and invalidate affected results.

        Returns the number of cached results invalidated.  The cost of
        this call (one log read per interval, per cache) is the
        ``data_cache_synch_cost`` of the paper's parameter table.
        """
        log = self.database.update_log
        self.stats.synchronizations += 1
        try:
            records = log.read_since(self._sync_lsn)
        except ValueError:
            # The log wrapped past the cursor: which tables changed is
            # unknowable, so no cached result can be trusted.
            invalidated = len(self._entries)
            self.clear()
            self._sync_lsn = max(log.last_lsn, log.oldest_lsn - 1)
            self.stats.invalidations += invalidated
            return invalidated
        self.stats.sync_records_seen += len(records)
        if records:
            self._sync_lsn = records[-1].lsn
        changed_tables = {record.table for record in records}
        invalidated = 0
        for table in changed_tables:
            for key in list(self._by_table.get(table, ())):
                entry = self._entries.pop(key, None)
                if entry is None:
                    continue
                invalidated += 1
                for other_table in entry.tables:
                    self._by_table.get(other_table, set()).discard(key)
        self.stats.invalidations += invalidated
        return invalidated

    def clear(self) -> None:
        self._entries.clear()
        self._by_table.clear()


class DataCacheDriver(Driver):
    """Driver adapter: route servlet queries through a :class:`DataCache`.

    Lets Configuration II sites reuse unmodified servlets — the cache is
    selected purely by the application server's driver URL.
    """

    def __init__(self, cache: DataCache) -> None:
        self.cache = cache

    def run(
        self, database: Database, sql: str, params: Optional[Sequence[Value]]
    ) -> StatementResult:
        if database is not self.cache.database:
            raise ValueError("data cache is bound to a different database")
        return self.cache.execute(sql, params)
