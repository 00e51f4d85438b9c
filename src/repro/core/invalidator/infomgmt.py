"""The information management module (paper §4.3).

Maintains the four kinds of information the paper enumerates:

* **polling queries** — the per-cycle dedup lives in the polling
  generator; this module decides *where* polls are directed (origin DBMS
  vs. the invalidator's own data cache) and keeps cross-cycle state;
* **polling query results** — a result cache refreshed by a daemon hook
  wired to the update log, so repeated polls for hot tuples are free;
* **invalidation policies** — owned by the policy engine, referenced here;
* **statistics** — per query type (in the registry) and per servlet.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.sql import ast
from repro.sql.analysis import referenced_tables
from repro.sql.printer import to_sql
from repro.db.engine import Database
from repro.web.datacache import DataCache
from repro.core.invalidator.policies import PolicyEngine
from repro.core.invalidator.polling import PollingQueryGenerator


@dataclass
class ServletStats:
    """Per-servlet statistics kept for tuning (§3.1 item 4)."""

    pages_generated: int = 0
    pages_invalidated: int = 0
    queries_mapped: int = 0


class PollingResultCache:
    """Cross-cycle cache of polling-query outcomes.

    Entries are invalidated when any base table of the cached polling
    query changes — the "daemon process that will watch the update logs"
    of §4.3.  Because a poll's tables are a subset of the instance's
    tables, the daemon only needs the per-cycle delta table names.
    """

    def __init__(self, capacity: int = 10000) -> None:
        self.capacity = capacity
        self._results: "OrderedDict[str, bool]" = OrderedDict()
        self._tables: Dict[str, Set[str]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def get(self, sql: str) -> Optional[bool]:
        if sql in self._results:
            self.hits += 1
            self._results.move_to_end(sql)
            return self._results[sql]
        self.misses += 1
        return None

    def put(self, sql: str, query: ast.Select, impacted: bool) -> None:
        if sql in self._results:
            self._results.move_to_end(sql)
        elif len(self._results) >= self.capacity:
            # LRU eviction: a full cache must keep admitting hot new
            # (query, result) pairs or it silently stops being a cache.
            evicted, _ = self._results.popitem(last=False)
            del self._tables[evicted]
            self.evictions += 1
        self._results[sql] = impacted
        self._tables[sql] = referenced_tables(query)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._results),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    def invalidate_tables(self, changed_tables: Optional[Set[str]]) -> int:
        """Drop cached results whose polling query reads a changed table
        (every result when ``changed_tables`` is None)."""
        dropped = [
            sql
            for sql, tables in self._tables.items()
            if changed_tables is None or tables & changed_tables
        ]
        for sql in dropped:
            del self._results[sql]
            del self._tables[sql]
        self.invalidations += len(dropped)
        return len(dropped)


class InformationManager:
    """Auxiliary structures and statistics for the invalidation module.

    Args:
        database: the origin DBMS.
        policy_engine: shared policy store.
        use_data_cache: when True, polling queries go to a middle-tier
            data cache maintained by the invalidator instead of the
            origin DBMS (§2.4), trading memory for DBMS load.
    """

    def __init__(
        self,
        database: Database,
        policy_engine: PolicyEngine,
        use_data_cache: bool = False,
        result_cache_capacity: int = 10000,
    ) -> None:
        self.database = database
        self.policy_engine = policy_engine
        self.data_cache: Optional[DataCache] = (
            DataCache(database) if use_data_cache else None
        )
        self.result_cache = PollingResultCache(capacity=result_cache_capacity)
        self.servlet_stats: Dict[str, ServletStats] = {}

    def polling_generator(self) -> PollingQueryGenerator:
        """Build the generator pointed at the right polling target."""
        # The DataCache shares the origin database object; routing through
        # it still avoids origin work for repeated identical polls because
        # results are served from the cache's result store.
        return PollingQueryGenerator(self.database)

    def poll_with_caching(
        self, generator: PollingQueryGenerator, query: ast.Select
    ) -> bool:
        """Answer a polling query via the result cache when possible."""
        sql = to_sql(query)
        cached = self.result_cache.get(sql)
        if cached is not None:
            generator.stats.cache_hits += 1
            return cached
        if self.data_cache is not None:
            result = self.data_cache.execute(sql)
            impacted = bool(result.rows) and bool(result.rows[0][0])
            generator.stats.issued += 1
        else:
            impacted = generator.poll(query)
        self.result_cache.put(sql, query, impacted)
        return impacted

    def on_cycle_deltas(self, changed_tables: Optional[Set[str]]) -> None:
        """Daemon hook: refresh caches after a pull of the update log.
        ``None`` means the changes were lost to log truncation: any table
        may have changed, so no cached polling result survives."""
        self.result_cache.invalidate_tables(changed_tables)
        if self.data_cache is not None:
            self.data_cache.synchronize()

    def servlet(self, name: str) -> ServletStats:
        stats = self.servlet_stats.get(name)
        if stats is None:
            stats = ServletStats()
            self.servlet_stats[name] = stats
        return stats
