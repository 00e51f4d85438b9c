"""The request-to-query mapper (paper §3.3).

For every request interval — between the receive and delivery times of a
requested page in the request log — the mapper finds all queries processed
during the corresponding interval in the query log and writes the pairs
into the QI/URL map.

The interval join is deliberately conservative: with concurrent requests
on one server, a query can fall inside more than one request interval and
is then mapped to each of them.  Over-mapping is safe (at worst an extra
page is invalidated later); under-mapping would leave stale pages cached.

The concurrent serving tier sharpens this: both loggers stamp records
with a shared *correlation token* (see :mod:`repro.concurrency`), so a
query carrying a token is paired **exactly** with its originating request
— no cross-mapping even when dozens of requests overlap on one server.
Queries without a token (legacy captures, driver traffic outside any
instrumented request) still go through the interval join.  Under
serialized execution on a monotone clock the two joins produce identical
pairs in identical order, which is what keeps
``CachePortal.run_sniffer()`` output bit-identical to the sync path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.db.wrapper import QueryLog, QueryLogRecord
from repro.core.qiurl import QIURLMap
from repro.core.sniffer.logs import RequestLog, RequestLogRecord


def _query_order(record: QueryLogRecord) -> tuple:
    return (record.receive_time, record.delivery_time, record.query_id)


class RequestToQueryMapper:
    """Joins request and query logs into a :class:`QIURLMap`."""

    def __init__(self, qiurl_map: QIURLMap) -> None:
        self.qiurl_map = qiurl_map
        self.requests_mapped = 0
        self.pairs_written = 0
        #: Pairs written through the exact token join (vs interval join).
        self.token_pairs = 0
        #: Tokened queries held back because their request record had
        #: not yet been delivered when their log was drained, keyed by
        #: the server's position in the ``run()`` log lists.  A request
        #: record is only appended at *delivery*, so a mapping round
        #: racing an in-flight miss can drain a query before its
        #: request lands; dropping it would under-map (stale page never
        #: invalidated).  Held records rejoin the next round's batch.
        self._held: Dict[int, List[QueryLogRecord]] = {}
        #: Tokened queries currently held back, across all servers.
        self.queries_held = 0

    def run(
        self, request_logs: List[RequestLog], query_logs: List[QueryLog]
    ) -> int:
        """Process and drain all pending log records; returns pairs written.

        The mapper runs at regular intervals on fetched logs (§2.4); each
        run consumes the records accumulated since the last one.  Request
        and query logs must come from the same server pairing, in the same
        order **on every run**, so intervals compare on a common clock and
        tokened queries held back for an in-flight request rejoin the
        right server's next batch.

        Raises:
            ValueError: when the lists differ in length — a silent
            ``zip`` truncation would drop whole servers' logs, and
            under-mapping leaves stale pages cached forever.
        """
        if len(request_logs) != len(query_logs):
            raise ValueError(
                f"request/query log lists must pair one-to-one per server: "
                f"got {len(request_logs)} request log(s) vs "
                f"{len(query_logs)} query log(s)"
            )
        written = 0
        for server, (request_log, query_log) in enumerate(
            zip(request_logs, query_logs)
        ):
            # Request log first: its drain is the cutoff that decides
            # which tokened queries can still be waiting on a request.
            requests = request_log.drain()
            queries = query_log.drain()
            held = self._held.pop(server, None)
            if held:
                queries = held + queries
            written += self._map_batch(requests, queries, server)
        self.queries_held = sum(len(held) for held in self._held.values())
        return written

    def _map_batch(
        self,
        requests: List[RequestLogRecord],
        queries: List[QueryLogRecord],
        server: int = 0,
    ) -> int:
        # Sort queries once; tokened records index by token for the exact
        # join, the rest scan per request with binary-search bounds.
        queries = sorted(queries, key=_query_order)
        request_tokens = {
            request.request_token
            for request in requests
            if request.request_token is not None
        }
        by_token: Dict[int, List[QueryLogRecord]] = {}
        untokened: List[QueryLogRecord] = []
        held: List[QueryLogRecord] = []
        for record in queries:
            if record.request_token is not None:
                if record.request_token in request_tokens:
                    by_token.setdefault(record.request_token, []).append(record)
                else:
                    # The request record lands only at delivery, so a
                    # token with no request in this batch means the
                    # request is still in flight — queries are logged
                    # strictly before their request, never after it has
                    # been drained.  Hold the query for the round where
                    # its request arrives instead of dropping it.
                    held.append(record)
            else:
                untokened.append(record)
        if held:
            self._held.setdefault(server, []).extend(held)
        untokened_times = [record.receive_time for record in untokened]
        written = 0
        for request in requests:
            self.requests_mapped += 1
            if not request.cacheable:
                # Non-cacheable pages are never in a cache, so the
                # invalidator has nothing to do for them.
                continue
            matched: List[QueryLogRecord] = []
            token_count = 0
            if request.request_token is not None:
                matched.extend(by_token.get(request.request_token, ()))
                token_count = len(matched)
            start, end = request.interval
            low = _bisect_left(untokened_times, start)
            index = low
            while index < len(untokened) and untokened[index].receive_time <= end:
                matched.append(untokened[index])
                index += 1
            if token_count and len(matched) > token_count:
                # Mixing joins: restore global receive order so map rows
                # land in the same order a pure interval join would emit.
                matched.sort(key=_query_order)
            for query in matched:
                entry = self.qiurl_map.add(
                    query.template,
                    request.url_key,
                    request.servlet,
                    request.delivery_time,
                    query.bindings,
                )
                if entry is not None:
                    written += 1
            self.token_pairs += token_count
        self.pairs_written += written
        return written


def _bisect_left(values: List[float], target: float) -> int:
    low, high = 0, len(values)
    while low < high:
        middle = (low + high) // 2
        if values[middle] < target:
            low = middle + 1
        else:
            high = middle
    return low
