"""The request logger: a wrapper around application servlets (paper §3.1).

Wrapping — rather than modifying — the servlets keeps the solution
non-invasive.  The wrapper:

1. stamps receive and delivery times around the inner servlet's work,
2. records the request (id, request string, cookies, post data, stamps),
3. rewrites ``Cache-Control: no-cache`` into
   ``Cache-Control: private, owner="cacheportal"`` so compliant caches may
   store the page — unless the servlet is too temporally sensitive or the
   invalidator has marked one of its queries non-cacheable.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.concurrency import CURRENT_REQUEST_TOKEN, next_request_token
from repro.db.dbapi import Connection
from repro.web.http import CacheControl, HttpRequest, HttpResponse
from repro.web.servlet import Servlet
from repro.web.urlkey import page_key
from repro.core.sniffer.logs import RequestLog, RequestLogRecord


class RequestLoggingServlet(Servlet):
    """Decorator servlet that logs requests and rewrites cache headers.

    Args:
        inner: the wrapped application servlet.
        log: shared request log (one per application server).
        clock: time source for the two stamps.
        max_staleness_ms: the staleness CachePortal can guarantee given
            its invalidation cycle; pages from servlets more sensitive
            than this stay non-cacheable (§3.1).
        cacheability_veto: optional callback — the invalidator's feedback
            channel.  Returns False when the servlet currently uses a
            query type that is marked non-cacheable.
    """

    def __init__(
        self,
        inner: Servlet,
        log: RequestLog,
        clock: Optional[Callable[[], float]] = None,
        max_staleness_ms: float = 1000.0,
        cacheability_veto: Optional[Callable[[Servlet], bool]] = None,
    ) -> None:
        super().__init__(
            name=inner.name,
            path=inner.path,
            key_spec=inner.key_spec,
            temporal_sensitivity_ms=inner.temporal_sensitivity_ms,
            error_sensitivity=inner.error_sensitivity,
            cacheable=inner.cacheable,
        )
        self.inner = inner
        self.log = log
        self._logical = itertools.count()
        self.clock = clock or (lambda: float(next(self._logical)))
        self.max_staleness_ms = max_staleness_ms
        self.cacheability_veto = cacheability_veto
        self._ids = itertools.count(1)

    def service(self, request: HttpRequest, connection: Connection) -> HttpResponse:
        # The correlation token rides a context variable for the duration
        # of the inner servlet's work, so the query logger can stamp every
        # SELECT with the exact request that issued it — the concurrent
        # equivalent of the paper's interval pairing (§3.3).
        token = next_request_token()
        reset = CURRENT_REQUEST_TOKEN.set(token)
        receive_time = self.clock()
        try:
            response = self.inner.service(request, connection)
        finally:
            delivery_time = self.clock()
            CURRENT_REQUEST_TOKEN.reset(reset)
        cacheable = self._decide_cacheable(response)
        self.log.append(
            RequestLogRecord(
                request_id=next(self._ids),
                servlet=self.inner.name,
                url_key=page_key(request, self.inner.key_spec),
                request_string=None,
                cookie_string=None,
                post_string=None,
                receive_time=receive_time,
                delivery_time=delivery_time,
                cacheable=cacheable,
                request_token=token,
                request=request,
            )
        )
        if cacheable:
            return response.with_cache_control(CacheControl.cacheportal_private())
        return response

    def _decide_cacheable(self, response: HttpResponse) -> bool:
        if not response.ok:
            return False
        if not self.inner.cacheable:
            return False
        if self.inner.temporal_sensitivity_ms < self.max_staleness_ms:
            # The servlet demands fresher pages than invalidation delivers.
            return False
        if self.cacheability_veto is not None and not self.cacheability_veto(self.inner):
            return False
        return True
