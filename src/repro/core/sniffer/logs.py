"""Request-log records and store (paper §3.1).

The request logger stores, per request: a unique id, the request string
(page name + GET parameters), the cookie string, the post string, and the
receive/delivery timestamps — the five items listed in the paper — plus a
*correlation token* (an extension for the concurrent serving tier) that
lets the mapper pair queries with their exact originating request instead
of relying on the interval join alone.

The store itself is a :class:`~repro.concurrency.ChunkedRecordLog`:
appends are lock-free per writer thread, so logging a request under the
async gateway costs a couple of list operations instead of a contended
mutex — the paper's "sniffer must not slow the site down" requirement,
restated for cooperative concurrency.
"""

from __future__ import annotations

import urllib.parse
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.concurrency import ChunkedRecordLog

if TYPE_CHECKING:
    from repro.web.http import HttpRequest


class RequestLogRecord:
    """One logged HTTP request, as captured by the servlet wrapper.

    The request, cookie and post strings are built when first read, from
    a copy of ``request``'s path and parameters taken at logging time:
    the mapper needs only the URL key, the interval and the token, so a
    miss does not pay three url-encodings it never reads.
    """

    __slots__ = (
        "request_id",
        "servlet",
        "url_key",
        "receive_time",
        "delivery_time",
        "cacheable",
        "request_token",
        "_strings",
        "_params",
    )

    def __init__(
        self,
        request_id: int,
        servlet: str,
        url_key: str,
        request_string: Optional[str],
        cookie_string: Optional[str],
        post_string: Optional[str],
        receive_time: float,
        delivery_time: float,
        cacheable: bool,
        request_token: Optional[int] = None,
        request: Optional["HttpRequest"] = None,
    ) -> None:
        self.request_id = request_id
        self.servlet = servlet
        self.url_key = url_key
        self.receive_time = receive_time
        self.delivery_time = delivery_time
        self.cacheable = cacheable
        #: Correlation token shared with every query logged while this
        #: request was being serviced; None for records from older captures.
        self.request_token = request_token
        self._strings: Optional[Tuple[str, str, str]] = None
        self._params: Optional[Tuple[str, dict, dict, dict]] = None
        if request is None:
            self._strings = (
                request_string or "", cookie_string or "", post_string or ""
            )
        else:
            self._params = (
                request.path,
                dict(request.get_params),
                dict(request.cookies),
                dict(request.post_params),
            )

    def _log_strings(self) -> Tuple[str, str, str]:
        if self._strings is None:
            assert self._params is not None
            path, get_params, cookies, post_params = self._params
            self._strings = (
                f"{path}?{encode_params(get_params)}",
                encode_params(cookies),
                encode_params(post_params),
            )
        return self._strings

    @property
    def request_string(self) -> str:
        """Page name + GET parameters."""
        return self._log_strings()[0]

    @property
    def cookie_string(self) -> str:
        return self._log_strings()[1]

    @property
    def post_string(self) -> str:
        return self._log_strings()[2]

    @property
    def interval(self) -> tuple:
        """The request's service interval [receive, delivery]."""
        return (self.receive_time, self.delivery_time)


def encode_params(params: dict) -> str:
    """Deterministic (sorted) urlencoding used for log strings."""
    return urllib.parse.urlencode(sorted(params.items()))


def _request_sort_key(record: RequestLogRecord) -> tuple:
    # Receive order first (identical to historical append order when
    # requests were serialized on a monotone clock), ids as tie-breaks
    # for concurrent captures whose wall-clock stamps collide.
    return (record.receive_time, record.delivery_time, record.request_id)


class RequestLog(ChunkedRecordLog[RequestLogRecord]):
    """Append-only store of request records (multi-writer, one drainer)."""

    def __init__(self) -> None:
        super().__init__(sort_key=_request_sort_key)

    def append(self, record: RequestLogRecord) -> None:  # typing aid
        super().append(record)

    def drain(self) -> List[RequestLogRecord]:
        """Return and clear all records (periodic log shipping)."""
        return super().drain()
