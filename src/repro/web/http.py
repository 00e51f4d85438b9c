"""Minimal HTTP request/response model with Cache-Control support.

The model covers exactly what the paper's architecture needs: GET/POST
parameters, cookies, and the two Cache-Control extensions CachePortal
relies on —

* ``Cache-Control: private, owner="cacheportal"`` — the sniffer's servlet
  wrapper rewrites ``no-cache`` responses into this form so that
  CachePortal-compliant caches may store them (§3.1);
* ``Cache-Control: eject`` — the invalidation message the invalidator
  sends to caches (§4.2.4), modelled after NetCache 4.0.
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class CacheControl:
    """Parsed Cache-Control header: directives with optional values."""

    def __init__(self, directives: Optional[Dict[str, Optional[str]]] = None) -> None:
        self.directives: Dict[str, Optional[str]] = dict(directives or {})

    # -- constructors ---------------------------------------------------------

    @classmethod
    def parse(cls, header: str) -> "CacheControl":
        """Parse ``no-cache, max-age=60, owner="cacheportal"`` style text."""
        directives: Dict[str, Optional[str]] = {}
        for part in header.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                name, value = part.split("=", 1)
                directives[name.strip().lower()] = value.strip().strip('"')
            else:
                directives[part.lower()] = None
        return cls(directives)

    @classmethod
    def no_cache(cls) -> "CacheControl":
        return cls({"no-cache": None})

    @classmethod
    def cacheportal_private(cls) -> "CacheControl":
        """The rewritten header that marks a page CachePortal-cacheable."""
        return cls({"private": None, "owner": "cacheportal"})

    @classmethod
    def eject(cls) -> "CacheControl":
        return cls({"eject": None})

    # -- queries --------------------------------------------------------------

    def has(self, directive: str) -> bool:
        return directive.lower() in self.directives

    def get(self, directive: str) -> Optional[str]:
        return self.directives.get(directive.lower())

    @property
    def is_cacheable_by_portal(self) -> bool:
        """True for pages a CachePortal-compliant cache may store."""
        if self.has("eject"):
            return False
        if self.has("no-cache") or self.has("no-store"):
            return False
        if self.has("private"):
            return self.get("owner") == "cacheportal"
        return True

    @property
    def max_age(self) -> Optional[float]:
        value = self.get("max-age")
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:
            return None

    def render(self) -> str:
        parts: List[str] = []
        for name, value in self.directives.items():
            if value is None:
                parts.append(name)
            elif name == "owner":
                parts.append(f'{name}="{value}"')
            else:
                parts.append(f"{name}={value}")
        return ", ".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheControl):
            return NotImplemented
        return self.directives == other.directives

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheControl({self.render()!r})"


@dataclass
class HttpRequest:
    """An HTTP request as seen by the web server.

    Following the paper's terminology (§2.3.1), a request carries the
    host, the path with GET parameters, POST parameters, and cookies.
    A request must not be changed once it is routed: its page key is
    computed once and remembered (:func:`repro.web.urlkey.page_key`).
    Build a new request (or copy one with ``dataclasses.replace``, which
    leaves the memo behind) to ask for a different page.
    """

    method: str = "GET"
    host: str = "shop.example.com"
    path: str = "/"
    get_params: Dict[str, str] = field(default_factory=dict)
    post_params: Dict[str, str] = field(default_factory=dict)
    cookies: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    #: (key spec, page key) of the last :func:`page_key` call; not a
    #: constructor argument, so neither a caller nor a copy can carry a
    #: key that was computed for other parameters.
    keyed: Optional[Tuple[object, str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_url(
        cls,
        url: str,
        method: str = "GET",
        host: str = "shop.example.com",
        post_params: Optional[Dict[str, str]] = None,
        cookies: Optional[Dict[str, str]] = None,
    ) -> "HttpRequest":
        """Build a request from a path-with-query string like
        ``/catalog?maker=Toyota&max_price=25000``."""
        parsed = urllib.parse.urlsplit(url)
        if parsed.netloc:
            host = parsed.netloc
        get_params = dict(urllib.parse.parse_qsl(parsed.query))
        return cls(
            method=method,
            host=host,
            path=parsed.path or "/",
            get_params=get_params,
            post_params=dict(post_params or {}),
            cookies=dict(cookies or {}),
        )

    @property
    def query_string(self) -> str:
        return urllib.parse.urlencode(sorted(self.get_params.items()))

    @property
    def url(self) -> str:
        query = self.query_string
        return f"{self.path}?{query}" if query else self.path

    @property
    def cache_control(self) -> Optional[CacheControl]:
        header = self.headers.get("Cache-Control")
        return CacheControl.parse(header) if header else None


@dataclass
class HttpResponse:
    """An HTTP response: status, body, headers, cacheability."""

    status: int = 200
    body: str = ""
    headers: Dict[str, str] = field(default_factory=dict)
    cache_control: CacheControl = field(default_factory=CacheControl.no_cache)

    #: Work metadata (extension): total DB work units spent building this
    #: page, used by the latency model.  Zero for cache hits.
    db_work: int = 0
    queries_issued: int = 0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def with_cache_control(self, cache_control: CacheControl) -> "HttpResponse":
        """Copy of this response with a different Cache-Control header."""
        return HttpResponse(
            status=self.status,
            body=self.body,
            headers=dict(self.headers),
            cache_control=cache_control,
            db_work=self.db_work,
            queries_issued=self.queries_issued,
        )


def make_eject_request(url_key: str, host: str = "cache.internal") -> HttpRequest:
    """Build the invalidation message sent to a cache (§4.2.4).

    It is "simply an HTTP header that is sent as part of a normal client
    request": a request for the page with ``Cache-Control: eject``.
    """
    request = HttpRequest.from_url(url_key, host=host)
    request.headers["Cache-Control"] = CacheControl.eject().render()
    return request
