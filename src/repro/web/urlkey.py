"""Page identifiers (URL keys) — paper §2.3.1.

A *URL* in the paper's sense is not the raw request line: it is the
combination of the host, plus those GET/POST/cookie parameters that act as
cache keys.  Parameters that do not influence the generated page (session
trackers, analytics tags) must be excluded, or the cache would store one
copy per visitor and never hit.

:class:`KeySpec` records, per servlet, which parameters are keys; the
sniffer keeps this as part of its per-servlet metadata (§3.1 item 3).
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional

from repro.web.http import HttpRequest


@dataclass(frozen=True)
class KeySpec:
    """Which request parameters participate in the page identifier.

    ``None`` for a field means "all parameters of that kind are keys";
    an explicit (possibly empty) set restricts to those names.
    """

    get_keys: Optional[FrozenSet[str]] = None
    post_keys: Optional[FrozenSet[str]] = frozenset()
    cookie_keys: Optional[FrozenSet[str]] = frozenset()

    @classmethod
    def make(
        cls,
        get_keys: Optional[Iterable[str]] = None,
        post_keys: Optional[Iterable[str]] = (),
        cookie_keys: Optional[Iterable[str]] = (),
    ) -> "KeySpec":
        return cls(
            get_keys=None if get_keys is None else frozenset(get_keys),
            post_keys=None if post_keys is None else frozenset(post_keys),
            cookie_keys=None if cookie_keys is None else frozenset(cookie_keys),
        )

    def _select(self, params: dict, keys: Optional[FrozenSet[str]]) -> list:
        if keys is None:
            return sorted(params.items())
        return sorted(
            (name, value) for name, value in params.items() if name in keys
        )


#: Spec treating every GET parameter as a key and ignoring POST/cookies.
ALL_GET = KeySpec()


def page_key(request: HttpRequest, spec: KeySpec = ALL_GET) -> str:
    """Canonical page identifier for ``request`` under ``spec``.

    The key is deterministic (parameters sorted by name) so that two
    requests for the same logical page always map to the same cache slot.
    Format: ``host/path?get#post#cookie`` with url-encoded pairs.

    The key is remembered on the request, so the front end that routes a
    miss and the request logger that records it compute it once.
    """
    keyed = request.keyed
    if keyed is not None and keyed[0] is spec:
        return keyed[1]
    get_pairs = spec._select(request.get_params, spec.get_keys)
    post_pairs = spec._select(request.post_params, spec.post_keys)
    cookie_pairs = spec._select(request.cookies, spec.cookie_keys)
    key = f"{request.host}{request.path}"
    if get_pairs:
        key += "?" + urllib.parse.urlencode(get_pairs)
    if post_pairs:
        key += "#post:" + urllib.parse.urlencode(post_pairs)
    if cookie_pairs:
        key += "#cookie:" + urllib.parse.urlencode(cookie_pairs)
    request.keyed = (spec, key)
    return key
