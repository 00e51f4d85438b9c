"""Outside-in tracing: spans recorded by wrapping public calls of each layer.

Nothing in the program is edited.  :meth:`Tracer.wrap` replaces a bound
method on one *instance* with a wrapper that records a span -- name,
start, end, parent and a key -- and calls through.  The parent is the
innermost open span on the calling thread, so a miss's spans form a tree
on its worker thread and a tick's spans a tree on the event-loop thread.
Spans stay in memory and are written out once, at the end of a run.

A miss is keyed by its URL key above the servlet and by
``repro.concurrency.current_request_token()`` below it; the tick, cascade
and poll spans carry no key.  A layer's self time is its span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.concurrency import current_request_token
from repro.web.urlkey import page_key

#: (span id, parent id, name, start ns, end ns, key)
Span = Tuple[int, int, str, int, int, object]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Spans of wrapped calls, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped: set = set()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        key: Optional[Callable[[tuple], object]] = None,
    ) -> None:
        """Record a span around every call of ``obj.attr`` (once per object)."""
        if (id(obj), attr) in self._wrapped:
            return
        self._wrapped.add((id(obj), attr))
        inner = getattr(obj, attr)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            span_key = key(args) if key is not None else None
            stack.append(span_id)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, span_key))

        setattr(obj, attr, traced)

    # -- queries -----------------------------------------------------------------

    def named(self, name: str, window: Tuple[int, int] = (0, 1 << 62)) -> List[Span]:
        """Spans called ``name`` that ran inside ``window`` (start, end ns)."""
        return [
            s for s in self.spans
            if s[2] == name and s[3] >= window[0] and s[4] <= window[1]
        ]

    def durations_us(self, name: str, window: Tuple[int, int] = (0, 1 << 62)) -> List[float]:
        return [(s[4] - s[3]) / 1e3 for s in self.named(name, window)]

    def total_s(self, names: Iterable[str], window: Tuple[int, int] = (0, 1 << 62)) -> float:
        return sum(sum(self.durations_us(name, window)) for name in names) / 1e6

    def self_times_us(self, name: str, window: Tuple[int, int] = (0, 1 << 62)) -> List[float]:
        """Duration minus direct children, for every span called ``name``."""
        children: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[1]:
                children[span[1]] += span[4] - span[3]
        return [
            (s[4] - s[3] - children.get(s[0], 0)) / 1e3
            for s in self.named(name, window)
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, key in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end, "key": key}
                ) + "\n")


class GcWatch:
    """Gen-2 collections and the longest collector pause while active."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pause_max_s = 0.0
        self._started = 0.0
        self._active = False
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if not self._active:
            return
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_max_s = max(self.pause_max_s, time.perf_counter() - self._started)
        if info.get("generation") == 2:
            self.gen2 += 1

    def start(self) -> None:
        self._active = True

    def stop(self) -> None:
        self._active = False
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


def instrument(tracer: Tracer, site, portal, pipeline=None) -> None:
    """Wrap the public calls at every layer boundary of one deployment."""
    cache = site.web_cache
    tracer.wrap(cache, "get", "cache.get")
    tracer.wrap(cache, "put", "cache.put")

    def page_key_of(args):
        request = args[0]
        return page_key(request, site.servlet_for(request.path).key_spec)

    tracer.wrap(site.balancer, "handle", "balancer.handle", page_key_of)
    token = lambda _args: current_request_token()  # noqa: E731
    for app_server in site.app_servers:
        tracer.wrap(app_server, "handle", "appserver.handle")
        for servlet in app_server.servlets.all():
            tracer.wrap(servlet, "service", "sniffer.request_log", page_key_of)
            tracer.wrap(servlet.inner, "service", "servlet.service", token)
    for logger in portal.sniffer.query_loggers:
        tracer.wrap(logger, "run", "sniffer.query_log", token)
        tracer.wrap(logger.inner, "run", "db.select", token)
    tracer.wrap(portal.sniffer.mapper, "run", "sniffer.map")
    invalidator = portal.invalidator
    tracer.wrap(invalidator.registration, "scan", "registration.scan")
    tracer.wrap(invalidator, "run_cycle", "cycle.run")
    tracer.wrap(invalidator.batch_poller, "execute", "poll.execute")
    if pipeline is not None:
        tracer.wrap(pipeline, "process_available", "pipeline.tick")
        tracer.wrap(pipeline.registration, "scan", "registration.scan")
        tailer = pipeline.tailer
        tracer.wrap(tailer, "poll", "tailer.poll", lambda _args: tailer.lag)
        for worker in pipeline.pool.workers:
            tracer.wrap(worker, "process_batch", "cascade.batch")
            tracer.wrap(worker.batch_poller, "execute", "poll.execute")
        tracer.wrap(pipeline.bus, "publish", "bus.publish")
        tracer.wrap(pipeline.bus, "pump", "bus.pump")
