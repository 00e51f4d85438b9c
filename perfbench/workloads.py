"""The four workloads: inputs from a seed, set-up, the timed window, checks.

Every workload is one process and drives the system from outside:
``AsyncGateway`` + ``OpenLoopLoadGenerator`` for reads (open loop: arrivals
follow a fixed schedule whatever the completions do, and a read's latency
runs from its *scheduled* arrival), ``Database.execute`` for updates,
``StreamingInvalidationPipeline.process_available`` as the gateway tick,
and ``CachePortal.run_invalidation_cycle`` for the synchronous path.

Why each workload exists, and what it predicts, is in ``README.md``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import random
import statistics
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.serve.loadgen as loadgen
from repro.serve import ArrivalSchedule, AsyncGateway, OpenLoopLoadGenerator, ZipfianPopulation
from repro.serve.metrics import LatencyHistogram
from repro.stream import StreamingInvalidationPipeline
from repro.web.http import HttpRequest
from repro.web.urlkey import page_key

import sites
from spans import GcWatch, Tracer, instrument, percentile

#: The p99 budget committed in ``benchmarks/baselines/bench_serving.json``.
SLO_P99_MS = 50.0
#: Gateway miss workers: no more than the cores of a small machine.
WORKERS = 2
TICK_INTERVAL_S = 0.02
#: The generator sleeps through every gap to its next arrival.  With its
#: default floor (1 ms) it spins through the sub-millisecond gaps of every
#: rate here, and a spinning loop thread holds the GIL against the miss
#: workers for whole switch intervals (5 ms): miss latency then depends
#: on GIL hand-offs more than on the miss path.
SLEEP_FLOOR_S = 0.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The base-rate window is read in this many back-to-back slices and
#: ``read_p99_ms`` is the median of their p99s, so one stall (a gen-2
#: collection, a long tick) moves one slice, not the run.
BASE_SLICES = 5


@dataclass
class Result:
    """What one timed window measured, plus its correctness verdicts."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


class SplitHistogram(LatencyHistogram):
    """A latency histogram that also keeps the exact miss latencies.

    The open-loop generator buckets hit latencies inline and records each
    miss through ``record``; keeping the recorded values apart separates
    the two without touching the generator.
    """

    def __init__(self) -> None:
        super().__init__()
        self.miss_seconds: List[float] = []

    def record(self, seconds: float) -> None:
        super().record(seconds)
        self.miss_seconds.append(seconds)

    def hit_buckets(self) -> Dict[int, int]:
        misses = LatencyHistogram()
        for value in self.miss_seconds:
            misses.record(value)
        return {
            index: count - misses._counts.get(index, 0)
            for index, count in self._counts.items()
            if count - misses._counts.get(index, 0) > 0
        }


def read_quantiles(histograms: List[SplitHistogram], q: float) -> Tuple[float, float]:
    """(all-read, hit-only) q-th percentile in ms over several histograms.

    Misses enter with their exact value and hits at their bucket's middle.
    """
    weighted: List[Tuple[float, int]] = []
    hits: List[Tuple[float, int]] = []
    for histogram in histograms:
        for index, count in histogram.hit_buckets().items():
            entry = (LatencyHistogram._bucket_mid_ns(index) / 1e6, count)
            weighted.append(entry)
            hits.append(entry)
        weighted.extend((value * 1e3, 1) for value in histogram.miss_seconds)

    def rank_value(entries: List[Tuple[float, int]]) -> float:
        total = sum(count for _value, count in entries)
        if not total:
            return 0.0
        rank = max(1, -(-total * q // 100))
        seen = 0
        for value, count in sorted(entries):
            seen += count
            if seen >= rank:
                return value
        return entries[-1][0]

    return rank_value(weighted), rank_value(hits)


# -- the shared deployment ---------------------------------------------------------


@dataclass
class Deployment:
    site: object
    portal: object
    pipeline: Optional[StreamingInvalidationPipeline] = None
    urls: Dict[str, str] = field(default_factory=dict)  # page key -> url


def finish_setup(dep: Deployment) -> Deployment:
    """The last step of every set-up: a clean, frozen heap.

    A full collection over the set-up heap can pause the loop for
    ~150 ms; freezing it keeps that out of the timed window, while
    collections of what the window itself allocates still show in
    ``gc.gen2_collections``.
    """
    gc.collect()
    gc.freeze()
    return dep


def release() -> None:
    """Free the last deployment once its caller has dropped it."""
    gc.unfreeze()
    gc.collect()


def key_of(site, url: str) -> str:
    request = HttpRequest.from_url(url)
    return page_key(request, site.servlet_for(request.path).key_spec)


class Probes:
    """Always-on, cheap observation of the gateway and the page cache.

    * every miss response is counted by status, and every 16th one's body
      is kept for the regeneration check;
    * every eject that reaches the page cache is time-stamped by key
      (``update_eject_*`` and the lost-eject check).
    """

    BODY_SAMPLE_EVERY = 16
    BODY_SAMPLE_MAX = 400

    def __init__(self) -> None:
        self.miss_responses = 0
        self.http_5xx = 0
        self.sampled_bodies: List[Tuple[HttpRequest, str]] = []
        self.ejects: Dict[str, List[float]] = defaultdict(list)
        self.eject_order: List[str] = []
        self.enqueued: Dict[str, deque] = defaultdict(deque)

    def attach_gateway(self, gateway: AsyncGateway) -> None:
        submit = gateway.submit_miss
        clock = time.perf_counter_ns

        def submit_miss(url_key, request_factory, on_done=None):
            coalesced = gateway.stats.coalesced

            def done(response):
                self.miss_responses += 1
                if response.status >= 500:
                    self.http_5xx += 1
                if (
                    self.miss_responses % self.BODY_SAMPLE_EVERY == 0
                    and len(self.sampled_bodies) < self.BODY_SAMPLE_MAX
                ):
                    self.sampled_bodies.append((request_factory(), response.body))
                if on_done is not None:
                    on_done(response)

            enqueue_ns = clock()
            accepted = submit(url_key, request_factory, done)
            if accepted and gateway.stats.coalesced == coalesced:
                self.enqueued[url_key].append(enqueue_ns)
            return accepted

        gateway.submit_miss = submit_miss

    def attach_cache(self, cache) -> None:
        handle = cache.handle_message

        def handle_message(request, url_key):
            now = time.perf_counter()
            removed = handle(request, url_key)
            self.ejects[url_key].append(now)
            self.eject_order.append(url_key)
            return removed

        cache.handle_message = handle_message

    def first_eject_after(self, url_key: str, t: float) -> Optional[float]:
        for stamp in self.ejects.get(url_key, ()):
            if stamp >= t:
                return stamp
        return None


def audit_cache(dep: Deployment, keys: Optional[List[str]] = None) -> int:
    """Cached pages whose bytes differ from a fresh regeneration."""
    cache = dep.site.web_cache
    stale = 0
    for key in keys if keys is not None else list(cache.keys()):
        entry = cache.peek(key)
        if entry is None:
            continue
        fresh = dep.site.balancer.handle(HttpRequest.from_url(dep.urls[key]))
        if entry.response.body != fresh.body:
            stale += 1
    return stale


# -- read workloads ---------------------------------------------------------------


@dataclass
class ReadSpec:
    name: str
    rows: int
    population: int
    skew: float
    cache_pages: int
    warm_draws: int
    base_rate: float
    step_rates: List[float]
    tick: bool
    #: One-row UPDATEs per second, on Zipf(``update_skew``)-hot rows.
    update_rate: float = 0.0
    update_skew: float = 1.2


READ_HOT = ReadSpec(
    name="read-hot", rows=10_000, population=1_000_000, skew=1.5,
    cache_pages=1 << 20, warm_draws=60_000, base_rate=10_000,
    step_rates=[30_000, 60_000, 120_000, 240_000], tick=False,
)
READ_MISS = ReadSpec(
    name="read-miss", rows=20_000, population=20_000, skew=1.0,
    cache_pages=2_200, warm_draws=8_000, base_rate=1_000,
    step_rates=[1_500, 2_500, 4_000], tick=True,
)
READ_WRITE = ReadSpec(
    name="read-write", rows=2_000, population=2_000, skew=1.0,
    cache_pages=1 << 20, warm_draws=0, base_rate=5_000, step_rates=[],
    tick=True, update_rate=20.0,
)


class ReadWorkload:
    def __init__(self, spec: ReadSpec, seed: int, seconds: float) -> None:
        self.spec = spec
        self.seconds = seconds
        self.population = ZipfianPopulation(
            spec.population, s=spec.skew, seed=seed
        )
        self.warm_plan = [
            self.population.sample() for _ in range(spec.warm_draws)
        ]
        # The base rate gets 70% of the window; the steps share the rest.
        if spec.step_rates:
            base_seconds = seconds * 0.7
            step_seconds = (seconds - base_seconds) / len(spec.step_rates)
        else:
            base_seconds, step_seconds = seconds, 0.0
        self.phases = [(spec.base_rate, base_seconds / BASE_SLICES)] * BASE_SLICES + [
            (rate, step_seconds) for rate in spec.step_rates
        ]
        self.plans = [
            OpenLoopLoadGenerator(
                None, self.population, ArrivalSchedule.fixed(rate, duration)
            ).plan()
            for rate, duration in self.phases
        ]
        self.audit_rng = random.Random(seed ^ 0x5EED)
        self.update_ids: List[int] = []
        if spec.update_rate:
            hot_rows = ZipfianPopulation(spec.rows, s=spec.update_skew, seed=seed + 1)
            self.update_ids = [
                1 + hot_rows.sample() for _ in range(int(spec.update_rate * seconds))
            ]

    def setup(self, tracer: Optional[Tracer] = None) -> Deployment:
        spec = self.spec
        site, portal = sites.item_site(spec.rows, spec.cache_pages)
        pipeline = StreamingInvalidationPipeline.for_portal(portal)
        dep = Deployment(site, portal, pipeline)
        if tracer is not None:
            instrument(tracer, site, portal, pipeline)
        if not spec.warm_draws:
            warm = range(spec.population)  # every page
        elif spec.cache_pages >= spec.population:
            # Nothing is evicted, so only the distinct pages matter.
            warm = dict.fromkeys(self.warm_plan)
        else:
            # A bounded LRU: replay the whole plan to reach its steady state.
            warm = self.warm_plan
        for index in warm:
            site.get(self.population.url_for(index))
        pipeline.process_available()
        return finish_setup(dep)

    def measure(self, dep: Deployment, tracer: Optional[Tracer]) -> Result:
        return asyncio.run(self._measure(dep, tracer))

    async def _measure(self, dep: Deployment, tracer: Optional[Tracer]) -> Result:
        spec = self.spec
        site, pipeline = dep.site, dep.pipeline
        probes = Probes()
        probes.attach_cache(site.web_cache)
        gateway = AsyncGateway(
            site,
            workers=WORKERS,
            tick=(lambda: pipeline.process_available()) if spec.tick else None,
            tick_interval=TICK_INTERVAL_S,
        )
        probes.attach_gateway(gateway)
        before = Snapshot.take(dep, gateway)
        watch = GcWatch()
        # The generator builds one histogram per run from this module
        # global; the subclass keeps the miss latencies apart.
        loadgen.LatencyHistogram = SplitHistogram
        start_ns = time.perf_counter_ns()
        watch.start()
        cpu_start = time.process_time()
        cpu_base = None
        await gateway.start()
        updates: List[Tuple[str, float, bool, float]] = []
        updater = None
        if self.update_ids:
            updater = asyncio.ensure_future(
                self._update(dep, gateway, updates)
            )
        steps = []
        try:
            for (rate, duration), plan in zip(self.phases, self.plans):
                generator = OpenLoopLoadGenerator(
                    gateway, self.population,
                    ArrivalSchedule.fixed(rate, duration), sample_every=64,
                    sleep_floor=SLEEP_FLOOR_S,
                )
                result = await generator.run(plan=plan)
                steps.append((rate, duration, result))
                if len(steps) == BASE_SLICES:
                    if updater is not None:
                        await updater
                    cpu_base = time.process_time() - cpu_start
                if len(steps) > BASE_SLICES and not self._step_ok(*steps[-1]):
                    break  # past the knee: higher rates only add backlog
        finally:
            await gateway.stop(drain=True)
            loadgen.LatencyHistogram = LatencyHistogram
            watch.stop()
        window = (start_ns, time.perf_counter_ns())
        after = Snapshot.take(dep, gateway)
        out = self._report(
            dep, gateway, probes, steps, updates, before, after,
            watch, tracer, window,
        )
        base_ops = sum(len(plan) for plan in self.plans[:BASE_SLICES]) + len(updates)
        out.put("cpu_us_per_op", cpu_base * 1e6 / base_ops, "us")
        return out

    async def _update(self, dep, gateway, updates) -> None:
        loop = asyncio.get_running_loop()
        db = dep.site.database
        cache = dep.site.web_cache
        interval = 1.0 / self.spec.update_rate
        start = loop.time()
        for n, item_id in enumerate(self.update_ids):
            delay = start + n * interval - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            key = key_of(dep.site, f"/item?id={item_id}")
            cached = cache.peek(key) is not None
            begin = time.perf_counter()
            db.execute(f"UPDATE item SET price = price + 1 WHERE id = {item_id}")
            committed = time.perf_counter()
            updates.append((key, committed, cached, committed - begin))

    @staticmethod
    def _step_ok(rate, duration, result) -> bool:
        """Within the p99 limit, generator on schedule, backlog not growing."""
        p99, lateness = read_quantiles([result.histogram], 99.0)
        samples = result.queue_depth_samples
        third = max(1, len(samples) // 3)
        growing = (
            len(samples) >= 3
            and sum(samples[-third:]) / third
            > sum(samples[:third]) / third + 2 * WORKERS
        )
        on_time = result.duration_seconds <= 1.1 * duration + 0.05
        return (
            p99 <= SLO_P99_MS and lateness <= SLO_P99_MS and on_time and not growing
        )

    def _report(self, dep, gateway, probes, steps, updates, before, after,
                watch, tracer, window) -> Result:
        spec = self.spec
        out = Result()
        base = [result for _r, _d, result in steps[:BASE_SLICES]]
        read_p99 = statistics.median(
            read_quantiles([result.histogram], 99.0)[0] for result in base)
        misses = [m for result in base for m in result.histogram.miss_seconds]
        hits = sum(result.hits for result in base)
        out.put("read_p99_ms", read_p99, "ms")
        out.put("miss_p50_ms", percentile(misses, 50) * 1e3, "ms")
        out.put("hit_ratio", hits / max(1, hits + len(misses)), "ratio")
        verdicts = []
        for n, (rate, duration, result) in enumerate(steps):
            verdicts.append(self._step_ok(rate, duration, result))
            p99, late = read_quantiles([result.histogram], 99.0)
            label = f"base slice {n + 1}" if n < BASE_SLICES else "step"
            out.notes.append(
                f"{label} {rate:.0f} req/s: p99 {p99:.3f} ms, generator lateness "
                f"p99 {late:.3f} ms, hit ratio {result.hit_ratio:.3f}, "
                f"queue peak {result.queue_depth_peak}, "
                f"{result.duration_seconds:.2f} s for {duration:.2f} s: "
                + ("meets" if verdicts[-1] else "misses") + " the limit")
        if spec.step_rates:
            passed = [rate for (rate, _d, _r), ok in zip(steps[BASE_SLICES:],
                                                         verdicts[BASE_SLICES:]) if ok]
            if all(verdicts[:BASE_SLICES]):
                passed.append(spec.base_rate)
            out.put("max_rps_at_slo", max(passed, default=0.0), "req/s")
        reads = sum(result.completed for _r, _d, result in steps)
        issued = sum(len(plan) for plan in self.plans[:len(steps)])
        shed = after.gateway["shed"] - before.gateway["shed"]
        lost = 0
        eject_latencies = []
        for key, committed, cached, _update_s in updates:
            if not cached:
                continue
            ejected = probes.first_eject_after(key, committed)
            if ejected is None:
                lost += 1
            else:
                eject_latencies.append((ejected - committed) * 1e3)
        if updates:
            out.put("update_eject_p50_ms", percentile(eject_latencies, 50), "ms")
            out.put("update_eject_p90_ms", percentile(eject_latencies, 90), "ms")
            out.put("update_eject_samples", len(eject_latencies), "count")

        # Correctness.
        if not updates:
            mismatched = sum(
                1 for request, body in probes.sampled_bodies
                if dep.site.balancer.handle(request).body != body
            )
            read = sorted({index for plan in self.plans for _at, index in plan})
            for index in self.audit_rng.sample(read, min(200, len(read))):
                url = self.population.url_for(index)
                dep.urls[key_of(dep.site, url)] = url
            mismatched += audit_cache(dep, list(dep.urls))
            stale = 0
            if mismatched:
                out.errors.append(f"{mismatched} served bodies differ from regeneration")
        else:
            for index in range(spec.population):
                url = self.population.url_for(index)
                dep.urls[key_of(dep.site, url)] = url
            stale = audit_cache(dep)
            if stale:
                out.errors.append(f"{stale} cached pages are stale after the run")
        if lost:
            out.errors.append(f"{lost} updates of cached pages produced no eject")
        out.attempted = issued + len(updates)
        out.failures = {
            "shed": shed, "http_5xx": probes.http_5xx,
            "stale_pages": stale, "lost_ejects": lost,
        }
        if issued != reads + shed:
            out.errors.append(f"{issued - reads - shed} reads never completed")
        out.layers = layer_metrics(
            dep, gateway, probes, before, after, watch, tracer,
            window, steps=steps, updates=updates,
        )
        return out


# -- invalidate-scale ----------------------------------------------------------


class ScaleWorkload:
    """One-row updates, each followed by a synchronous invalidation cycle."""

    ITEMS = 5_400
    LUXURY = 100
    BANDS = 400
    VENDORS = 200
    #: Update classes, in a fixed rotation so every run has the same mix:
    #: price and name changes of cached items, luxury rows (statically
    #: disjoint from every band page) and vendor renames (join pages).
    ROTATION = ["price", "price", "price", "price", "name", "name",
                "luxury", "luxury", "vendor", "price"]
    REPLAY_CYCLES = 20

    def __init__(self, seed: int, seconds: float) -> None:
        self.seconds = seconds
        rng = random.Random(seed)
        self.updates: List[Tuple[str, Optional[str]]] = []
        for n in range(20_000):
            kind = self.ROTATION[n % len(self.ROTATION)]
            if kind == "price":
                item = rng.randint(1, self.ITEMS)
                sql = f"UPDATE item SET price = price + 1 WHERE id = {item}"
            elif kind == "name":
                item = rng.randint(1, self.ITEMS)
                sql = f"UPDATE item SET name = 'item-{item}-{n}' WHERE id = {item}"
            elif kind == "luxury":
                item = self.ITEMS + rng.randint(1, self.LUXURY)
                sql = f"UPDATE item SET price = price + 1 WHERE id = {item}"
            else:
                vendor = rng.randint(1, self.VENDORS)
                sql = f"UPDATE vendor SET name = 'vendor-{vendor}-{n}' WHERE vid = {vendor}"
                item = None
            self.updates.append((sql, f"/item?id={item}" if item else None))
        self.replay_digests: Optional[List[str]] = None

    def setup(self, tracer: Optional[Tracer] = None) -> Deployment:
        site, portal = sites.scale_site(
            self.ITEMS, self.LUXURY, self.VENDORS, pages=1 << 20
        )
        dep = Deployment(site, portal)
        if tracer is not None:
            instrument(tracer, site, portal)
        for url in sites.scale_urls(self.ITEMS, self.BANDS, self.VENDORS):
            site.get(url)
        portal.run_invalidation_cycle()
        return finish_setup(dep)

    def replay(self, dep: Deployment) -> None:
        """Run the first cycles untimed on another set-up: the reference
        digests the timed run must reproduce."""
        probes = Probes()
        probes.attach_cache(dep.site.web_cache)
        self.replay_digests = [
            self._cycle(dep, probes, n)[1] for n in range(self.REPLAY_CYCLES)
        ]

    def _cycle(self, dep: Deployment, probes: Probes, n: int):
        sql, _url = self.updates[n]
        dep.site.database.execute(sql)
        seen = len(probes.eject_order)
        begin = time.perf_counter()
        report = dep.portal.run_invalidation_cycle()
        elapsed = time.perf_counter() - begin
        ejected = sorted(probes.eject_order[seen:])
        digest = hashlib.blake2b("\n".join(ejected).encode(), digest_size=8).hexdigest()
        return elapsed, digest, ejected, report

    def measure(self, dep: Deployment, tracer: Optional[Tracer]) -> Result:
        site = dep.site
        probes = Probes()
        probes.attach_cache(site.web_cache)
        for url in sites.scale_urls(self.ITEMS, self.BANDS, self.VENDORS):
            dep.urls[key_of(site, url)] = url
        before = Snapshot.take(dep, None)
        watch = GcWatch()
        cycles, digests, reports = [], [], []
        lost = 0
        start_ns = time.perf_counter_ns()
        watch.start()
        cpu_start = time.process_time()
        n = 0
        while time.perf_counter_ns() - start_ns < self.seconds * 1e9 and n < len(self.updates):
            _sql, url = self.updates[n]
            key = key_of(site, url) if url else None
            cached = key is not None and site.web_cache.peek(key) is not None
            elapsed, digest, ejected, report = self._cycle(dep, probes, n)
            if cached and key not in ejected:
                lost += 1
            cycles.append(elapsed * 1e3)
            digests.append(digest)
            reports.append(report)
            n += 1
        cpu = time.process_time() - cpu_start
        watch.stop()
        window = (start_ns, time.perf_counter_ns())
        after = Snapshot.take(dep, None)
        out = Result()
        out.put("cycle_p50_ms", percentile(cycles, 50), "ms")
        out.put("cycle_p90_ms", percentile(cycles, 90), "ms")
        out.put("cycles", len(cycles), "count")
        out.put("cpu_us_per_op", cpu * 1e6 / len(cycles), "us")
        stale = audit_cache(dep)
        if stale:
            out.errors.append(f"{stale} cached pages are stale after the run")
        if lost:
            out.errors.append(f"{lost} updates of cached pages produced no eject")
        replayed = self.replay_digests or []
        if digests[:len(replayed)] != replayed[:len(digests)]:
            out.errors.append("ejected-URL digests differ between two runs of one seed")
        out.attempted = len(cycles)
        out.failures = {"shed": 0, "http_5xx": 0, "stale_pages": stale, "lost_ejects": lost}
        out.layers = layer_metrics(
            dep, None, probes, before, after, watch, tracer, window,
            reports=reports,
        )
        return out


# -- counters and per-layer metrics ----------------------------------------------


@dataclass
class Snapshot:
    cache: Dict[str, int]
    gateway: Dict[str, int]
    pool_waits: int
    plan_hits: int
    plan_misses: int
    stream: Dict[str, int]
    mapped: int
    scanned: int

    @staticmethod
    def take(dep: Deployment, gateway: Optional[AsyncGateway]) -> "Snapshot":
        stats = dep.site.web_cache.stats
        db = dep.site.database
        gw = vars(gateway.stats).copy() if gateway is not None else {}
        registrations = [dep.portal.invalidator.registration]
        stream = {}
        if dep.pipeline is not None:
            registrations.append(dep.pipeline.registration)
            stream = {k: v for k, v in vars(dep.pipeline.metrics).items()
                      if isinstance(v, int)}
        return Snapshot(
            cache={k: getattr(stats, k) for k in
                   ("hits", "misses", "stores", "ejects", "evictions")},
            gateway=gw,
            pool_waits=sum(a.pool.acquire_waits for a in dep.site.app_servers),
            plan_hits=db.plan_cache_hits,
            plan_misses=db.plan_cache_misses,
            stream=stream,
            mapped=dep.portal.sniffer.mapper.requests_mapped,
            scanned=sum(r.rows_scanned for r in registrations),
        )


#: Every per-layer metric with its unit, in the order it is printed.
LAYER_METRICS = {
    "loadgen.lateness_p99_ms": "ms",
    "loadgen.issued": "count",
    "cache.get_us": "us",
    "cache.get_calls": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_us": "us",
    "cache.evictions": "count",
    "cache.ejects": "count",
    "gateway.miss_wait_ms_p50": "ms",
    "gateway.miss_wait_ms_p99": "ms",
    "gateway.queue_depth_peak": "count",
    "gateway.coalesced": "count",
    "gateway.shed": "count",
    "gateway.worker_errors": "count",
    "appserver.handle_us_p50": "us",
    "appserver.handle_us_p99": "us",
    "appserver.pool_waits": "count",
    "sniffer.request_log_self_us": "us",
    "sniffer.query_log_self_us": "us",
    "db.select_us_p50": "us",
    "db.selects_per_miss": "ratio",
    "db.plan_cache_hit_ratio": "ratio",
    "db.update_us": "us",
    "sniffer.map_us_per_request": "us",
    "registration.us_per_instance": "us",
    "registration.instances": "count",
    "pipeline.tick_ms_p50": "ms",
    "pipeline.tick_ms_p99": "ms",
    "pipeline.tick_busy_share": "ratio",
    "tailer.poll_us": "us",
    "tailer.lag_records_max": "count",
    "cascade.batch_ms_p50": "ms",
    "cascade.batch_ms_p99": "ms",
    "cascade.pairs_per_record": "ratio",
    "tier.static_skips": "count",
    "tier.version_key_fresh": "count",
    "tier.index_pruned": "count",
    "tier.checker_calls": "count",
    "tier.polls_executed": "count",
    "tier.over_invalidated": "count",
    "tier.safety_fallbacks": "count",
    "cascade.useful_share": "ratio",
    "poll.ms_per_cycle": "ms",
    "poll.db_queries": "count",
    "poll.batched_instances": "count",
    "bus.publish_calls": "count",
    "bus.pump_us": "us",
    "bus.ejects_coalesced": "count",
    "bus.retries": "count",
    "bus.dead_letters": "count",
    "cycle.pairs_checked": "count",
    "cycle.urls_ejected": "count",
    "gc.gen2_collections": "count",
    "gc.pause_ms_max": "ms",
    "share.hit_probe": "ratio",
    "share.miss_lane": "ratio",
    "share.discovery": "ratio",
    "handle.share.appserver": "ratio",
    "handle.share.request_log": "ratio",
    "handle.share.servlet": "ratio",
    "handle.share.query_log": "ratio",
    "handle.share.db": "ratio",
    "handle.share.unattributed": "ratio",
}

#: Ladder counters shared by ``InvalidationReport`` and ``PipelineMetrics``.
_LADDER = ("pairs_checked", "records_processed", "static_disjoint_skips",
           "polls_avoided", "pairs_pruned", "polls_executed", "over_invalidated",
           "fallback_ejects", "poll_only_checks", "batched_queries",
           "batched_instances", "pages_removed", "urls_ejected")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def layer_metrics(dep, gateway, probes, before, after, watch, tracer,
                  window, steps=(), updates=(), reports=()) -> Dict[str, float]:
    """Counters always; span-derived figures when a tracer is attached.

    ``window`` is the timed window as (start, end) ``perf_counter_ns``;
    discovery figures cover set-up too, where most registration happens.
    """
    m = {name: 0.0 for name in LAYER_METRICS}
    cache = _delta(after.cache, before.cache)
    lookups = cache["hits"] + cache["misses"]
    m["cache.get_calls"] = lookups
    m["cache.hit_ratio"] = _ratio(cache["hits"], lookups)
    m["cache.evictions"] = cache["evictions"]
    m["cache.ejects"] = cache["ejects"]
    if gateway is not None:
        gw = _delta(after.gateway, before.gateway)
        m["gateway.coalesced"] = gw["coalesced"]
        m["gateway.shed"] = gw["shed"]
        m["gateway.worker_errors"] = gw["worker_errors"]
        m["gateway.queue_depth_peak"] = max(
            (r.queue_depth_peak for _r, _d, r in steps), default=0)
    m["loadgen.issued"] = sum(r.completed for _r, _d, r in steps)
    if steps:
        m["loadgen.lateness_p99_ms"] = read_quantiles(
            [r.histogram for _r, _d, r in steps], 99.0)[1]
    m["appserver.pool_waits"] = after.pool_waits - before.pool_waits
    plan = (after.plan_hits - before.plan_hits,
            after.plan_misses - before.plan_misses)
    m["db.plan_cache_hit_ratio"] = _ratio(plan[0], plan[0] + plan[1])
    m["db.update_us"] = _mean(u[3] * 1e6 for u in updates)
    ladder = {k: 0 for k in _LADDER}
    if reports:
        for report in reports:
            for k in _LADDER:
                ladder[k] += getattr(report, k, 0)
        m["cycle.pairs_checked"] = _ratio(ladder["pairs_checked"], len(reports))
        m["cycle.urls_ejected"] = _ratio(ladder["urls_ejected"], len(reports))
        cycles = len(reports)
    else:
        stream = _delta(after.stream, before.stream)
        for k in _LADDER:
            ladder[k] = stream.get(k, 0)
        ladder["urls_ejected"] = stream.get("ejects_requested", 0)
        m["bus.ejects_coalesced"] = stream.get("ejects_coalesced", 0)
        m["bus.retries"] = stream.get("retries", 0)
        m["bus.dead_letters"] = stream.get("dead_letters", 0)
        cycles = stream.get("batches_processed", 0)
    m["cascade.pairs_per_record"] = _ratio(
        ladder["pairs_checked"], ladder["records_processed"])
    m["tier.static_skips"] = ladder["static_disjoint_skips"]
    m["tier.version_key_fresh"] = ladder["polls_avoided"]
    m["tier.index_pruned"] = ladder["pairs_pruned"]
    m["tier.checker_calls"] = max(0, ladder["pairs_checked"] - sum(
        ladder[k] for k in ("static_disjoint_skips", "polls_avoided",
                            "pairs_pruned", "poll_only_checks", "fallback_ejects")))
    m["tier.polls_executed"] = ladder["polls_executed"]
    m["tier.over_invalidated"] = ladder["over_invalidated"]
    m["tier.safety_fallbacks"] = ladder["fallback_ejects"]
    m["cascade.useful_share"] = _ratio(ladder["pages_removed"], ladder["pairs_checked"])
    m["poll.db_queries"] = ladder["batched_queries"] + max(
        0, ladder["polls_executed"] - ladder["batched_instances"])
    m["poll.batched_instances"] = ladder["batched_instances"]
    m["registration.instances"] = after.scanned
    m["gc.gen2_collections"] = watch.gen2
    m["gc.pause_ms_max"] = watch.pause_max_s * 1e3
    if tracer is None:
        return m

    window_s = (window[1] - window[0]) / 1e9
    us = tracer.durations_us
    m["cache.get_us"] = _mean(us("cache.get", window))
    m["cache.put_us"] = _mean(us("cache.put", window))
    handles = tracer.named("balancer.handle", window)
    waits = []
    for span in sorted(handles, key=lambda s: s[3]):
        queue = probes.enqueued.get(span[5])
        if queue:
            waits.append((span[3] - queue.popleft()) / 1e6)
    m["gateway.miss_wait_ms_p50"] = percentile(waits, 50)
    m["gateway.miss_wait_ms_p99"] = percentile(waits, 99)
    handle_us = [(s[4] - s[3]) / 1e3 for s in handles]
    m["appserver.handle_us_p50"] = percentile(handle_us, 50)
    m["appserver.handle_us_p99"] = percentile(handle_us, 99)
    m["sniffer.request_log_self_us"] = _mean(
        tracer.self_times_us("sniffer.request_log", window))
    m["sniffer.query_log_self_us"] = _mean(
        tracer.self_times_us("sniffer.query_log", window))
    selects = us("db.select", window)
    m["db.select_us_p50"] = percentile(selects, 50)
    m["db.selects_per_miss"] = _ratio(len(selects), len(handles))
    m["sniffer.map_us_per_request"] = _ratio(
        tracer.total_s(["sniffer.map"]) * 1e6, after.mapped)
    m["registration.us_per_instance"] = _ratio(
        tracer.total_s(["registration.scan"]) * 1e6, after.scanned)
    ticks = us("pipeline.tick", window)
    m["pipeline.tick_ms_p50"] = percentile(ticks, 50) / 1e3
    m["pipeline.tick_ms_p99"] = percentile(ticks, 99) / 1e3
    m["pipeline.tick_busy_share"] = sum(ticks) / 1e6 / window_s
    m["tailer.poll_us"] = _mean(us("tailer.poll", window))
    m["tailer.lag_records_max"] = max(
        (s[5] for s in tracer.named("tailer.poll", window)), default=0)
    batches = us("cascade.batch", window)
    m["cascade.batch_ms_p50"] = percentile(batches, 50) / 1e3
    m["cascade.batch_ms_p99"] = percentile(batches, 99) / 1e3
    m["poll.ms_per_cycle"] = _ratio(
        tracer.total_s(["poll.execute"], window) * 1e3, cycles)
    m["bus.publish_calls"] = len(tracer.named("bus.publish", window))
    m["bus.pump_us"] = _mean(us("bus.pump", window))
    # Shares of traced time: the summed duration of outermost spans.
    traced_s = sum(
        s[4] - s[3] for s in tracer.spans
        if s[1] == 0 and s[3] >= window[0] and s[4] <= window[1]
    ) / 1e9
    m["share.hit_probe"] = _ratio(tracer.total_s(["cache.get"], window), traced_s)
    m["share.miss_lane"] = _ratio(tracer.total_s(["balancer.handle"], window), traced_s)
    m["share.discovery"] = _ratio(tracer.total_s(
        ["sniffer.map", "registration.scan"], window), traced_s)
    # Where a miss's time goes inside balancer.handle: each wrapped layer's
    # self time, and the rest (balancer + web server) as unattributed.
    handle_total = sum(s[4] - s[3] for s in handles) / 1e3
    layers = {
        "appserver": ("appserver.handle",),
        "request_log": ("sniffer.request_log",),
        "servlet": ("servlet.service",),
        "query_log": ("sniffer.query_log",),
        "db": ("db.select",),
    }
    covered = 0.0
    for label, names in layers.items():
        share = _ratio(sum(sum(tracer.self_times_us(n, window)) for n in names),
                       handle_total)
        m[f"handle.share.{label}"] = share
        covered += share
    m["handle.share.unattributed"] = max(0.0, 1.0 - covered) if handle_total else 0.0
    return m


def make(name: str, seed: int, seconds: float):
    if name == "invalidate-scale":
        return ScaleWorkload(seed, seconds)
    spec = {s.name: s for s in (READ_HOT, READ_MISS, READ_WRITE)}[name]
    return ReadWorkload(spec, seed, seconds)

