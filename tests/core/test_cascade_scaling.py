"""A one-row update costs what it can affect, not what is cached.

The scale shape mirrors a catalog site: per-item pages (``id = ?``,
version-keyed), price-band pages (``price >= ? AND price < ?``, a
two-sided range) and vendor pages (a two-table join whose vendor id
reaches the item side only through the equality chain ``item.vid =
vendor.vid AND vendor.vid = ?``).  For one one-row UPDATE, the pairs the
cascade visits one by one, the checker calls and the polls must be the
same whether 1k, 3k or 10k pages are cached — on both drivers.  These
are counts, not timings.  Every other pair is charged in bulk, so
``pairs_checked`` still grows with the registry.
"""

import random

import pytest

from repro.core.invalidator import Invalidator
from repro.core.qiurl import QIURLMap
from repro.db import Database
from repro.stream import StreamingInvalidationPipeline
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse

ITEMS = 60
VENDORS = 30
BAND_LOW = 1000
BAND_WIDTH = 10
SIZES = (1_000, 3_000, 10_000)


def item_price(i):
    return BAND_LOW + (i * 37) % 2000


def scale_db():
    db = Database()
    db.execute("CREATE TABLE item (id INT, name TEXT, price INT, vid INT)")
    db.execute("CREATE TABLE vendor (vid INT, name TEXT)")
    db.execute(
        "INSERT INTO item VALUES "
        + ", ".join(
            f"({i}, 'item-{i}', {item_price(i)}, {1 + i % VENDORS})"
            for i in range(1, ITEMS + 1)
        )
    )
    db.execute(
        "INSERT INTO vendor VALUES "
        + ", ".join(f"({v}, 'vendor-{v}')" for v in range(1, VENDORS + 1))
    )
    return db


def scale_pages(size):
    """``size`` (url, sql) pairs: 90% item, 7% band, 3% vendor pages."""
    bands = size * 7 // 100
    vendors = size * 3 // 100
    pages = [
        (f"/item?id={i}", f"SELECT id, name, price FROM item WHERE id = {i}")
        for i in range(1, size - bands - vendors + 1)
    ]
    for b in range(bands):
        lo = BAND_LOW + b * BAND_WIDTH
        pages.append(
            (
                f"/band?lo={lo}",
                "SELECT id, name FROM item "
                f"WHERE price >= {lo} AND price < {lo + BAND_WIDTH}",
            )
        )
    pages += [
        (
            f"/vendor?vid={v}",
            "SELECT item.id, vendor.name FROM item, vendor "
            f"WHERE item.vid = vendor.vid AND vendor.vid = {v}",
        )
        for v in range(1, vendors + 1)
    ]
    return pages


def load(cache, qiurl, pages):
    page = HttpResponse(body="page", cache_control=CacheControl.cacheportal_private())
    for url, sql in pages:
        cache.put(url, page)
        qiurl.add(sql, url, "servlet")


UPDATE = "UPDATE item SET price = price + 1 WHERE id = 7"


def sync_counts(size):
    db, cache, qiurl = scale_db(), WebCache(capacity=1 << 20), QIURLMap()
    invalidator = Invalidator(db, [cache], qiurl)
    load(cache, qiurl, scale_pages(size))
    invalidator.run_cycle()  # registration
    db.execute(UPDATE)
    report = invalidator.run_cycle()
    return report, set(cache.keys())


def streaming_counts(size):
    db, cache, qiurl = scale_db(), WebCache(capacity=1 << 20), QIURLMap()
    pipeline = StreamingInvalidationPipeline(db, [cache], qiurl, num_shards=1)
    load(cache, qiurl, scale_pages(size))
    pipeline.process_available()  # registration
    before = pipeline.metrics.counter_values()
    db.execute(UPDATE)
    pipeline.process_available()
    after = pipeline.metrics
    delta = {name: getattr(after, name) - value for name, value in before.items()}
    checker = delta["pairs_checked"] - sum(
        delta[name]
        for name in (
            "static_disjoint_skips",
            "polls_avoided",
            "pairs_pruned",
            "poll_only_checks",
            "fallback_ejects",
        )
    )
    return delta, checker, set(cache.keys())


def flat_counts(counters, checker_calls):
    return (
        counters["pairs_materialized"],
        checker_calls,
        counters["polls_requested"],
        counters["polls_executed"],
    )


@pytest.fixture(scope="module")
def sync_runs():
    return {size: sync_counts(size) for size in SIZES}


@pytest.fixture(scope="module")
def streaming_runs():
    return {size: streaming_counts(size) for size in SIZES}


class TestOneRowUpdateIsFlat:
    def test_sync_counts_identical_at_every_size(self, sync_runs):
        counts = {
            size: flat_counts(vars(report), report.checker_invocations)
            for size, (report, _kept) in sync_runs.items()
        }
        assert len(set(counts.values())) == 1, counts
        materialized, checker, requested, _executed = counts[SIZES[0]]
        # One item page, at most two bands (old and new price), one
        # vendor page: a handful of pairs, a handful of polls.
        assert 0 < materialized <= 8
        assert checker <= materialized
        assert requested <= 2

    def test_streaming_counts_identical_at_every_size(self, streaming_runs):
        counts = {
            size: flat_counts(delta, checker)
            for size, (delta, checker, _kept) in streaming_runs.items()
        }
        assert len(set(counts.values())) == 1, counts

    def test_drivers_agree(self, sync_runs, streaming_runs):
        for size in SIZES:
            report, sync_kept = sync_runs[size]
            delta, checker, stream_kept = streaming_runs[size]
            assert sync_kept == stream_kept, size
            assert flat_counts(vars(report), report.checker_invocations) == (
                flat_counts(delta, checker)
            ), size
            # Everything else was charged in bulk: the pair total still
            # covers the whole registry.
            assert report.pairs_checked == delta["pairs_checked"]
            assert report.pairs_checked > size

    def test_only_affected_pages_leave(self, sync_runs):
        item = 7
        price = item_price(item)
        for size, (_report, kept) in sync_runs.items():
            gone = {url for url, _sql in scale_pages(size)} - kept
            assert f"/item?id={item}" in gone
            # The item moved from `price` to `price + 1`: the bands that
            # held either price lose a row or gain one.
            for p in (price, price + 1):
                lo = BAND_LOW + (p - BAND_LOW) // BAND_WIDTH * BAND_WIDTH
                assert f"/band?lo={lo}" in gone
            assert f"/vendor?vid={1 + item % VENDORS}" in gone
            assert len(gone) <= 4


def test_seeded_update_sequence_sync_matches_streaming():
    """One seeded UPDATE sequence through both drivers: identical ejected
    URL sets after every update."""
    rng = random.Random(12)
    statements = []
    for n in range(40):
        kind = rng.choice(["price", "name", "vendor", "vid"])
        item = rng.randint(1, ITEMS)
        if kind == "price":
            statements.append(f"UPDATE item SET price = price + {rng.randint(1, 30)} WHERE id = {item}")
        elif kind == "name":
            statements.append(f"UPDATE item SET name = 'n{n}' WHERE id = {item}")
        elif kind == "vid":
            statements.append(f"UPDATE item SET vid = {rng.randint(1, VENDORS)} WHERE id = {item}")
        else:
            statements.append(
                f"UPDATE vendor SET name = 'v{n}' WHERE vid = {rng.randint(1, VENDORS)}"
            )
    pages = scale_pages(1_000)

    sync_db, sync_cache, sync_map = scale_db(), WebCache(capacity=1 << 20), QIURLMap()
    invalidator = Invalidator(sync_db, [sync_cache], sync_map)
    load(sync_cache, sync_map, pages)
    invalidator.run_cycle()

    stream_db, stream_cache, stream_map = scale_db(), WebCache(capacity=1 << 20), QIURLMap()
    pipeline = StreamingInvalidationPipeline(
        stream_db, [stream_cache], stream_map, num_shards=2
    )
    load(stream_cache, stream_map, pages)
    pipeline.process_available()

    for statement in statements:
        sync_db.execute(statement)
        invalidator.run_cycle()
        stream_db.execute(statement)
        pipeline.process_available()
        assert set(sync_cache.keys()) == set(stream_cache.keys()), statement
    assert len(sync_cache.keys()) < len(pages)  # the sequence did eject


def test_bulk_charging_matches_the_scan_ladder():
    """Pairs the index prunes are charged to the tier the ladder would
    have resolved them with: with the index on or off, the static and
    version-key tiers report the same counts, and the index prunes
    exactly the pairs the scan sends to the checker in vain."""
    rng = random.Random(5)
    statements = []
    for n in range(30):
        item = rng.randint(1, ITEMS)
        statements.append(
            rng.choice(
                [
                    f"UPDATE item SET price = price + 3 WHERE id = {item}",
                    f"UPDATE item SET name = 'n{n}' WHERE id = {item}",
                    f"INSERT INTO item VALUES ({1000 + n}, 'lux', {90000 + n}, 2)",
                    f"UPDATE vendor SET name = 'v{n}' WHERE vid = {item % VENDORS + 1}",
                ]
            )
        )
    pages = scale_pages(600)
    arms = {}
    for indexed in (True, False):
        db, cache, qiurl = scale_db(), WebCache(capacity=1 << 20), QIURLMap()
        invalidator = Invalidator(db, [cache], qiurl, predicate_index=indexed)
        invalidator.conflict_matrix.declare_class(
            "luxury", "item", where="price >= 90000"
        )
        load(cache, qiurl, pages)
        invalidator.run_cycle()
        reports = []
        for statement in statements:
            db.execute(statement)
            reports.append(invalidator.run_cycle())
        arms[indexed] = (reports, set(cache.keys()))
    (indexed, indexed_kept), (scanned, scanned_kept) = arms[True], arms[False]
    assert indexed_kept == scanned_kept
    for on, off in zip(indexed, scanned):
        for counter in (
            "pairs_checked",
            "unaffected",
            "affected",
            "static_disjoint_skips",
            "template_pairs_pruned",
            "version_key_checks",
            "polls_avoided",
            "polls_executed",
            "urls_ejected",
        ):
            assert getattr(on, counter) == getattr(off, counter), counter
        assert off.pairs_pruned == 0
        assert off.checker_invocations == on.checker_invocations + on.pairs_pruned
    assert sum(r.static_disjoint_skips for r in indexed) > 0
    assert sum(r.polls_avoided for r in indexed) > 0


def test_each_poll_task_is_parameterized_once(monkeypatch):
    """The finisher parameterizes a polling query once and hands the
    result to the executor, which must not derive it again."""
    import repro.core.invalidator.batchpoll as batchpoll
    import repro.core.invalidator.cascade as cascade

    calls = []

    def counting(real):
        def wrapper(query):
            calls.append(query)
            return real(query)

        return wrapper

    monkeypatch.setattr(cascade, "parameterize", counting(cascade.parameterize))
    monkeypatch.setattr(batchpoll, "parameterize", counting(batchpoll.parameterize))
    db, cache, qiurl = scale_db(), WebCache(capacity=1 << 20), QIURLMap()
    invalidator = Invalidator(db, [cache], qiurl)
    load(cache, qiurl, scale_pages(1_000))
    invalidator.run_cycle()
    db.execute(f"UPDATE vendor SET name = 'renamed' WHERE vid <= {VENDORS}")
    report = invalidator.run_cycle()
    assert report.polls_requested >= 2
    assert report.batched_queries >= 1
    assert len(calls) == report.polls_requested
