"""Tests for the invalidation driver core both drivers share.

The synchronous :class:`Invalidator` and the streaming pipeline read the
log through one tailer and share one update-loss valve and one
checkpoint path, so their failure paths must agree: the same pages
flushed, the same version-key floors, the same lost LSN ranges.
"""

import random

import pytest

from helpers import car_servlets, make_car_db
from repro import CachePortal, Configuration, Database, build_site
from repro.core import Invalidator
from repro.core.qiurl import QIURLMap
from repro.stream import StreamingInvalidationPipeline
from repro.web.cache import WebCache
from repro.web.http import CacheControl, HttpResponse

ACME_PAGE = (
    "SELECT item.id FROM item, vendor "
    "WHERE item.vid = vendor.vid AND vendor.name = 'acme'"
)


def cacheable():
    return HttpResponse(body="p", cache_control=CacheControl.cacheportal_private())


def sync_driver(db, cache, qiurl, **options):
    invalidator = Invalidator(db, [cache], qiurl, **options)
    return invalidator, invalidator.run_cycle


def stream_driver(db, cache, qiurl, **options):
    pipeline = StreamingInvalidationPipeline(
        db, [cache], qiurl, num_shards=2, **options
    )
    return pipeline, pipeline.process_available


DRIVERS = {"sync": sync_driver, "stream": stream_driver}


def item_vendor_db(log_capacity=3):
    db = Database(log_capacity=log_capacity)
    db.execute("CREATE TABLE item (id INT, vid INT)")
    db.execute("CREATE TABLE vendor (vid INT, name TEXT)")
    db.execute("CREATE TABLE other (x INT)")
    db.execute("INSERT INTO vendor VALUES (7, 'zenith')")
    return db


@pytest.mark.parametrize("kind", sorted(DRIVERS))
class TestUpdateLossValve:
    def test_polling_results_do_not_survive_update_loss(self, kind):
        """A poll answered before a lost update must not answer after it:
        the lost change may be exactly what flips it."""
        db, cache, qiurl = item_vendor_db(), WebCache(), QIURLMap()
        driver, step = DRIVERS[kind](db, cache, qiurl)

        def cache_page():
            cache.put("/acme", cacheable())
            qiurl.add(ACME_PAGE, "/acme", "s")
            step()

        cache_page()
        db.execute("INSERT INTO item VALUES (1, 7)")
        step()
        assert "/acme" in cache.keys()  # vendor 7 is not acme: poll says no
        db.execute("UPDATE vendor SET name = 'acme' WHERE vid = 7")
        for x in range(3):
            db.execute(f"INSERT INTO other VALUES ({x})")
        step()  # the vendor change is lost to overflow: flush everything
        assert "/acme" not in cache.keys()

        cache_page()
        db.execute("INSERT INTO item VALUES (1, 7)")
        step()
        assert db.query(
            "SELECT COUNT(*) FROM vendor WHERE vid = 7 AND name = 'acme'"
        ) == [(1,)]
        assert "/acme" not in cache.keys()
        assert driver.infomgmt.result_cache.hits == 0

    def test_data_cache_resyncs_after_update_loss(self, kind):
        """Polls routed through the data cache keep working after the
        log wraps past the data cache's own cursor."""
        db, cache, qiurl = item_vendor_db(), WebCache(), QIURLMap()
        driver, step = DRIVERS[kind](db, cache, qiurl, use_data_cache=True)
        for x in range(5):
            db.execute(f"INSERT INTO other VALUES ({x})")
        step()
        cache.put("/acme", cacheable())
        qiurl.add(ACME_PAGE, "/acme", "s")
        step()
        db.execute("UPDATE vendor SET name = 'acme' WHERE vid = 7")
        step()
        db.execute("INSERT INTO item VALUES (1, 7)")
        step()
        assert "/acme" not in cache.keys()


def test_sync_cycle_reads_every_record_since_the_last():
    """The synchronous cycle polls the tailer to the head: one cycle
    covers a backlog larger than one tail batch."""
    db = make_car_db()
    invalidator = Invalidator(db, [WebCache()], QIURLMap())
    for i in range(invalidator.tailer.batch_size + 44):
        db.execute(f"INSERT INTO car VALUES ('M{i}', 'X{i}', {1000 + i})")
    report = invalidator.run_cycle()
    assert report.records_processed == invalidator.tailer.batch_size + 44
    assert invalidator.tailer.at_head()


def car_site(log_capacity):
    db = make_car_db()
    db.update_log.capacity = log_capacity
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=db, num_servers=2
    )
    return db, site


def test_truncated_restore_flushes_pages_mapped_after_the_last_cycle(tmp_path):
    """A page cached after the last cycle is mapped, not yet registered,
    when the checkpoint is taken.  A restore that finds the log wrapped
    must flush it too: the changes it missed are unknowable."""
    db, site = car_site(log_capacity=3)
    portal = CachePortal(site)
    portal.run_invalidation_cycle()
    site.get("/catalog?max_price=30000")
    path = tmp_path / "portal.ckpt"
    portal.checkpoint(path)
    for i in range(6):  # every one of these rows belongs on the page
        db.execute(f"INSERT INTO car VALUES ('K{i}', 'R{i}', {1000 + i})")
    portal.sniffer.uninstall()
    restored = CachePortal(site)
    report = restored.restore(path)
    restored.run_invalidation_cycle()
    assert report.log_truncated and report.flushed_urls == 1
    assert len(site.web_cache) == 0


def failure_path(kind, seed, path):
    """Drive one seeded update sequence through one driver: a bounded
    log that truncates mid-sequence, then a checkpoint restored across
    a second truncation.  Returns what each valve firing saw plus the
    end state."""
    rng = random.Random(seed)
    db, site = car_site(log_capacity=6)
    models = ["Avalon", "Eclipse", "Civic", "M5", "Rio"]
    pages = [
        f"/catalog?max_price={rng.randrange(15000, 80000, 1000)}" for _ in range(4)
    ] + [f"/efficient?min_epa={rng.randrange(10, 40)}" for _ in range(3)]
    observed = []

    def attach(portal):
        """(driver, step, the object owning checkpoint/restore)."""
        if kind == "sync":
            driver, step, owner = (
                portal.invalidator, portal.run_invalidation_cycle, portal
            )
        else:
            driver = StreamingInvalidationPipeline.for_portal(portal, num_shards=2)
            step, owner = driver.process_available, driver
        valve = driver.lose_updates

        def recording_valve():
            urls = valve()
            observed.append(
                (
                    sorted(urls),
                    driver.version_index.stats()["floor"],
                    driver.tailer.last_lost_range,
                )
            )
            return urls

        driver.lose_updates = recording_valve
        return driver, step, owner

    def serve():
        for url in pages:
            site.get(url)

    def insert(count):
        for _ in range(count):
            db.execute(
                f"INSERT INTO car VALUES ('M', '{rng.choice(models)}', "
                f"{rng.randrange(5000, 90000, 500)})"
            )

    portal = CachePortal(site)
    _driver, step, owner = attach(portal)
    serve()
    step()
    insert(2)
    step()
    serve()
    insert(9)  # past the log's capacity: truncates mid-sequence
    step()
    serve()
    step()
    insert(2)
    step()
    serve()
    owner.checkpoint(path)
    insert(9)  # the second truncation lands while the driver is down
    portal.sniffer.uninstall()
    restored, step, owner = attach(CachePortal(site))
    report = owner.restore(path)
    step()
    return (
        observed,
        report.lost_range,
        restored.version_index.stats()["floor"],
        sorted(site.web_cache.keys()),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_failure_paths_agree_across_drivers(seed, tmp_path):
    sync = failure_path("sync", seed, tmp_path / "sync.ckpt")
    stream = failure_path("stream", seed, tmp_path / "stream.ckpt")
    assert sync == stream
    observed, lost_range, _floor, _cached = sync
    # The valve fired at the mid-sequence truncation and at the restore,
    # and each time flushed pages and recorded the skipped LSN range.
    assert len(observed) == 2
    assert all(urls and lost is not None for urls, _f, lost in observed)
    assert observed[1][2] == lost_range
