"""The sites the benchmark drives, built only through the public API.

Two applications:

* the **item site** -- one equality-keyed page, ``/item?id=K`` backed by
  ``SELECT ... FROM item WHERE id = ?`` (the ``bench_serving.py`` site);
* the **scale site** -- the item page plus a price-band page (a range
  predicate) and a vendor page (a two-table join), so that every tier of
  the invalidator's verdict ladder resolves some (page, update) pairs.
"""

from __future__ import annotations

from typing import List

from repro.core import CachePortal
from repro.db import Database
from repro.web import Configuration, KeySpec, QueryPageServlet, build_site
from repro.web.servlet import QueryBinding

#: App servers behind the balancer (the paper's farm, scaled down).
NUM_SERVERS = 2
#: Rows per INSERT statement while loading tables.
_INSERT_CHUNK = 1000


def _insert(db: Database, table: str, rows: List[str]) -> None:
    for start in range(0, len(rows), _INSERT_CHUNK):
        db.execute(
            f"INSERT INTO {table} VALUES " + ",".join(rows[start:start + _INSERT_CHUNK])
        )


def item_price(item_id: int) -> int:
    return 1000 + (item_id * 7919) % 5000


# -- the item site -------------------------------------------------------------


def item_db(rows: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE item (id INT, name TEXT, price INT)")
    db.execute("CREATE INDEX idx_item_id ON item (id)")
    _insert(
        db, "item",
        [f"({i}, 'item-{i}', {item_price(i)})" for i in range(1, rows + 1)],
    )
    return db


def item_servlets() -> List[QueryPageServlet]:
    return [
        QueryPageServlet(
            name="item",
            path="/item",
            queries=[(
                "SELECT id, name, price FROM item WHERE id = ?",
                [QueryBinding("get", "id", int)],
            )],
            key_spec=KeySpec.make(get_keys=["id"]),
        )
    ]


def item_site(rows: int, cache_pages: int):
    """An item site with CachePortal installed; returns (site, portal)."""
    site = build_site(
        Configuration.WEB_CACHE,
        item_servlets(),
        database=item_db(rows),
        num_servers=NUM_SERVERS,
        web_cache_capacity=cache_pages,
    )
    return site, CachePortal(site)


# -- the scale site --------------------------------------------------------------

#: Rows priced far above every band page: updates to them belong to the
#: declared ``luxury`` update class, which the conflict matrix proves
#: disjoint from the band pages (the static-skip tier).
LUXURY_PRICE = 200_000
BAND_LOW = 1000
BAND_WIDTH = 10


def scale_db(items: int, luxury: int, vendors: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE item (id INT, name TEXT, price INT, vid INT)")
    db.execute("CREATE INDEX idx_item_id ON item (id)")
    db.execute("CREATE INDEX idx_item_price ON item (price)")
    db.execute("CREATE INDEX idx_item_vid ON item (vid)")
    db.execute("CREATE TABLE vendor (vid INT, name TEXT, region INT)")
    db.execute("CREATE INDEX idx_vendor_vid ON vendor (vid)")
    rows = [
        f"({i}, 'item-{i}', {item_price(i)}, {1 + i % vendors})"
        for i in range(1, items + 1)
    ]
    rows += [
        f"({i}, 'lux-{i}', {LUXURY_PRICE + i}, {1 + i % vendors})"
        for i in range(items + 1, items + luxury + 1)
    ]
    _insert(db, "item", rows)
    _insert(
        db, "vendor",
        [f"({v}, 'vendor-{v}', {v % 10})" for v in range(1, vendors + 1)],
    )
    return db


def scale_servlets() -> List[QueryPageServlet]:
    return item_servlets() + [
        QueryPageServlet(
            name="band",
            path="/band",
            queries=[(
                "SELECT id, name FROM item WHERE price >= ? AND price < ?",
                [QueryBinding("get", "lo", int), QueryBinding("get", "hi", int)],
            )],
            key_spec=KeySpec.make(get_keys=["lo", "hi"]),
        ),
        QueryPageServlet(
            name="vendor",
            path="/vendor",
            queries=[(
                "SELECT item.id, item.name, vendor.name FROM item, vendor "
                "WHERE item.vid = vendor.vid AND vendor.vid = ?",
                [QueryBinding("get", "vid", int)],
            )],
            key_spec=KeySpec.make(get_keys=["vid"]),
        ),
    ]


def scale_urls(items: int, bands: int, vendors: int) -> List[str]:
    urls = [f"/item?id={i}" for i in range(1, items + 1)]
    urls += [
        f"/band?lo={lo}&hi={lo + BAND_WIDTH}"
        for lo in range(BAND_LOW, BAND_LOW + bands * BAND_WIDTH, BAND_WIDTH)
    ]
    urls += [f"/vendor?vid={v}" for v in range(1, vendors + 1)]
    return urls


def scale_site(items: int, luxury: int, vendors: int, pages: int):
    site = build_site(
        Configuration.WEB_CACHE,
        scale_servlets(),
        database=scale_db(items, luxury, vendors),
        num_servers=NUM_SERVERS,
        web_cache_capacity=pages,
    )
    portal = CachePortal(site)
    portal.invalidator.conflict_matrix.declare_class(
        "luxury", "item", where=f"price >= {LUXURY_PRICE}"
    )
    return site, portal
