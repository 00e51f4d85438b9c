"""Deterministic deployments whose discovery output is pinned by golden files.

``tests/core/data/`` holds what these scenarios produced when the QI/URL
map and the registry keyed instances by printed SQL text: the gateway
battery's QI/URL rows and a portal and a pipeline checkpoint.  The
discovery tests replay the scenarios and compare against those files.

Regenerate the files (only when the expected output changes on purpose)
with ``PYTHONPATH=src python tests/discovery_scenarios.py``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from helpers import car_servlets, make_car_db  # noqa: E402

from repro.core import CachePortal  # noqa: E402
from repro.db import Database  # noqa: E402
from repro.stream import StreamingInvalidationPipeline  # noqa: E402
from repro.web import Configuration, KeySpec, QueryPageServlet, build_site  # noqa: E402
from repro.web.http import HttpRequest  # noqa: E402
from repro.web.servlet import QueryBinding  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "core", "data")

#: The request battery of ``tests/serve/test_gateway_parity.py``.
GATEWAY_BATTERY = [
    "/catalog?max_price=21000",
    "/catalog?max_price=30000",
    "/catalog?max_price=21000",
    "/efficient?min_epa=30",
    "/efficient?min_epa=20",
    "/efficient?min_epa=30",
    "/nosuchpage",
    "/catalog?max_price=30000",
]

#: Pages cached before the checkpoint: a negative binding, a float-free
#: range page, two join pages and a repeat.
CHECKPOINT_PAGES = [
    "/catalog?max_price=21000",
    "/catalog?max_price=30000",
    "/catalog?max_price=-5",
    "/efficient?min_epa=30",
    "/efficient?min_epa=20",
]

#: Updates applied between mapping rounds (and replayed on restore).
UPDATES = [
    "INSERT INTO car VALUES ('Kia', 'Rio', 14000)",
    "INSERT INTO mileage VALUES ('Rio', 41)",
]

#: A row added as literal SQL text, as tests and older captures do.
LITERAL_ROW = ("SELECT maker FROM car WHERE price < 5000", "/literal", "catalog")


def item_pipeline(rows):
    """``/item?id=K`` pages over ``SELECT ... WHERE id = ?``, with the
    streaming pipeline as the invalidation driver."""
    db = Database()
    db.execute("CREATE TABLE item (id INT, name TEXT, price INT)")
    db.execute("CREATE INDEX idx_item_id ON item (id)")
    db.execute(
        "INSERT INTO item VALUES "
        + ",".join(f"({i}, 'item-{i}', {1000 + i})" for i in range(1, rows + 1))
    )
    servlet = QueryPageServlet(
        name="item",
        path="/item",
        queries=[(
            "SELECT id, name, price FROM item WHERE id = ?",
            [QueryBinding("get", "id", int)],
        )],
        key_spec=KeySpec.make(get_keys=["id"]),
    )
    site = build_site(Configuration.WEB_CACHE, [servlet], database=db, num_servers=2)
    return site, StreamingInvalidationPipeline.for_portal(CachePortal(site))


def build():
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=make_car_db(), num_servers=2
    )
    return site, CachePortal(site)


def gateway_rows():
    """QI/URL rows after the gateway battery through ``Site.handle``."""
    site, portal = build()
    for url in GATEWAY_BATTERY:
        site.handle(HttpRequest.from_url(url))
    portal.run_sniffer()
    return [
        [entry.entry_id, entry.sql, entry.url_key, entry.servlet, entry.mapped_at]
        for entry in portal.qiurl_map.all_entries()
    ]


def drive(site, qiurl_map, cycle):
    """Cache pages, map them, apply the updates, re-cache one page."""
    for url in CHECKPOINT_PAGES:
        site.get(url)
    qiurl_map.add(*LITERAL_ROW)
    cycle()
    for update in UPDATES:
        site.database.execute(update)
        cycle()
    site.get("/catalog?max_price=30000")
    cycle()


def portal_scenario():
    site, portal = build()
    drive(site, portal.qiurl_map, portal.run_invalidation_cycle)
    return site, portal


def pipeline_scenario():
    site, portal = build()
    pipeline = StreamingInvalidationPipeline.for_portal(portal)
    drive(site, pipeline.qiurl_map, pipeline.process_available)
    return site, portal, pipeline


def fresh_with_updates():
    """A new deployment whose database replayed :data:`UPDATES`."""
    site, portal = build()
    for update in UPDATES:
        site.database.execute(update)
    return site, portal


def main() -> None:
    os.makedirs(DATA, exist_ok=True)
    with open(os.path.join(DATA, "gateway_rows.json"), "w") as handle:
        json.dump(gateway_rows(), handle, indent=1)
        handle.write("\n")
    _site, portal = portal_scenario()
    portal.checkpoint(os.path.join(DATA, "portal.ckpt"))
    _site, _portal, pipeline = pipeline_scenario()
    pipeline.checkpoint(os.path.join(DATA, "pipeline.ckpt"))


if __name__ == "__main__":
    main()
