"""One page key per miss, and no request-log strings built per miss."""

import asyncio
import dataclasses
import urllib.parse

import pytest

from repro.core import CachePortal
from repro.core.sniffer.logs import encode_params
from repro.serve import AsyncGateway
from repro.web import Configuration, build_site
from repro.web.http import HttpRequest
from repro.web.urlkey import ALL_GET, page_key

from helpers import car_servlets, make_car_db


@pytest.fixture
def deployment():
    site = build_site(
        Configuration.WEB_CACHE, car_servlets(), database=make_car_db(), num_servers=2
    )
    return site, CachePortal(site)


@pytest.fixture
def urlencode_calls(monkeypatch):
    calls = []
    original = urllib.parse.urlencode

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(urllib.parse, "urlencode", counted)
    return calls


def _request_records(portal):
    return [record for log in portal.sniffer.request_logs for record in log.all()]


def test_sync_miss_encodes_its_page_key_once(deployment, urlencode_calls):
    site, portal = deployment
    response = site.get("/catalog?max_price=21000")
    assert response.ok
    assert len(urlencode_calls) == 1
    (record,) = _request_records(portal)
    assert record.url_key == "shop.example.com/catalog?max_price=21000"


def test_gateway_miss_encodes_its_page_key_once(deployment, urlencode_calls):
    site, _portal = deployment

    async def drive():
        async with AsyncGateway(site, workers=1) as gateway:
            return await gateway.handle(HttpRequest.from_url("/efficient?min_epa=30"))

    assert asyncio.run(drive()).ok
    assert len(urlencode_calls) == 1


def test_request_log_strings_are_built_when_read(deployment):
    site, portal = deployment
    site.get("/catalog?max_price=21000", cookies={"s": "1"})
    (record,) = _request_records(portal)
    assert record._strings is None
    assert record.request_string == "/catalog?" + encode_params({"max_price": "21000"})
    assert record.cookie_string == "s=1"
    assert record.post_string == ""


def test_request_log_strings_describe_the_request_as_logged(deployment):
    site, portal = deployment
    request = HttpRequest.from_url("/catalog?max_price=21000")
    site.handle(request)
    request.get_params["max_price"] = "1"
    (record,) = _request_records(portal)
    assert record.request_string == "/catalog?max_price=21000"


def test_a_copied_request_does_not_carry_the_page_key():
    request = HttpRequest.from_url("/catalog?max_price=21000")
    assert page_key(request).endswith("max_price=21000")
    other = dataclasses.replace(request, get_params={"max_price": "1"})
    assert other.keyed is None
    assert page_key(other).endswith("max_price=1")
    with pytest.raises(TypeError):
        HttpRequest(keyed=(ALL_GET, "elsewhere"))  # type: ignore[call-arg]
