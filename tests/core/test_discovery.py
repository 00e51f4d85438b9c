"""Parse-once discovery: keyed instances match the printed-text route.

The query logger hands registration ``(template, bindings)``; discovery
derives each instance's query type and canonical bindings from a
once-per-template plan.  These tests pin that the result is what
printing the bound instance and parameterizing the text gives, that the
QI/URL rows and checkpoints read exactly as when instances were keyed
by printed SQL (golden files in ``tests/core/data``), and that a new
page costs no lex, parse or print.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import discovery_scenarios as scenarios

from repro.core import discovery, recovery
from repro.core.discovery import discover
from repro.core.invalidator.registration import QueryTypeRegistry
from repro.core.qiurl import QIURLMap
from repro.errors import ReproError
from repro.sql import ast
from repro.sql.params import bind_parameters, parameterize
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql

_BATTERY_PATH = os.path.join(
    os.path.dirname(__file__), "..", "sql_battery", "test_battery_shape.py"
)


def _battery_templates():
    """Every SELECT of the SQL battery as a template plus its arity.

    Statements with ``?`` parameters keep them; literal statements are
    parameterized, so their lifted literals become ``$n`` parameters."""
    spec = importlib.util.spec_from_file_location("_battery", _BATTERY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    templates = []
    for sql, params in module.STATEMENTS:
        try:
            statement = parse_statement(sql)
        except ReproError:
            continue
        if not isinstance(statement, (ast.Select, ast.Union)):
            continue
        if params is not None:
            templates.append((sql, len(params)))
            continue
        canonical = parameterize(statement)
        templates.append((to_sql(canonical.template), len(canonical.bindings)))
    return templates


BATTERY_TEMPLATES = _battery_templates()

_VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)


def _printed_route(template, bindings):
    """What registration derived when the logger printed each instance."""
    printed = to_sql(bind_parameters(parse_statement(template), tuple(bindings)))
    return printed, parameterize(parse_statement(printed))


def test_battery_has_selects():
    assert len(BATTERY_TEMPLATES) >= 150
    assert any(arity for _sql, arity in BATTERY_TEMPLATES)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_keyed_discovery_matches_printed_route(data):
    template, arity = data.draw(st.sampled_from(BATTERY_TEMPLATES))
    bindings = tuple(data.draw(st.lists(_VALUES, min_size=arity, max_size=arity)))
    try:
        printed, reference = _printed_route(template, bindings)
    except ReproError:
        with pytest.raises(ReproError):
            discover(template, bindings)
        return
    form = discover(template, bindings)
    assert form.query.signature == reference.signature
    assert form.bindings == reference.bindings
    assert [type(v) for v in form.bindings] == [type(v) for v in reference.bindings]
    assert form.sql == printed


@pytest.mark.parametrize(
    "template, bindings",
    [
        ("SELECT id FROM item WHERE id = ?", (-5,)),
        ("SELECT id FROM item WHERE id = ?", (-0.0,)),
        ("SELECT id FROM item WHERE id = ? AND name = ?", (3, "it's")),
        ("SELECT id FROM item WHERE id BETWEEN ? AND ?", (-2, 7)),
        ("SELECT id, ? FROM item WHERE id = ?", (1, 2)),  # select-list param
        ("SELECT id FROM item WHERE price < ?", (float("inf"),)),
        ("SELECT id FROM item WHERE price < ?", (float("nan"),)),
        ("SELECT id FROM item WHERE id IN (?, ?, ?)", (1, None, True)),
    ],
)
def test_edge_bindings_match_printed_route(template, bindings):
    printed, reference = _printed_route(template, bindings)
    form = discover(template, bindings)
    assert form.query.signature == reference.signature
    assert form.sql == printed
    assert repr(form.bindings) == repr(reference.bindings)


class TestTemplateCache:
    def test_printed_fallback_texts_are_not_remembered(self):
        template = "SELECT id, ? FROM item WHERE id = ?"  # select-list param
        before = set(discovery._templates)
        for key in range(20):
            discover(template, (key, key))
        assert set(discovery._templates) - before <= {template}

    def test_a_template_in_use_outlives_one_off_texts(self, monkeypatch):
        monkeypatch.setattr(discovery, "_templates", OrderedDict())
        monkeypatch.setattr(discovery, "_CAPACITY", 4)
        hot = "SELECT id FROM item WHERE id = ?"
        for key in range(10):
            discover(hot, (key,))
            discover(f"SELECT name FROM item WHERE id = {key}")
        assert hot in discovery._templates
        assert len(discovery._templates) == 4


class TestInstanceIdentity:
    def test_literal_and_placeholder_spellings_are_one_instance(self):
        registry = QueryTypeRegistry()
        literal = registry.observe_instance(
            "SELECT id, name FROM item WHERE id = 5", "/a"
        )
        keyed = registry.observe(
            discover("SELECT id, name FROM item WHERE id = ?", (5,)), "/b"
        )
        assert keyed is literal
        assert literal.urls == {"/a", "/b"}
        assert len(registry) == 1

    def test_placeholder_spelling_dedupes_qiurl_rows(self):
        qiurl = QIURLMap()
        assert qiurl.add("SELECT id FROM item WHERE id = 5", "/a", "s") is not None
        assert qiurl.add("SELECT id FROM item WHERE id = ?", "/a", "s", 0.0, (5,)) is None
        assert len(qiurl) == 1

    def test_int_float_and_bool_bindings_stay_distinct(self):
        registry = QueryTypeRegistry()
        template = "SELECT id FROM item WHERE flag = ?"
        instances = {
            registry.observe(discover(template, (value,)), "/u").instance_id
            for value in (1, 1.0, True)
        }
        assert len(instances) == 3
        assert len(registry.types()) == 1

    def test_instance_text_is_printed_on_first_read(self):
        form = discover("SELECT id, name FROM item WHERE id = ?", (42,))
        assert form._sql is None and form._statement is None
        assert form.sql == "SELECT id, name FROM item WHERE id = 42"
        assert form.statement == parse_statement(form.sql)


class TestGoldenRows:
    def test_sync_battery_rows_match(self):
        with open(os.path.join(scenarios.DATA, "gateway_rows.json")) as handle:
            expected = json.load(handle)
        assert scenarios.gateway_rows() == expected


def _instances(payload):
    return [spec["sql"] for spec in payload["registry"]["instances"]]


def _untimed(registry):
    """The registry snapshot without its wall-clock statistics."""
    types = [
        dict(
            spec,
            stats={
                name: value
                for name, value in spec["stats"].items()
                if not name.endswith("invalidation_time")
            },
        )
        for spec in registry["types"]
    ]
    return dict(registry, types=types)


class TestCheckpoints:
    @pytest.mark.parametrize("kind", ["portal", "pipeline"])
    def test_restored_checkpoint_resnapshots_identically(self, kind, tmp_path):
        path = os.path.join(scenarios.DATA, f"{kind}.ckpt")
        written = recovery.read_checkpoint(path)
        site, portal = scenarios.fresh_with_updates()
        if kind == "portal":
            portal.restore(path, reconcile_caches=False)
            again = recovery.snapshot_portal(portal)
        else:
            from repro.stream import StreamingInvalidationPipeline

            pipeline = StreamingInvalidationPipeline.for_portal(portal)
            pipeline.restore(path, reconcile_caches=False)
            again = recovery.snapshot_pipeline(pipeline)
        assert set(again) == set(written)
        assert _instances(again) == _instances(written)
        assert again["qiurl"] == written["qiurl"]
        assert set(again["version_keys"]["keys"]) == set(written["version_keys"]["keys"])

    @pytest.mark.parametrize("kind", ["portal", "pipeline"])
    def test_replayed_scenario_snapshots_like_the_golden_file(self, kind):
        written = recovery.read_checkpoint(os.path.join(scenarios.DATA, f"{kind}.ckpt"))
        if kind == "portal":
            _site, portal = scenarios.portal_scenario()
            portal.run_sniffer()
            again = recovery.snapshot_portal(portal)
        else:
            _site, portal, pipeline = scenarios.pipeline_scenario()
            portal.run_sniffer()
            again = recovery.snapshot_pipeline(pipeline)
        assert set(again) == set(written)
        assert _instances(again) == _instances(written)
        assert again["qiurl"] == written["qiurl"]
        assert _untimed(again["registry"]) == _untimed(written["registry"])
        assert again["version_keys"] == written["version_keys"]


class _CallCounter:
    """Counts calls of a function under every name it was imported as."""

    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, name, None) is original
            ):
                monkeypatch.setattr(loaded, name, counted)


class TestNoPerInstanceParsing:
    def _counts(self, monkeypatch, misses):
        import repro.sql.params as params_module
        import repro.sql.parser as parser_module
        import repro.sql.printer as printer_module

        site, pipeline = scenarios.item_pipeline(rows=misses)
        with monkeypatch.context() as patch:
            counters = {
                "parse_statement": _CallCounter(patch, parser_module, "parse_statement"),
                "parameterize": _CallCounter(patch, params_module, "parameterize"),
                "to_sql": _CallCounter(patch, printer_module, "to_sql"),
            }
            for key in range(1, misses + 1):
                site.get(f"/item?id={key}")
            pipeline.process_available()
        assert len(pipeline.registry) == misses
        return {name: counter.calls for name, counter in counters.items()}

    def test_parse_parameterize_and_print_run_once_per_template(self, monkeypatch):
        self._counts(monkeypatch, 3)  # the template is now known to discovery
        few = self._counts(monkeypatch, 10)
        many = self._counts(monkeypatch, 1000)
        assert many == few
        assert all(count <= 4 for count in many.values()), many
