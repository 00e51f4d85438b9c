"""Implied equalities: join pages ruled out locally instead of polled.

``item.vid = vendor.vid AND vendor.vid = ?`` implies ``item.vid = ?``.
The derived conjunct lets both checkers and the predicate index rule out
an ``item`` tuple whose ``vid`` differs from the bound value — a pair the
checker would otherwise send to polling.  The load-bearing property: whenever
the derived conjunct rules a tuple out, the polling query the checker
would otherwise have issued returns no rows, so no eject changes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.db.log import ChangeKind
from repro.core.invalidator.analysis import IndependenceChecker, VerdictKind
from repro.core.invalidator.grouping import GroupedChecker
from repro.core.invalidator.predindex import PredicateIndex
from repro.core.invalidator.registration import QueryTypeRegistry
from repro.sql.analysis import all_conditions, alias_map, implied_equalities
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql

from test_grouping import record

CHAIN_TEMPLATES = [
    "SELECT car.maker FROM car, mileage "
    "WHERE car.model = mileage.model AND mileage.model = {v}",
    "SELECT c.maker FROM car c, mileage m "
    "WHERE m.model = {v} AND c.model = m.model AND m.epa > 20",
    "SELECT c.maker FROM car c JOIN mileage m ON c.model = m.model "
    "WHERE {v} = m.model",
    "SELECT a.maker FROM car a, car b "
    "WHERE a.model = b.model AND b.model = {v}",
    "SELECT c.maker FROM car c, mileage m, dealer d "
    "WHERE c.model = m.model AND m.model = d.model AND d.model = {v}",
    "SELECT c.maker FROM car c, mileage m "
    "WHERE c.price = m.epa AND m.epa = {v} AND c.maker = 'Kia'",
]

#: Mixed-type values: SQL `=` never equates a number with a string.
VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False).map(lambda f: round(f, 1)),
    st.sampled_from(["Rio", "M5", "", "1", "rio"]),
)


def literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def implied_of(sql):
    stmt = parse_statement(sql)
    return {
        binding: sorted(to_sql(expr) for expr in exprs)
        for binding, exprs in implied_equalities(
            all_conditions(stmt), alias_map(stmt)
        ).items()
    }


class TestDerivation:
    def test_chain_implies_the_other_binding(self):
        assert implied_of(CHAIN_TEMPLATES[0].format(v="'Rio'")) == {
            "car": ["car.model = 'Rio'"]
        }

    def test_chains_close_transitively(self):
        implied = implied_of(CHAIN_TEMPLATES[4].format(v="'Rio'"))
        assert implied == {"c": ["c.model = 'Rio'"], "m": ["m.model = 'Rio'"]}

    def test_join_on_and_flipped_constant(self):
        assert implied_of(CHAIN_TEMPLATES[2].format(v="'Rio'")) == {
            "c": ["c.model = 'Rio'"]
        }

    def test_no_chain_no_implication(self):
        assert implied_of(
            "SELECT car.maker FROM car, mileage "
            "WHERE car.model = mileage.model AND mileage.epa > 30"
        ) == {}

    def test_unqualified_and_single_table_columns_do_not_chain(self):
        assert implied_of(
            "SELECT maker FROM car, mileage WHERE model = epa AND epa = 3"
        ) == {}
        assert implied_of("SELECT * FROM car WHERE model = maker AND maker = 'x'") == {}

    def test_left_join_types_get_no_implied_conjuncts(self):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            "SELECT * FROM car LEFT JOIN mileage ON car.model = mileage.model "
            "WHERE mileage.model = 'Rio'",
            "u",
        )
        analysis = GroupedChecker().analysis_for(instance.query_type)
        assert all(not b.implied_templates for b in analysis.by_binding.values())

    def test_implied_conjuncts_stay_out_of_local_templates(self):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            CHAIN_TEMPLATES[0].format(v="'Rio'"), "u"
        )
        car = GroupedChecker().analysis_for(instance.query_type).by_binding["car"]
        assert car.local_templates == []
        assert [c.kind for c in car.probe_templates] == ["eq"]
        assert car.indexable_templates == []


class TestJoinPagesRuledOutLocally:
    def test_non_matching_tuple_is_unaffected_without_polling(self):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            CHAIN_TEMPLATES[0].format(v="'Rio'"), "u"
        )
        other = record("car", maker="Kia", model="Golf", price=1)
        matching = record("car", maker="Kia", model="Rio", price=1)
        for checker in (
            lambda r: GroupedChecker().check_instance(instance, r),
            lambda r: IndependenceChecker().check(instance.statement, r),
        ):
            assert checker(other).kind is VerdictKind.UNAFFECTED
            assert checker(matching).kind is VerdictKind.NEEDS_POLLING

    def test_index_hash_probes_the_implied_equality(self):
        registry = QueryTypeRegistry()
        index = PredicateIndex().attach_to(registry)
        rio = registry.observe_instance(CHAIN_TEMPLATES[0].format(v="'Rio'"), "a")
        registry.observe_instance(CHAIN_TEMPLATES[0].format(v="'M5'"), "b")
        result = index.probe("car", record("car", maker="Kia", model="Rio"))
        assert result.candidate_ids == {rio.instance_id}
        # Missing probe column: the checker skips the conjunct, so no prune.
        assert len(index.probe("car", record("car", maker="Kia")).candidates) == 2


class TestSoundness:
    @given(
        bound=VALUES,
        tuple_model=VALUES,
        mileage_models=st.lists(VALUES, max_size=4),
        model_type=st.sampled_from(["TEXT", "INT", "REAL"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_ruled_out_tuples_have_no_polling_rows(
        self, bound, tuple_model, mileage_models, model_type
    ):
        """Whenever the implied conjunct rules a car tuple out, the
        polling query the checker issues without it returns no rows."""
        db = Database()
        db.execute(f"CREATE TABLE mileage (model {model_type}, epa INT)")
        for value in mileage_models:
            try:
                db.execute(f"INSERT INTO mileage VALUES ({literal(value)}, 1)")
            except Exception:
                continue  # not storable in this column type
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(
            CHAIN_TEMPLATES[0].format(v=literal(bound)), "u"
        )
        change = record(
            "car", ChangeKind.INSERT, maker="Kia", model=tuple_model, price=1
        )
        grouped = GroupedChecker()
        verdict = grouped.check_instance(instance, change)
        if verdict.kind is not VerdictKind.UNAFFECTED:
            return
        assert IndependenceChecker().check(instance.statement, change).kind is (
            VerdictKind.UNAFFECTED
        )
        # The same pair without the derived conjunct: the poll it would take.
        analysis = grouped.analysis_for(instance.query_type)
        analysis.by_binding["car"].implied_templates = []
        without = GroupedChecker()
        without._analyses[instance.query_type.type_id] = analysis
        old = without.check_instance(instance, change)
        if old.kind is VerdictKind.NEEDS_POLLING:
            rows = db.execute(old.polling_query).rows
            assert not (rows and rows[0][0]), (to_sql(old.polling_query), rows)
        else:
            assert old.kind is VerdictKind.UNAFFECTED

    @pytest.mark.parametrize("template", CHAIN_TEMPLATES)
    @given(
        bound=VALUES,
        model=VALUES,
        epa=VALUES,
        drop_model=st.booleans(),
        table=st.sampled_from(["car", "mileage", "dealer"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_grouped_matches_per_instance_on_chains(
        self, template, bound, model, epa, drop_model, table
    ):
        registry = QueryTypeRegistry()
        instance = registry.observe_instance(template.format(v=literal(bound)), "u")
        values = {"maker": "Kia", "price": epa, "epa": epa}
        if not drop_model:
            values["model"] = model
        change = record(table, **values)
        plain = IndependenceChecker().check(instance.statement, change)
        grouped = GroupedChecker().check_instance(instance, change)
        assert grouped.kind is plain.kind
        assert grouped.polling_sql == plain.polling_sql

    @given(
        bounds=st.lists(VALUES, min_size=1, max_size=5),
        model=VALUES,
        epa=VALUES,
        drop_model=st.booleans(),
        table=st.sampled_from(["car", "mileage", "dealer"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_index_prunes_only_unaffected_pairs(
        self, bounds, model, epa, drop_model, table
    ):
        """The predindex soundness property, over chain templates."""
        registry = QueryTypeRegistry()
        index = PredicateIndex().attach_to(registry)
        instances = [
            registry.observe_instance(template.format(v=literal(bound)), f"u{i}-{j}")
            for i, bound in enumerate(bounds)
            for j, template in enumerate(CHAIN_TEMPLATES)
        ]
        values = {"maker": "Kia", "price": epa, "epa": epa}
        if not drop_model:
            values["model"] = model
        change = record(table, **values)
        candidates = index.probe(table, change).candidate_ids
        grouped, plain = GroupedChecker(), IndependenceChecker()
        for instance in instances:
            if table not in instance.query_type.tables:
                continue
            if instance.instance_id in candidates:
                continue
            assert grouped.check_instance(instance, change).kind is (
                VerdictKind.UNAFFECTED
            ), instance.sql
            assert plain.check(instance.statement, change).kind is (
                VerdictKind.UNAFFECTED
            ), instance.sql
