"""A refused named registration must leave the registry unchanged."""

import pytest

from repro.core.invalidator.registration import QueryTypeRegistry
from repro.errors import RegistrationError


def test_rejected_name_registers_nothing():
    registry = QueryTypeRegistry()
    taken = registry.register_type("SELECT id FROM item WHERE id = ?", "X")
    with pytest.raises(RegistrationError, match="in use"):
        registry.register_type("SELECT name FROM item WHERE price < ?", "X")
    assert registry.types() == [taken]
    assert registry.type_by_name("X") is taken

    instance = registry.observe_instance(
        "SELECT name FROM item WHERE price < 5", "/u"
    )
    assert instance.query_type is not taken
    assert instance.query_type.name == "QT2"

    restored = QueryTypeRegistry()
    restored.restore_state(registry.snapshot_state())
    assert [t.name for t in restored.types()] == ["X", "QT2"]
    assert restored.instances()[0].query_type.name == "QT2"


def test_generated_name_skips_a_claimed_name():
    registry = QueryTypeRegistry()
    registry.register_type("SELECT id FROM item WHERE id = ?", "QT2")
    # The next generated name would be QT2, which is taken: discovery
    # must not fail on it, now or for any later type.
    cheap = registry.register_type("SELECT name FROM item WHERE price < ?")
    assert (cheap.type_id, cheap.name) == (3, "QT3")
    instance = registry.observe_instance(
        "SELECT price FROM item WHERE name = 'a'", "/u"
    )
    assert (instance.query_type.type_id, instance.query_type.name) == (4, "QT4")

    restored = QueryTypeRegistry()
    restored.restore_state(registry.snapshot_state())
    assert [t.name for t in restored.types()] == ["QT2", "QT3", "QT4"]
