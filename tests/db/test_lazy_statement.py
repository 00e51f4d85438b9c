"""A planned SELECT binds nothing: its result and its log record stay lazy."""

import pytest

from repro.db import Database
from repro.db.dbapi import connect, register_driver
from repro.db.wrapper import LoggingDriver
from repro.errors import ExecutionError
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql

SQL = "SELECT model FROM car WHERE price < ? AND maker = ?"


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE car (maker TEXT, model TEXT, price INT)")
    database.execute(
        "INSERT INTO car VALUES ('Toyota','Avalon',25000),('Honda','Civic',18000)"
    )
    return database


def test_planned_result_binds_on_first_read(db):
    db.execute(SQL, (30000, "Honda"))  # plans the template
    result = db.execute(SQL, (20000, "Honda"))
    assert result.rows == [("Civic",)]
    assert result._statement is None
    expected = bind_parameters(parse_statement(SQL), (20000, "Honda"))
    assert result.statement == expected
    assert result.template == parse_statement(SQL)


def test_too_few_bindings_raise_the_binder_error_on_a_planned_select(db):
    db.execute(SQL, (30000, "Honda"))
    with pytest.raises(ExecutionError) as planned:
        db.execute(SQL, (30000,))
    with pytest.raises(ExecutionError) as direct:
        bind_parameters(parse_statement(SQL), (30000,))
    assert str(planned.value) == str(direct.value)


def test_numbered_zero_parameter_still_raises(db):
    sql = "SELECT model FROM car WHERE price < $0"
    with pytest.raises(ExecutionError):
        db.execute(sql, (1,))
    with pytest.raises(ExecutionError):
        db.execute(sql, (1,))  # second call: served from the plan cache


def test_logger_records_template_and_bindings(db):
    logger = LoggingDriver()
    register_driver("lazy-statement-test", logger)
    connection = connect(db, "repro:lazy-statement-test:")
    connection.execute(SQL, (20000, "Honda"))
    connection.execute("INSERT INTO car VALUES ('Kia','Rio',9000)")
    (record,) = logger.log.all()
    assert record.template == SQL
    assert record.bindings == (20000, "Honda")
    assert record.sql == to_sql(bind_parameters(parse_statement(SQL), (20000, "Honda")))
