"""Parse-once discovery: a logged ``(template, bindings)`` → its instance.

The query logger records each SELECT as the ``?``-template text the
engine's plan cache keys on, plus the bindings it executed with (§3.2).
Registration (§4.1.2) needs each instance's query type — the
parameterized template — and the canonical bindings of that type.
Deriving them from printed instance SQL would cost a print, a lex, a
parse and a parameterize pass per instance.  Here each template text is
parsed and parameterized once; an instance then costs a tuple rebuild,
because each canonical binding is one of the execution bindings or a
literal of the template (:func:`~repro.sql.params.parameterize_template`).

The result equals parameterizing the printed instance:

* a negative number prints as ``-5`` and parses back as ``-(5)``, so the
  bindings' sign pattern selects the plan (one per pattern seen);
* each plan is checked once, on the first instance that needs it,
  against the printed route.  A template whose parameters sit where
  parameterization does not lift them (the select list, VALUES rows)
  fails that check, as do bindings that do not print back to themselves
  (NaN, infinities, non-SQL values); those instances take the printed
  route — printed once, then discovered as literal text that is not
  remembered, so it cannot push a template out.

Literal SQL text (no bindings: tests, checkpoint restore) is parsed once
per distinct text, and its instance keeps the text as its ``sql``.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.errors import ExecutionError, RegistrationError, ReproError
from repro.sql import ast
from repro.sql.params import (
    BindingSlot,
    ParameterizedQuery,
    Value,
    bind_parameters,
    number_parameters,
    parameterize,
    parameterize_template,
)
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql

#: Instance identity: (type signature, canonical bindings, their types).
#: The types keep ``1``, ``1.0`` and ``TRUE`` apart, as their printed
#: SQL is.
InstanceKey = Tuple[str, Tuple[Value, ...], Tuple[type, ...]]

#: Template texts remembered; the least recently used is forgotten
#: beyond this.  Apps that bind parameters need one entry per template
#: (each perfbench workload ends its run with one to three); apps that
#: log literal SQL need one per distinct instance text, and LRU keeps
#: their hot texts while one-off texts age out.
_CAPACITY = 4096


class InstanceForm:
    """One query instance: its type and canonical bindings.

    ``sql`` (canonical text of the bound instance) and ``statement``
    (the bound SELECT) are built on first read: checkpoints, ``repro
    analyze``, the precise checker and safety enforcement read them;
    registration and the predicate indexes need only the type and the
    bindings.
    """

    __slots__ = ("query", "bindings", "key", "_sql", "_statement")

    def __init__(
        self,
        query: ParameterizedQuery,
        bindings: Tuple[Value, ...],
        sql: Optional[str] = None,
        statement: Optional[Union[ast.Select, ast.Union]] = None,
    ) -> None:
        #: The query type: parameterized template and its signature.
        self.query = query
        self.bindings = bindings
        self.key: InstanceKey = (
            query.signature,
            bindings,
            tuple(map(type, bindings)),
        )
        self._sql = sql
        self._statement = statement

    @property
    def sql(self) -> str:
        if self._sql is None:
            self._sql = to_sql(self.statement)
        return self._sql

    @property
    def statement(self) -> Union[ast.Select, ast.Union]:
        if self._statement is None:
            self._statement = bind_parameters(self.query.template, self.bindings)
        return self._statement


class _Plan:
    """How one sign pattern of a template's bindings becomes an instance."""

    __slots__ = ("query", "slots")

    def __init__(
        self, query: ParameterizedQuery, slots: Tuple[BindingSlot, ...]
    ) -> None:
        self.query = query
        self.slots = slots


class _Template:
    """One template text, parsed once.

    ``literal`` is the instance of the text discovered without bindings.
    With bindings, ``numbered`` is the statement with ``$n`` parameters,
    ``positions`` the binding positions its lifted parameters read, and
    ``plans`` maps the positions bound to negative numbers to their
    plan — None when that pattern takes the printed route.
    """

    __slots__ = ("statement", "literal", "numbered", "positions", "plans")

    def __init__(self, statement: Union[ast.Select, ast.Union]) -> None:
        self.statement = statement
        self.literal: Optional[InstanceForm] = None
        self.numbered: Optional[Union[ast.Select, ast.Union]] = None
        self.positions: Tuple[int, ...] = ()
        self.plans: Dict[Tuple[int, ...], Optional[_Plan]] = {}


_templates: "OrderedDict[str, _Template]" = OrderedDict()
_lock = threading.Lock()


def _parsed(text: str) -> _Template:
    statement = parse_statement(text)
    if not isinstance(statement, (ast.Select, ast.Union)):
        raise RegistrationError("query instances must be SELECTs")
    return _Template(statement)


def _template(text: str) -> _Template:
    with _lock:
        entry = _templates.get(text)
        if entry is not None:
            _templates.move_to_end(text)
            return entry
    entry = _parsed(text)
    with _lock:
        if len(_templates) >= _CAPACITY:
            _templates.popitem(last=False)
        _templates[text] = entry
    return entry


def discover(template: str, bindings: Sequence[Value] = ()) -> InstanceForm:
    """The query instance ``template`` executed with ``bindings`` denotes.

    Raises:
        RegistrationError: the text is not a SELECT, or ``bindings`` are
            too few for its parameters.
    """
    entry = _template(template)
    if not bindings:
        return _literal(entry, template)
    bindings = tuple(bindings)
    numbered = entry.numbered
    if numbered is None:
        numbered = number_parameters(entry.statement)
        _query, slots = parameterize_template(numbered)
        entry.positions = tuple(sorted({slot[0] for slot in slots if slot[0] >= 0}))
        entry.numbered = numbered
    negated: Tuple[int, ...] = ()
    for position in entry.positions:
        if position >= len(bindings):
            raise RegistrationError(
                f"template binds parameter ${position + 1} "
                f"but got {len(bindings)} values"
            )
        value = bindings[position]
        kind = type(value)
        if kind is int:
            if value < 0:
                negated += (position,)
        elif kind is float:
            if not math.isfinite(value):
                return _printed(numbered, bindings)
            if math.copysign(1.0, value) < 0:
                negated += (position,)
        elif kind is not str and kind is not bool and value is not None:
            return _printed(numbered, bindings)
    if negated in entry.plans:
        plan = entry.plans[negated]
    else:
        plan = entry.plans[negated] = _checked_plan(numbered, bindings, negated)
    if plan is None:
        return _printed(numbered, bindings)
    return InstanceForm(plan.query, _canonical(plan.slots, bindings))


def _literal(entry: _Template, text: str) -> InstanceForm:
    form = entry.literal
    if form is None:
        canonical = parameterize(entry.statement)
        form = entry.literal = InstanceForm(
            canonical, canonical.bindings, text, entry.statement
        )
    return form


def _canonical(
    slots: Tuple[BindingSlot, ...], bindings: Tuple[Value, ...]
) -> Tuple[Value, ...]:
    canonical = []
    for position, constant, negate in slots:
        if position < 0:
            canonical.append(constant)
        elif negate:
            canonical.append(-bindings[position])
        else:
            canonical.append(bindings[position])
    return tuple(canonical)


def _checked_plan(
    numbered: Union[ast.Select, ast.Union],
    bindings: Tuple[Value, ...],
    negated: Tuple[int, ...],
) -> Optional[_Plan]:
    """Build the plan for one sign pattern and check it on this
    instance against the printed route; None when they disagree."""
    query, slots = parameterize_template(numbered, frozenset(negated))
    try:
        printed = to_sql(bind_parameters(numbered, bindings))
        reference = _literal(_parsed(printed), printed)
    except ReproError:
        return None
    form = InstanceForm(query, _canonical(slots, bindings))
    if form.key != reference.key or form.sql != printed:
        return None
    return _Plan(query, slots)


def _printed(
    numbered: Union[ast.Select, ast.Union], bindings: Tuple[Value, ...]
) -> InstanceForm:
    """Discover one instance through its printed text.  The text is
    parsed but not remembered: it names one instance, not a template."""
    try:
        printed = to_sql(bind_parameters(numbered, bindings))
    except ExecutionError as exc:
        raise RegistrationError(str(exc)) from exc
    return _literal(_parsed(printed), printed)
