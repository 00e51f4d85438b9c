"""Satisfiability and disjointness of conjunctive SQL predicates.

The runtime invalidation stack (paper §4 plus the predicate index and
the version-key fast path) decides freshness per (instance, update)
pair.  A large fraction of those pairs is decidable *statically*: when
the conjunctive conditions a query places on a table cannot be
satisfied together with the predicate class of an update, no binding of
either can ever conflict.  This module is the decision procedure that
layer rests on:

* :func:`extract` normalizes a list of WHERE conjuncts into
  :class:`Atom` records — per-column constants, intervals, IN-lists,
  IS [NOT] NULL facts, and parameter equalities — with an explicit
  ``complete`` flag whenever information had to be discarded.  The atom
  region always *over-approximates* the rows a predicate selects, which
  is the sound direction for disjointness proofs.
* :func:`check_disjoint` compares two extractions and returns a
  three-valued :class:`Verdict`: ``DISJOINT`` (with a machine-checkable
  proof certificate), ``MAY_OVERLAP`` (the recognized regions really do
  intersect), or ``UNKNOWN`` (analysis incomplete) — callers treat the
  last two identically, as overlap.
* :func:`verify_certificate` is a small, independent re-validation of a
  ``DISJOINT`` certificate: it re-checks the cited atoms exist and that
  the claimed region conflict actually holds, using its own
  straight-line emptiness test rather than the folding machinery above.
  A certificate that fails verification must never be acted on.

Value comparisons mirror ``repro.db.types.sql_compare`` (numbers before
strings, NULL incomparable) so every verdict here agrees with what the
engine's evaluator — and therefore the independence checker — would
compute.  The function is reimplemented rather than imported: the sql
layer must not depend on the db layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import DatabaseError, ReproError
from repro.sql import ast
from repro.sql.analysis import column_free

#: A constant SQL value as extraction produces it.
Const = Union[int, float, str, bool, None]
#: Atom payloads: a constant, an IN-list tuple, or a parameter key.
AtomValue = Union[Const, Tuple[Const, ...]]

#: Sentinel: an expression that could not be folded to a constant.
_UNEVALUABLE = object()

#: Atom operators that constrain the column to a non-NULL value.
_VALUE_OPS = frozenset({"eq", "lt", "le", "gt", "ge", "in"})

_RANGE_OPS: Dict[ast.BinaryOp, str] = {
    ast.BinaryOp.EQ: "eq",
    ast.BinaryOp.LT: "lt",
    ast.BinaryOp.LE: "le",
    ast.BinaryOp.GT: "gt",
    ast.BinaryOp.GE: "ge",
}


class Verdict(enum.Enum):
    """Three-valued disjointness verdict.

    ``UNKNOWN`` and ``MAY_OVERLAP`` are both treated as overlap by
    callers; they differ only in provenance (incomplete analysis vs a
    genuine intersection of the recognized regions).
    """

    DISJOINT = "disjoint"
    MAY_OVERLAP = "may_overlap"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Atom:
    """One normalized fact about one column.

    Operators: ``eq``/``lt``/``le``/``gt``/``ge`` (value is a non-NULL
    constant), ``in`` (value is a tuple of non-NULL constants),
    ``isnull``/``notnull`` (value is None), ``eqparam`` (value is the
    parameter key, e.g. ``"$1"``), and ``false`` — a pseudo-atom on the
    empty column recording a constant-false conjunct (value is its SQL).
    """

    column: str
    op: str
    value: AtomValue = None

    def to_dict(self) -> Dict[str, object]:
        value: object = self.value
        if isinstance(value, tuple):
            value = list(value)
        return {"column": self.column, "op": self.op, "value": value}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Atom":
        value = data.get("value")
        if isinstance(value, list):
            value = tuple(value)
        column = data.get("column")
        op = data.get("op")
        if not isinstance(column, str) or not isinstance(op, str):
            raise ValueError(f"malformed atom: {data!r}")
        return cls(column=column, op=op, value=value)  # type: ignore[arg-type]


@dataclass
class Extraction:
    """Atoms recognized in a conjunct list, plus what was given up on.

    ``origins[i]`` is the source conjunct of ``atoms[i]``.  ``complete``
    is False whenever any conjunct contributed less than its exact
    region — the resulting over-approximation is still sound for
    disjointness, but a non-verdict degrades to ``UNKNOWN`` rather than
    ``MAY_OVERLAP``.
    """

    atoms: List[Atom] = field(default_factory=list)
    origins: List[Optional[ast.Expr]] = field(default_factory=list)
    complete: bool = True

    def add(self, atom: Atom, origin: Optional[ast.Expr]) -> None:
        self.atoms.append(atom)
        self.origins.append(origin)

    @property
    def contradiction(self) -> bool:
        return any(atom.op == "false" for atom in self.atoms)


@dataclass(frozen=True)
class Decision:
    """Outcome of a disjointness check."""

    verdict: Verdict
    certificate: Optional[Dict[str, object]] = None
    reason: str = ""


def default_resolver(ref: ast.ColumnRef) -> Optional[str]:
    """Column resolution when no scope information is available: the
    canonical key (``table.column`` or bare ``column``)."""
    return ref.key()


def scoped_resolver(binding: str) -> Callable[[ast.ColumnRef], Optional[str]]:
    """Column resolution inside one table binding: unqualified names and
    names qualified by the binding resolve to the bare column; anything
    else — including the base-table name when the table is bound under
    an alias, which the grouped checker's scope cannot evaluate either —
    stays opaque, keeping static verdicts aligned with runtime checks."""

    def resolve(ref: ast.ColumnRef) -> Optional[str]:
        if ref.table is None or ref.table.lower() == binding:
            return ref.column.lower()
        return None

    return resolve


# -- extraction: conjuncts → atoms -----------------------------------------------


def _fold_constant(
    expr: ast.Expr, bindings: Optional[Sequence[Const]]
) -> object:
    """Fold a column-free expression to a constant, or ``_UNEVALUABLE``.

    Without bindings, any parameter reference makes the expression
    unevaluable (a template-level extraction must hold for *every*
    binding).  The evaluator is imported lazily, mirroring
    ``repro.sql.lint``: the sql layer must not import the db layer at
    module load.
    """
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Parameter) and expr.index is not None:
        # What binding then evaluating the bare parameter yields.
        if bindings is not None and 1 <= expr.index <= len(bindings):
            return bindings[expr.index - 1]
        return _UNEVALUABLE
    has_params = any(isinstance(node, ast.Parameter) for node in ast.walk(expr))
    if bindings is None and has_params:
        return _UNEVALUABLE
    try:
        from repro.db.expr import Scope, evaluate
        from repro.sql.params import bind_expression

        bound = bind_expression(expr, tuple(bindings or ()))
        return evaluate(bound, (), Scope([]))
    except (DatabaseError, ReproError):
        return _UNEVALUABLE


def _plain_column(
    expr: ast.Expr, resolve: Callable[[ast.ColumnRef], Optional[str]]
) -> Optional[str]:
    if isinstance(expr, ast.ColumnRef):
        return resolve(expr)
    return None


def extract(
    conditions: Sequence[ast.Expr],
    bindings: Optional[Sequence[Const]] = None,
    resolve: Optional[Callable[[ast.ColumnRef], Optional[str]]] = None,
) -> Extraction:
    """Normalize a list of conjuncts into an :class:`Extraction`.

    ``bindings`` supplies parameter values (instance-level extraction);
    ``None`` restricts the result to facts valid for every binding
    (template-level).  ``resolve`` maps column references into the
    extraction's column namespace; references it returns ``None`` for
    make the owning conjunct opaque.
    """
    resolver = resolve if resolve is not None else default_resolver
    result = Extraction()
    for condition in conditions:
        _extract_one(condition, bindings, resolver, result)
    return result


def _extract_one(
    conjunct: ast.Expr,
    bindings: Optional[Sequence[Const]],
    resolve: Callable[[ast.ColumnRef], Optional[str]],
    out: Extraction,
) -> None:
    if any(True for _ in ast.subqueries(conjunct)):
        out.complete = False
        return
    refs = [node for node in ast.walk(conjunct) if isinstance(node, ast.ColumnRef)]
    if not refs:
        value = _fold_constant(conjunct, bindings)
        if value is _UNEVALUABLE:
            out.complete = False
        elif value is not True:
            # Constant False — or NULL, which WHERE treats the same way.
            out.add(Atom("", "false", _sql_of(conjunct, bindings)), conjunct)
        return
    resolved = {resolve(ref) for ref in refs}
    if None in resolved:
        out.complete = False
        return
    columns = {name for name in resolved if name is not None}
    if len(columns) == 1:
        _extract_single_column(conjunct, next(iter(columns)), bindings, out)
        return
    # Multi-column conjunct: a plain equality between two columns proves
    # both non-NULL; everything else is opaque.
    if (
        isinstance(conjunct, ast.Binary)
        and conjunct.op is ast.BinaryOp.EQ
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
    ):
        for ref in (conjunct.left, conjunct.right):
            name = resolve(ref)
            if name is not None:
                out.add(Atom(name, "notnull"), conjunct)
    out.complete = False


def _extract_single_column(
    conjunct: ast.Expr,
    column: str,
    bindings: Optional[Sequence[Const]],
    out: Extraction,
) -> None:
    def resolve_here(ref: ast.ColumnRef) -> Optional[str]:
        return column

    def notnull_fallback() -> None:
        # Exact region unknown, but truth still requires a defined
        # comparison: the column cannot be NULL.  Over-approximate.
        out.add(Atom(column, "notnull"), conjunct)
        out.complete = False

    if isinstance(conjunct, ast.IsNull):
        op = "notnull" if conjunct.negated else "isnull"
        out.add(Atom(column, op), conjunct)
        return
    if isinstance(conjunct, ast.Binary) and (
        conjunct.op in ast.COMPARISONS or conjunct.op is ast.BinaryOp.LIKE
    ):
        col_side = _plain_column(conjunct.left, resolve_here)
        if col_side is not None and column_free(conjunct.right):
            op, other = conjunct.op, conjunct.right
        else:
            col_side = _plain_column(conjunct.right, resolve_here)
            if col_side is None or not column_free(conjunct.left):
                out.complete = False
                return
            flipped = ast.FLIPPED.get(conjunct.op)
            if flipped is None:  # LIKE has no mirror image
                notnull_fallback()
                return
            op, other = flipped, conjunct.left
        if op not in _RANGE_OPS:
            # NE and LIKE: truth requires non-NULL, region stays open.
            notnull_fallback()
            return
        if (
            op is ast.BinaryOp.EQ
            and bindings is None
            and isinstance(other, ast.Parameter)
            and other.index is not None
        ):
            out.add(Atom(column, "eqparam", f"${other.index}"), conjunct)
            return
        value = _fold_constant(other, bindings)
        if value is _UNEVALUABLE:
            notnull_fallback()
            return
        if value is None:
            # Comparison against NULL is never true: the conjunct alone
            # empties the region.  The column rides along so consumers
            # know which tuple slot the runtime checker would consult.
            out.add(Atom(column, "false", _sql_of(conjunct, bindings)), conjunct)
            return
        out.add(Atom(column, _RANGE_OPS[op], _as_const(value)), conjunct)
        return
    if isinstance(conjunct, ast.Between):
        if conjunct.negated:
            notnull_fallback()
            return
        if _plain_column(conjunct.expr, resolve_here) is None:
            out.complete = False
            return
        low = _fold_constant(conjunct.low, bindings)
        high = _fold_constant(conjunct.high, bindings)
        if low is _UNEVALUABLE or high is _UNEVALUABLE:
            notnull_fallback()
            return
        if low is None or high is None:
            out.add(Atom(column, "false", _sql_of(conjunct, bindings)), conjunct)
            return
        out.add(Atom(column, "ge", _as_const(low)), conjunct)
        out.add(Atom(column, "le", _as_const(high)), conjunct)
        return
    if isinstance(conjunct, ast.InList):
        if conjunct.negated:
            notnull_fallback()
            return
        if _plain_column(conjunct.expr, resolve_here) is None:
            out.complete = False
            return
        members: List[Const] = []
        for item in conjunct.items:
            value = _fold_constant(item, bindings)
            if value is _UNEVALUABLE:
                notnull_fallback()
                return
            if value is not None:  # NULL members never match: drop, exactly
                members.append(_as_const(value))
        if not members:
            out.add(Atom(column, "false", _sql_of(conjunct, bindings)), conjunct)
            return
        out.add(Atom(column, "in", tuple(members)), conjunct)
        return
    # Arithmetic over the column, disjunctions, function calls, …
    out.complete = False


def _as_const(value: object) -> Const:
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    raise ReproError(f"non-constant fold result: {value!r}")


def _sql_of(expr: ast.Expr, bindings: Optional[Sequence[Const]]) -> str:
    from repro.sql.printer import to_sql

    if bindings:
        try:
            from repro.sql.params import bind_expression

            return to_sql(bind_expression(expr, tuple(bindings)))
        except (DatabaseError, ReproError):
            pass
    return to_sql(expr)


def atoms_for_tuple(values: Dict[str, Const]) -> List[Atom]:
    """Atoms describing one concrete tuple: ``col = v`` per column, or
    ``col IS NULL`` where the tuple carries NULL."""
    atoms = []
    for column, value in values.items():
        key = column.lower()
        if value is None:
            atoms.append(Atom(key, "isnull"))
        else:
            atoms.append(Atom(key, "eq", value))
    return atoms


# -- value model (keep in sync with repro.db.types.sql_compare) ------------------


def _compare(left: Const, right: Const) -> Optional[int]:
    """SQL comparison: -1 / 0 / +1, or None when either side is NULL.

    Mirror of ``repro.db.types.sql_compare`` — numbers order before
    strings in a deterministic total order — so static verdicts agree
    with the engine's evaluator.  Not imported: the sql layer must not
    depend on the db layer.
    """
    if left is None or right is None:
        return None
    numeric = (int, float, bool)
    left_is_num = isinstance(left, numeric)
    right_is_num = isinstance(right, numeric)
    if left_is_num and right_is_num:
        lf, rf = float(left), float(right)  # type: ignore[arg-type]
        return -1 if lf < rf else (1 if lf > rf else 0)
    if left_is_num != right_is_num:
        return -1 if left_is_num else 1
    assert isinstance(left, str) and isinstance(right, str)
    return -1 if left < right else (1 if left > right else 0)


# -- per-column region folding ---------------------------------------------------


class _ColumnState:
    """The folded region of one column: an optional member set, an
    interval over the SQL total order, and NULL feasibility."""

    __slots__ = ("members", "lower", "upper", "null_ok", "has_value_atom", "empty")

    def __init__(self) -> None:
        self.members: Optional[Set[Const]] = None
        self.lower: Optional[Tuple[Const, bool]] = None  # (bound, strict)
        self.upper: Optional[Tuple[Const, bool]] = None
        self.null_ok = True
        self.has_value_atom = False
        self.empty = False  # non-NULL region forced empty (IS NULL atom)

    def fold(self, atom: Atom) -> None:
        if atom.op == "isnull":
            self.empty = True
            return
        if atom.op == "notnull":
            self.null_ok = False
            return
        if atom.op == "eqparam":
            # The value is unknown, but equality with *any* value
            # requires the column to be non-NULL.
            self.null_ok = False
            return
        self.null_ok = False
        self.has_value_atom = True
        if atom.op == "eq":
            self._intersect_members({atom.value})
        elif atom.op == "in":
            values = atom.value if isinstance(atom.value, tuple) else (atom.value,)
            self._intersect_members(set(values))
        elif atom.op in ("lt", "le"):
            self._tighten_upper((atom.value, atom.op == "lt"))
        elif atom.op in ("gt", "ge"):
            self._tighten_lower((atom.value, atom.op == "gt"))

    def _intersect_members(self, values: Set[Const]) -> None:
        values = {v for v in values if v is not None}
        if self.members is None:
            self.members = values
        else:
            self.members &= values

    def _tighten_lower(self, bound: Tuple[Const, bool]) -> None:
        if self.lower is None:
            self.lower = bound
            return
        cmp = _compare(bound[0], self.lower[0])
        if cmp is None:
            self.lower = (None, True)  # bound vs NULL: empty interval
        elif cmp > 0 or (cmp == 0 and bound[1]):
            self.lower = bound

    def _tighten_upper(self, bound: Tuple[Const, bool]) -> None:
        if self.upper is None:
            self.upper = bound
            return
        cmp = _compare(bound[0], self.upper[0])
        if cmp is None:
            self.upper = (None, True)
        elif cmp < 0 or (cmp == 0 and bound[1]):
            self.upper = bound

    def _in_interval(self, value: Const) -> bool:
        if self.lower is not None:
            cmp = _compare(value, self.lower[0])
            if cmp is None or cmp < 0 or (cmp == 0 and self.lower[1]):
                return False
        if self.upper is not None:
            cmp = _compare(value, self.upper[0])
            if cmp is None or cmp > 0 or (cmp == 0 and self.upper[1]):
                return False
        return True

    def region_empty(self) -> bool:
        """True when no non-NULL value satisfies every folded atom.

        The value domain is treated as dense (REAL/TEXT): an open
        interval between distinct bounds is assumed inhabited even
        though an INT column might make it empty — the conservative
        direction for both disjointness and unsatisfiability claims.
        """
        if self.empty:
            return True
        if self.members is not None:
            return not any(self._in_interval(value) for value in self.members)
        if self.lower is not None and self.upper is not None:
            if self.lower[0] is None or self.upper[0] is None:
                return True
            cmp = _compare(self.lower[0], self.upper[0])
            assert cmp is not None
            return cmp > 0 or (cmp == 0 and (self.lower[1] or self.upper[1]))
        if self.lower is not None and self.lower[0] is None:
            return True
        if self.upper is not None and self.upper[0] is None:
            return True
        return False

    def unsatisfiable(self) -> bool:
        return (not self.null_ok) and self.region_empty()


def _fold_states(atoms: Sequence[Atom]) -> Dict[str, _ColumnState]:
    states: Dict[str, _ColumnState] = {}
    for atom in atoms:
        if atom.op == "false":
            continue  # handled by callers via Extraction.contradiction
        state = states.get(atom.column)
        if state is None:
            state = states[atom.column] = _ColumnState()
        state.fold(atom)
    return states


def unsatisfiable_columns(
    extraction: Extraction,
) -> Optional[Tuple[str, List[Atom], List[ast.Expr]]]:
    """First column whose folded atoms admit no value (NULL included),
    with the contributing atoms and their source conjuncts — or None.

    Used by the ``unsatisfiable-conjunction`` lint rule; constant-false
    conjuncts are *not* reported here (the ``contradictory-predicate``
    rule owns those).
    """
    states = _fold_states(extraction.atoms)
    for column, state in sorted(states.items()):
        if column and state.unsatisfiable():
            atoms = [a for a in extraction.atoms if a.column == column]
            origins = [
                origin
                for atom, origin in zip(extraction.atoms, extraction.origins)
                if atom.column == column and origin is not None
            ]
            return column, atoms, origins
    return None


def admits_no_row(extraction: Extraction) -> bool:
    """True when the extraction alone admits no row — the only way
    :func:`check_disjoint` can prove it disjoint from an update side
    without atoms."""
    if extraction.contradiction:
        return True
    columns = [atom.column for atom in extraction.atoms]
    if len(set(columns)) == len(columns):
        # A lone atom on a column (NULL comparisons are "false" atoms,
        # counted above) always leaves a value or NULL that satisfies it.
        return False
    return unsatisfiable_columns(extraction) is not None


# -- the disjointness decision ---------------------------------------------------


def _atom_dicts(atoms: Sequence[Atom]) -> List[Dict[str, object]]:
    return [atom.to_dict() for atom in atoms]


def _cited(atoms: Sequence[Atom], column: str) -> List[Atom]:
    return [atom for atom in atoms if atom.column == column]


def check_disjoint(query: Extraction, update: Extraction) -> Decision:
    """Decide whether two conjunctive predicates can select a common row.

    Both extractions over-approximate their predicates, so ``DISJOINT``
    is sound regardless of completeness.  The certificate cites the
    exact atoms the proof rests on; re-validate it with
    :func:`verify_certificate` before acting on the verdict.
    """
    for side_name, side in (("query", query), ("update", update)):
        false_atoms = [a for a in side.atoms if a.op == "false"]
        if false_atoms:
            return _disjoint(
                why="empty-side",
                side=side_name,
                column="",
                query_atoms=false_atoms if side_name == "query" else [],
                update_atoms=false_atoms if side_name == "update" else [],
                reason=f"{side_name} predicate is constant-false",
            )
    query_states = _fold_states(query.atoms)
    update_states = _fold_states(update.atoms)
    for side_name, side, states in (
        ("query", query, query_states),
        ("update", update, update_states),
    ):
        for column, state in sorted(states.items()):
            if state.unsatisfiable():
                cited = _cited(side.atoms, column)
                return _disjoint(
                    why="empty-side",
                    side=side_name,
                    column=column,
                    query_atoms=cited if side_name == "query" else [],
                    update_atoms=cited if side_name == "update" else [],
                    reason=f"{side_name} constraints on {column} are unsatisfiable",
                )
    for column in sorted(set(query_states) & set(update_states)):
        merged = _ColumnState()
        query_cited = _cited(query.atoms, column)
        update_cited = _cited(update.atoms, column)
        for atom in query_cited + update_cited:
            merged.fold(atom)
        if merged.unsatisfiable():
            return _disjoint(
                why="column-disjoint",
                column=column,
                query_atoms=query_cited,
                update_atoms=update_cited,
                reason=f"constraints on {column} cannot intersect",
            )
    # Equality unification: columns equated to one parameter must all
    # hold the parameter's (non-NULL) value, so their merged regions
    # must share at least one point.
    groups: Dict[str, List[str]] = {}
    for atom in query.atoms:
        if atom.op == "eqparam" and isinstance(atom.value, str):
            groups.setdefault(atom.value, []).append(atom.column)
    for param, columns in sorted(groups.items()):
        distinct = sorted(set(columns))
        if len(distinct) < 2:
            continue
        shared = _ColumnState()
        query_cited = [a for a in query.atoms if a.column in distinct]
        update_cited = [a for a in update.atoms if a.column in distinct]
        for atom in query_cited + update_cited:
            if atom.op != "eqparam":
                shared.fold(atom)
        shared.null_ok = False  # the parameter's value must be non-NULL
        if shared.region_empty():
            return _disjoint(
                why="param-unification",
                param=param,
                columns=distinct,
                query_atoms=query_cited,
                update_atoms=update_cited,
                reason=(
                    f"columns {', '.join(distinct)} are unified by {param} "
                    "but their regions share no value"
                ),
            )
    if query.complete and update.complete:
        return Decision(Verdict.MAY_OVERLAP, reason="recognized regions intersect")
    return Decision(Verdict.UNKNOWN, reason="analysis incomplete")


def _disjoint(
    why: str,
    query_atoms: Sequence[Atom],
    update_atoms: Sequence[Atom],
    reason: str,
    column: Optional[str] = None,
    side: Optional[str] = None,
    param: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> Decision:
    certificate: Dict[str, object] = {
        "kind": "disjoint",
        "why": why,
        "query_atoms": _atom_dicts(query_atoms),
        "update_atoms": _atom_dicts(update_atoms),
    }
    if column is not None:
        certificate["column"] = column
    if side is not None:
        certificate["side"] = side
    if param is not None:
        certificate["param"] = param
    if columns is not None:
        certificate["columns"] = list(columns)
    return Decision(Verdict.DISJOINT, certificate=certificate, reason=reason)


# -- the independent certificate checker -----------------------------------------
#
# Deliberately *not* built on _ColumnState: a straight-line second
# implementation of region emptiness, so a bug in the folding machinery
# above cannot silently vouch for its own proofs.


def _region_empty_independent(atoms: Sequence[Atom]) -> bool:
    """True when no row value (NULL included) satisfies all ``atoms``."""
    if any(atom.op == "false" for atom in atoms):
        return True
    null_allowed = not any(
        atom.op in _VALUE_OPS or atom.op in ("notnull", "eqparam")
        for atom in atoms
    )
    if any(atom.op == "isnull" for atom in atoms):
        # Only NULL can satisfy an IS NULL atom; any value-requiring
        # atom then empties the region.
        return not null_allowed
    allowed: Optional[Set[Const]] = None
    lows: List[Tuple[Const, bool]] = []
    highs: List[Tuple[Const, bool]] = []
    for atom in atoms:
        if atom.op == "eq":
            values = {atom.value}
        elif atom.op == "in":
            raw = atom.value if isinstance(atom.value, tuple) else (atom.value,)
            values = set(raw)
        elif atom.op == "lt":
            highs.append((atom.value, True))
            continue
        elif atom.op == "le":
            highs.append((atom.value, False))
            continue
        elif atom.op == "gt":
            lows.append((atom.value, True))
            continue
        elif atom.op == "ge":
            lows.append((atom.value, False))
            continue
        else:
            continue
        values = {v for v in values if v is not None}
        allowed = values if allowed is None else (allowed & values)
    if any(bound is None for bound, _ in lows + highs):
        return not null_allowed  # comparison against NULL never holds

    def satisfies_bounds(value: Const) -> bool:
        for bound, strict in lows:
            cmp = _compare(value, bound)
            if cmp is None or cmp < 0 or (cmp == 0 and strict):
                return False
        for bound, strict in highs:
            cmp = _compare(value, bound)
            if cmp is None or cmp > 0 or (cmp == 0 and strict):
                return False
        return True

    if allowed is not None:
        region_empty = not any(satisfies_bounds(value) for value in allowed)
    else:
        # Empty iff some (low, high) bound pair is incompatible.
        region_empty = False
        for low, low_strict in lows:
            for high, high_strict in highs:
                cmp = _compare(low, high)
                if cmp is None:
                    continue
                if cmp > 0 or (cmp == 0 and (low_strict or high_strict)):
                    region_empty = True
    return region_empty and not null_allowed


def _contains_all(
    cited: Sequence[Dict[str, object]], available: Sequence[Atom]
) -> Optional[str]:
    pool = [atom.to_dict() for atom in available]
    for entry in cited:
        if entry not in pool:
            return f"cited atom not present in input: {entry!r}"
    return None


def verify_certificate(
    certificate: Dict[str, object],
    query_atoms: Sequence[Atom],
    update_atoms: Sequence[Atom],
) -> List[str]:
    """Re-validate a ``DISJOINT`` certificate; returns the (empty when
    valid) list of verification errors.

    Checks that every cited atom is really present in the corresponding
    input, then re-establishes the claimed conflict with the
    independent region test.  Certificates that fail here must be
    discarded — callers fall back to ``MAY_OVERLAP`` behavior.
    """
    errors: List[str] = []
    if certificate.get("kind") != "disjoint":
        return [f"unknown certificate kind: {certificate.get('kind')!r}"]
    why = certificate.get("why")
    cited_query = certificate.get("query_atoms")
    cited_update = certificate.get("update_atoms")
    if not isinstance(cited_query, list) or not isinstance(cited_update, list):
        return ["malformed certificate: missing cited atom lists"]
    for cited, pool, label in (
        (cited_query, query_atoms, "query"),
        (cited_update, update_atoms, "update"),
    ):
        problem = _contains_all(cited, pool)
        if problem is not None:
            errors.append(f"{label}: {problem}")
    if errors:
        return errors
    try:
        parsed_query = [Atom.from_dict(entry) for entry in cited_query]
        parsed_update = [Atom.from_dict(entry) for entry in cited_update]
    except (ValueError, TypeError) as exc:
        return [f"malformed cited atom: {exc}"]
    if why == "empty-side":
        side = certificate.get("side")
        cited = parsed_query if side == "query" else parsed_update
        if side not in ("query", "update"):
            return [f"empty-side certificate names no side: {side!r}"]
        if not cited:
            return ["empty-side certificate cites no atoms"]
        if not _region_empty_independent(cited):
            errors.append(
                f"cited {side} atoms do not empty the region: "
                f"{_atom_dicts(cited)!r}"
            )
        return errors
    if why == "column-disjoint":
        column = certificate.get("column")
        cited = parsed_query + parsed_update
        if not isinstance(column, str) or not column:
            return ["column-disjoint certificate names no column"]
        if any(atom.column != column for atom in cited):
            return [f"cited atoms stray from column {column!r}"]
        if not parsed_query or not parsed_update:
            return ["column-disjoint certificate must cite both sides"]
        if not _region_empty_independent(cited):
            errors.append(
                f"cited atoms on {column!r} still admit a common value"
            )
        return errors
    if why == "param-unification":
        param = certificate.get("param")
        columns = certificate.get("columns")
        if not isinstance(param, str) or not isinstance(columns, list):
            return ["param-unification certificate is malformed"]
        if len(set(columns)) < 2:
            return ["param-unification needs at least two columns"]
        for column in columns:
            if not any(
                atom.op == "eqparam"
                and atom.column == column
                and atom.value == param
                for atom in parsed_query
            ):
                errors.append(
                    f"no cited {param} equality for column {column!r}"
                )
        if errors:
            return errors
        # All group columns hold one shared non-NULL value: merge their
        # value atoms into a single pseudo-column and test emptiness.
        merged = [
            Atom("*", atom.op, atom.value)
            for atom in parsed_query + parsed_update
            if atom.op != "eqparam" and atom.column in set(columns)
        ]
        merged.append(Atom("*", "notnull"))
        if not _region_empty_independent(merged):
            errors.append(
                f"columns unified by {param} still share a feasible value"
            )
        return errors
    return [f"unknown certificate claim: {why!r}"]
