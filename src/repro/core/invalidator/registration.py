"""Query-type registration and discovery (paper §4.1.1–4.1.2).

Query *types* are parameterized SELECT templates (``... WHERE price <
$1``); query *instances* are bound executions of a type, each carrying the
set of page URLs generated from it.  Grouping instances under their type
is the key scalability device: the per-type analysis (which tables, which
conjuncts, which residuals) is done once and shared by every instance.

Types enter the registry two ways:

* **registration** (offline): a domain expert declares the templates the
  application uses, optionally with a friendly name;
* **discovery** (online): the registration module scans new QI/URL rows,
  parameterizes each unseen instance, and creates its type on the fly.

Instances are keyed by their query type signature plus canonical bindings
(:mod:`repro.core.discovery`): a row logged as ``(template, bindings)``
registers without printing or parsing its SQL.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, TypeVar

from repro.errors import RegistrationError
from repro.sql import ast
from repro.sql.analysis import alias_map, referenced_tables
from repro.sql.params import Value, parameterize
from repro.sql.parser import parse_statement
from repro.core.discovery import InstanceForm, InstanceKey, discover
from repro.core.invalidator.safety import SafetyClassification, classify_template
from repro.core.qiurl import QIURLEntry

if TYPE_CHECKING:
    from repro.core.invalidator.grouping import InstanceAnalysis, TypeAnalysis


@dataclass
class QueryTypeStats:
    """Self-tuning statistics per query type (§4.1.1 item 4).

    Times are in the invalidator's clock units; frequencies are counts
    since registration (rates are derived by callers who know the elapsed
    time).
    """

    instances_seen: int = 0
    updates_seen: int = 0
    invalidations: int = 0
    polling_queries_issued: int = 0
    total_invalidation_time: float = 0.0
    max_invalidation_time: float = 0.0

    @property
    def average_invalidation_time(self) -> float:
        if not self.invalidations:
            return 0.0
        return self.total_invalidation_time / self.invalidations

    @property
    def invalidation_ratio(self) -> float:
        """Invalidated instances per update seen (the §4.1.4 heuristic)."""
        if not self.updates_seen:
            return 0.0
        return self.invalidations / self.updates_seen

    def record_invalidation(self, elapsed: float) -> None:
        self.invalidations += 1
        self.total_invalidation_time += elapsed
        self.max_invalidation_time = max(self.max_invalidation_time, elapsed)


@dataclass
class QueryType:
    """One registered query type."""

    type_id: int
    name: str
    signature: str  # canonical parameterized SQL — the registry key
    template: ast.Select
    tables: Set[str]
    aliases: Dict[str, str]  # binding → base table
    stats: QueryTypeStats = field(default_factory=QueryTypeStats)
    cacheable: bool = True  # flipped by policy discovery

    #: Cost/priority/deadline assigned by the registration module
    #: (§4.1.4 last paragraph); consumed by the scheduler.
    cost: float = 1.0
    priority: int = 0
    deadline_ms: float = 1000.0

    #: Lint-derived safety verdict, computed once at registration and
    #: consulted per (instance, update) pair by both invalidation paths.
    safety: Optional[SafetyClassification] = None

    #: Live instances of this type, maintained by the registry so
    #: per-verdict instance counts never walk the instances.
    live_instances: int = 0

    _analysis: Optional["TypeAnalysis"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def analysis(self) -> "TypeAnalysis":
        """The once-per-type structural decomposition, built on first use."""
        if self._analysis is None:
            from repro.core.invalidator.grouping import TypeAnalysis

            self._analysis = TypeAnalysis.of(self)
        return self._analysis


@dataclass
class QueryInstance:
    """One bound instance of a query type, with its dependent pages."""

    instance_id: int
    query_type: QueryType
    form: InstanceForm
    bindings: Tuple[Value, ...]
    urls: Set[str] = field(default_factory=set)
    #: Names of the servlets whose pages this instance feeds — used to
    #: derive invalidation deadlines from servlet temporal sensitivity.
    servlets: Set[str] = field(default_factory=set)
    registered_at: float = 0.0

    #: POLL_ONLY enforcement state: digest of the instance's last known
    #: result set and the log position it was taken at.  Managed by the
    #: :class:`~repro.core.invalidator.safety.SafetyEnforcer`.
    result_fingerprint: Optional[str] = None
    fingerprint_lsn: Optional[int] = None

    #: VERSION_KEY fast-path state: the update cursor at registration
    #: time.  A version counter that has not moved past this stamp
    #: proves the instance untouched.  Managed by the
    #: :class:`~repro.core.invalidator.versionkey.VersionKeyIndex`.
    version_stamp_lsn: Optional[int] = None

    _bound: Optional["InstanceAnalysis"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def key(self) -> InstanceKey:
        """Registry identity: type signature plus canonical bindings."""
        return self.form.key

    @property
    def sql(self) -> str:
        """Canonical bound SQL, printed on first read."""
        return self.form.sql

    @property
    def statement(self) -> ast.Select:
        """The bound SELECT, built on first read."""
        return self.form.statement

    @property
    def bound(self) -> "InstanceAnalysis":
        """The one binding pass over the type's analysis that the
        registry listeners share (bindability, constant folding, probes,
        the satisfiability extraction)."""
        if self._bound is None:
            from repro.core.invalidator.grouping import InstanceAnalysis

            self._bound = InstanceAnalysis(self.query_type.analysis, self.bindings)
        return self._bound


_Listener = TypeVar("_Listener", bound="RegistryListener")


class RegistryListener:
    """Observer for instance lifecycle events.

    Attach with :meth:`QueryTypeRegistry.add_listener`; the predicate
    index uses this to stay consistent with discovery and eviction
    without the registry importing it.
    """

    def instance_registered(self, instance: QueryInstance) -> None:
        """A previously unseen instance entered the registry."""

    def instance_dropped(self, instance: QueryInstance) -> None:
        """An instance lost its last dependent URL and was removed."""

    def attach_to(self: _Listener, registry: "QueryTypeRegistry") -> _Listener:
        """Subscribe to ``registry`` and absorb its existing instances."""
        registry.add_listener(self)
        for instance in registry.instances():
            self.instance_registered(instance)
        return self


class QueryTypeRegistry:
    """Type and instance store with per-table indexes."""

    def __init__(self) -> None:
        self._types_by_signature: Dict[str, QueryType] = {}
        self._types_by_name: Dict[str, QueryType] = {}
        self._instances_by_key: Dict[InstanceKey, QueryInstance] = {}
        # Inner dicts are insertion-ordered: instances_touching returns
        # registration order, which both invalidation paths rely on for
        # identical poll-candidate submission order.
        self._instances_by_table: Dict[str, Dict[InstanceKey, QueryInstance]] = {}
        self._instances_by_url: Dict[str, Set[InstanceKey]] = {}
        self._listeners: List[RegistryListener] = []
        self._next_type_id = 1
        self._instance_ids = itertools.count(1)

    def add_listener(self, listener: RegistryListener) -> None:
        self._listeners.append(listener)

    # -- types ---------------------------------------------------------------

    def register_type(self, template_sql: str, name: Optional[str] = None) -> QueryType:
        """Register a query type from its parameterized SQL template."""
        statement = parse_statement(template_sql)
        if not isinstance(statement, (ast.Select, ast.Union)):
            raise RegistrationError("query types must be SELECT statements")
        # Canonicalize through the parameterizer: a template that still
        # contains literals gets them lifted into parameters, matching how
        # discovered instances will look.
        canonical = parameterize(statement)
        return self._ensure_type(canonical.template, canonical.signature, name)

    def _ensure_type(
        self, template, signature: str, name: Optional[str] = None
    ) -> QueryType:
        existing = self._types_by_signature.get(signature)
        if existing is not None:
            if name and existing.name != name and name not in self._types_by_name:
                self._types_by_name[name] = existing
            return existing
        # Reject a taken name before anything is recorded: a refused
        # registration must leave the registry as it was.  A generated
        # name never collides: ids whose ``QT<id>`` a caller already
        # claimed explicitly are skipped.
        if name:
            if name in self._types_by_name:
                raise RegistrationError(f"query type name {name!r} in use")
        else:
            while f"QT{self._next_type_id}" in self._types_by_name:
                self._next_type_id += 1
            name = f"QT{self._next_type_id}"
        type_id = self._next_type_id
        # Lint first, then upgrade SAFE single-table indexable templates
        # to the VERSION_KEY fast path.  Imported lazily: versionkey
        # depends on grouping, which imports this module's classes.
        from repro.core.invalidator.versionkey import upgrade_classification

        query_type = QueryType(
            type_id=type_id,
            name=name,
            signature=signature,
            template=template,
            tables=referenced_tables(template),
            aliases=alias_map(template) if isinstance(template, ast.Select) else {},
            safety=upgrade_classification(classify_template(template), template),
        )
        self._next_type_id += 1
        self._types_by_signature[signature] = query_type
        self._types_by_name[name] = query_type
        return query_type

    def type_by_name(self, name: str) -> QueryType:
        query_type = self._types_by_name.get(name)
        if query_type is None:
            raise RegistrationError(f"no query type named {name!r}")
        return query_type

    def types(self) -> List[QueryType]:
        return sorted(self._types_by_signature.values(), key=lambda t: t.type_id)

    # -- instances --------------------------------------------------------------

    def observe_instance(
        self,
        sql: str,
        url_key: str,
        observed_at: float = 0.0,
        servlet: Optional[str] = None,
    ) -> QueryInstance:
        """Record one observation of a query instance given as SQL text
        (checkpoint restore, tests); see :meth:`observe`."""
        return self.observe(discover(sql), url_key, observed_at, servlet)

    def observe(
        self,
        form: InstanceForm,
        url_key: str,
        observed_at: float = 0.0,
        servlet: Optional[str] = None,
    ) -> QueryInstance:
        """Record one (query instance, URL) observation from the QI/URL map.

        Discovers the instance's type if unseen (§4.1.2), then attaches
        the URL to the instance's dependent-page set.
        """
        key = form.key
        instance = self._instances_by_key.get(key)
        if instance is None:
            query_type = self._ensure_type(form.query.template, form.query.signature)
            query_type.stats.instances_seen += 1
            query_type.live_instances += 1
            instance = QueryInstance(
                instance_id=next(self._instance_ids),
                query_type=query_type,
                form=form,
                bindings=form.bindings,
                registered_at=observed_at,
            )
            self._instances_by_key[key] = instance
            for table in query_type.tables:
                self._instances_by_table.setdefault(table, {})[key] = instance
            for listener in self._listeners:
                listener.instance_registered(instance)
        instance.urls.add(url_key)
        self._instances_by_url.setdefault(url_key, set()).add(key)
        if servlet is not None:
            instance.servlets.add(servlet)
        return instance

    def instances(self) -> List[QueryInstance]:
        return sorted(
            self._instances_by_key.values(), key=lambda i: i.instance_id
        )

    def urls(self) -> List[str]:
        """Every watched page URL, sorted."""
        return sorted(self._instances_by_url)

    def instances_touching(self, table: str) -> List[QueryInstance]:
        """Live instances whose type references ``table``, in
        registration order (== ascending instance id)."""
        return list(self._instances_by_table.get(table.lower(), {}).values())

    def drop_url(self, url_key: str) -> int:
        """Detach a page from all instances; drop orphaned instances.

        Called after a page is ejected: its QI/URL rows are gone, so
        instances that fed only that page no longer need watching.  The
        per-URL map makes this O(instances of the page), not O(registry).
        """
        dropped = 0
        for key in self._instances_by_url.pop(url_key, ()):
            instance = self._instances_by_key.get(key)
            if instance is None:
                continue
            instance.urls.discard(url_key)
            if not instance.urls:
                del self._instances_by_key[key]
                instance.query_type.live_instances -= 1
                for table in instance.query_type.tables:
                    table_map = self._instances_by_table.get(table)
                    if table_map is not None:
                        table_map.pop(key, None)
                dropped += 1
                for listener in self._listeners:
                    listener.instance_dropped(instance)
        return dropped

    def stats(self) -> Dict[str, int]:
        """Registry size counters for status surfaces and the CLI."""
        return {
            "query_types": len(self._types_by_signature),
            "query_instances": len(self._instances_by_key),
            "urls": len(self._instances_by_url),
        }

    def __len__(self) -> int:
        return len(self._instances_by_key)

    # -- checkpointing --------------------------------------------------------

    def snapshot_state(self) -> Dict:
        """JSON-compatible dump of every type and live instance.

        Only *source* state is serialized: type signatures (canonical
        parameterized SQL — parseable, so restore re-derives templates,
        table sets, and aliases), tuning knobs, statistics, and each
        instance's bound SQL plus dependent URLs.  Derived structures
        (parsed ASTs, per-table maps, any attached predicate index) are
        rebuilt on restore, never persisted.
        """
        types = [
            {
                "signature": query_type.signature,
                "name": query_type.name,
                "cacheable": query_type.cacheable,
                "cost": query_type.cost,
                "priority": query_type.priority,
                "deadline_ms": query_type.deadline_ms,
                # Observability only: restore re-derives the verdict from
                # the signature, it never trusts the snapshot's copy.
                "safety": (
                    query_type.safety.verdict.name
                    if query_type.safety is not None
                    else None
                ),
                "stats": {
                    "instances_seen": query_type.stats.instances_seen,
                    "updates_seen": query_type.stats.updates_seen,
                    "invalidations": query_type.stats.invalidations,
                    "polling_queries_issued": query_type.stats.polling_queries_issued,
                    "total_invalidation_time": query_type.stats.total_invalidation_time,
                    "max_invalidation_time": query_type.stats.max_invalidation_time,
                },
            }
            for query_type in self.types()
        ]
        instances = [
            {
                "sql": instance.sql,
                "urls": sorted(instance.urls),
                "servlets": sorted(instance.servlets),
                "registered_at": instance.registered_at,
                "result_fingerprint": instance.result_fingerprint,
                "fingerprint_lsn": instance.fingerprint_lsn,
                "version_stamp_lsn": instance.version_stamp_lsn,
            }
            for instance in self.instances()
        ]
        return {"types": types, "instances": instances}

    def restore_state(self, data: Dict) -> Dict[str, int]:
        """Rebuild the registry from a snapshot; returns :meth:`stats`.

        Existing instances are dropped through the listener path first,
        so attached derived indexes stay consistent; restored instances
        replay through :meth:`observe_instance` in their original
        instance-id order, firing ``instance_registered`` for each —
        which is exactly how a predicate index is rebuilt rather than
        deserialized.
        """
        for url_key in list(self._instances_by_url):
            self.drop_url(url_key)
        self._types_by_signature.clear()
        self._types_by_name.clear()
        self._instances_by_key.clear()
        self._instances_by_table.clear()
        self._instances_by_url.clear()
        self._next_type_id = 1
        self._instance_ids = itertools.count(1)
        # Types first (in original type-id order) so friendly names and
        # discovery order survive; tuning knobs now, stats after replay.
        for spec in data.get("types", []):
            query_type = self.register_type(spec["signature"], spec.get("name"))
            query_type.cacheable = spec.get("cacheable", True)
            query_type.cost = spec.get("cost", 1.0)
            query_type.priority = spec.get("priority", 0)
            query_type.deadline_ms = spec.get("deadline_ms", 1000.0)
        for spec in data.get("instances", []):
            form = discover(spec["sql"])
            for url_key in spec["urls"]:
                self.observe(form, url_key, spec.get("registered_at", 0.0))
            instance = self._instances_by_key[form.key]
            instance.servlets.update(spec.get("servlets", ()))
            instance.result_fingerprint = spec.get("result_fingerprint")
            instance.fingerprint_lsn = spec.get("fingerprint_lsn")
            # Overwrites whatever stamp the replay's listener assigned:
            # only the checkpointed stamp describes the cached page.
            instance.version_stamp_lsn = spec.get("version_stamp_lsn")
        # Statistics last: the replay above bumps instances_seen counters
        # that the snapshot already accounts for.
        for spec in data.get("types", []):
            query_type = self._types_by_signature.get(spec["signature"])
            if query_type is not None and "stats" in spec:
                query_type.stats = QueryTypeStats(**spec["stats"])
        return self.stats()


class RegistrationModule:
    """The registration module: feeds QI/URL rows into the registry (§4.1).

    In its *offline* mode, :meth:`register_query_type` (and hard-coded
    policies via the policy engine) are called by the administrator.  In
    its *online* mode, :meth:`scan` consumes new QI/URL rows, discovering
    types and instances.
    """

    def __init__(self, registry: QueryTypeRegistry) -> None:
        self.registry = registry
        self.rows_scanned = 0

    def register_query_type(self, template_sql: str, name: Optional[str] = None) -> QueryType:
        return self.registry.register_type(template_sql, name)

    def scan(self, rows: List[QIURLEntry]) -> int:
        """Process new QI/URL rows; returns how many were ingested."""
        for row in rows:
            self.registry.observe(
                row.form, row.url_key, row.mapped_at, servlet=row.servlet
            )
        self.rows_scanned += len(rows)
        return len(rows)
