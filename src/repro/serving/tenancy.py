"""Multi-tenant serving: many corpora behind one process's shared engine.

Tenancy is a first-class dimension of the stack, not a dict of services
bolted on the side.  One :class:`MultiTenantService` owns exactly one
:class:`~repro.serving.service.ServingRuntime` — result cache,
single-flight table, micro-batch scheduler, worker pools, and a
:class:`~repro.serving.quotas.FairAdmissionController` — while each
tenant keeps what *must* be tenant-scoped: its own
:class:`~repro.core.esharp.ESharp` system, and with it its own
:class:`~repro.serving.snapshot.SnapshotHolder` whose versions form an
independent monotonic sequence.  Isolation falls out of keying: every
cache/single-flight/batch key is prefixed with the tenant name, so the
same query string on two tenants can never share a cache entry, a
coalescing slot, or a batch leader.

The :class:`TenantRegistry` loads per-tenant artifact directories
lazily (first request warm-starts the tenant) and evicts the
least-recently-used *idle* tenants past ``max_resident``.  Because the
shared cache outlives an eviction and a reload republishes at the same
artifact version, an evicted-then-reloaded tenant comes back with its
cached answers still warm.  Tenants whose in-memory state has diverged
from their artifact directory (a ``refresh_delta`` or a promotion) are
marked dirty and never evicted — their state is not reconstructible
from disk.

This is the host both fleet transports hold, whatever they were given:
a tenant map, one artifact directory, or one loaded system (the last two
as tenant ``default``; see :func:`open_host`).  A standalone
:class:`~repro.serving.service.ExpertService` is the same tenant-keyed
service over a private runtime, byte-identical to a one-tenant registry
(proven by tests).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.serving.errors import (
    ServiceClosedError,
    ServingError,
    TenantStageError,
    UnknownTenantError,
)
from repro.serving.quotas import TenantQuota
from repro.serving.service import (
    DEFAULT_TENANT,
    ExpertService,
    PartialPool,
    ReplicaHealthReport,
    ServedAnswer,
    ServiceConfig,
    ServiceSnapshot,
    ServiceStats,
    ServingRuntime,
    TenantHealth,
)

#: tenant names are path- and flag-safe identifiers
TENANT_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name, its artifact directory, and (optionally) an
    admission quota.  ``quota=None`` means the tenant may use the whole
    shared admission envelope — the right default for a one-tenant
    deployment, and an explicit opt-in to fair-share splitting for
    many-tenant ones."""

    name: str
    artifact_dir: str
    quota: Optional[TenantQuota] = None

    def __post_init__(self) -> None:
        if not TENANT_NAME_PATTERN.match(self.name):
            raise ValueError(
                f"invalid tenant name {self.name!r} (want "
                "[A-Za-z0-9][A-Za-z0-9._-]*, at most 64 chars)"
            )


class _ResidentTenant:
    """One loaded tenant (registry-internal).

    ``pins``/``dirty`` are owned by the registry's lock; the ``system``
    and ``service`` references are immutable after construction.
    """

    __slots__ = ("spec", "system", "service", "pins", "dirty")

    def __init__(self, spec: TenantSpec, system, service) -> None:
        self.spec = spec
        self.system = system
        self.service = service
        self.pins = 0  # guarded-by: TenantRegistry._cond
        self.dirty = False  # guarded-by: TenantRegistry._cond


class TenantRegistry:
    """Lazy loader + LRU evictor for per-tenant serving state.

    ``build_resident(spec)`` (injected by :class:`MultiTenantService`;
    artifact I/O) runs **outside** the registry lock — concurrent first
    requests for the same tenant coalesce on a loading marker instead
    of double-loading, and requests for already-resident tenants are
    never blocked behind another tenant's warm start.
    """

    def __init__(
        self,
        specs: Iterable[TenantSpec],
        *,
        build_resident: Callable[[TenantSpec], Tuple[object, ExpertService]],
        max_resident: Optional[int] = None,
    ) -> None:
        specs = tuple(specs)
        if not specs:
            raise ValueError("a tenant registry needs at least one tenant")
        if max_resident is not None and max_resident < 1:
            raise ValueError(
                f"max_resident must be >= 1, got {max_resident}"
            )
        by_name: "OrderedDict[str, TenantSpec]" = OrderedDict()
        for spec in specs:
            if spec.name in by_name:
                raise ValueError(f"duplicate tenant name {spec.name!r}")
            by_name[spec.name] = spec
        #: immutable after construction
        self._specs = by_name
        self._build_resident = build_resident
        self.max_resident = max_resident
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: name -> resident, in LRU order (oldest first)
        self._resident: "OrderedDict[str, _ResidentTenant]" = OrderedDict()  # guarded-by: _cond
        self._loading: set = set()  # guarded-by: _cond
        self._loads = 0  # guarded-by: _cond
        self._evictions = 0  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond

    # -- lookup ------------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def spec(self, tenant: str) -> TenantSpec:
        spec = self._specs.get(tenant)
        if spec is None:
            raise UnknownTenantError(tenant, self._specs)
        return spec

    # -- the pin protocol --------------------------------------------------------

    def acquire(self, tenant: str) -> _ResidentTenant:
        """Pin a tenant resident (loading it first if cold).

        A pinned resident is never evicted; callers pair this with
        :meth:`release` in a ``finally``.
        """
        spec = self.spec(tenant)
        with self._cond:
            while True:
                if self._closed:
                    raise ServiceClosedError("tenant registry is closed")
                resident = self._resident.get(tenant)
                if resident is not None:
                    resident.pins += 1
                    self._resident.move_to_end(tenant)
                    return resident
                if tenant in self._loading:
                    # another request is warm-starting this tenant;
                    # coalesce on it rather than double-loading
                    self._cond.wait()
                    continue
                self._loading.add(tenant)
                break
        # artifact I/O strictly outside the lock: other tenants keep
        # serving (and loading) while this warm start runs
        try:
            system, service = self._build_resident(spec)
        except BaseException:
            with self._cond:
                self._loading.discard(tenant)
                self._cond.notify_all()
            raise
        resident = _ResidentTenant(spec, system, service)
        rejected = False
        victims: List[_ResidentTenant] = []
        with self._cond:
            self._loading.discard(tenant)
            if self._closed:
                rejected = True
            else:
                resident.pins = 1
                self._resident[tenant] = resident
                self._loads += 1
                victims = self._evict_locked()
            self._cond.notify_all()
        for victim in victims:
            victim.service.close()
        if rejected:
            service.close()
            raise ServiceClosedError("tenant registry is closed")
        return resident

    def release(self, resident: _ResidentTenant) -> None:
        with self._cond:
            if resident.pins <= 0:
                raise ServingError(
                    f"release of unpinned tenant {resident.spec.name!r}"
                )
            resident.pins -= 1
            self._cond.notify_all()

    def mark_dirty(self, tenant: str) -> None:
        """Exempt a tenant from eviction: its in-memory generation has
        diverged from its artifact directory (delta refresh, promotion)
        and cannot be reconstructed by a reload."""
        with self._cond:
            resident = self._resident.get(tenant)
            if resident is not None:
                resident.dirty = True

    def _evict_locked(self) -> List[_ResidentTenant]:  # holds: _cond
        """Pop LRU residents past ``max_resident`` (idle + clean only)."""
        if self.max_resident is None:
            return []
        victims: List[_ResidentTenant] = []
        while len(self._resident) > self.max_resident:
            victim_name = None
            for name, resident in self._resident.items():  # oldest first
                if resident.pins > 0 or resident.dirty:
                    continue
                victim_name = name
                break
            if victim_name is None:
                break  # everything evictable is pinned or dirty
            victims.append(self._resident.pop(victim_name))
            self._evictions += 1
        return victims

    # -- observability / lifecycle ----------------------------------------------

    def residents(self) -> Tuple[_ResidentTenant, ...]:
        """A point-in-time snapshot of the loaded tenants (unpinned —
        read-only observers tolerate a concurrent eviction)."""
        with self._cond:
            return tuple(self._resident.values())

    def loaded(self) -> Tuple[str, ...]:
        with self._cond:
            return tuple(self._resident)

    @property
    def loads(self) -> int:
        with self._cond:
            return self._loads

    @property
    def evictions(self) -> int:
        with self._cond:
            return self._evictions

    def close(self) -> Tuple[_ResidentTenant, ...]:
        """Stop loading/serving; hand the residents back for teardown."""
        with self._cond:
            self._closed = True
            residents = tuple(self._resident.values())
            self._resident.clear()
            self._cond.notify_all()
            return residents


class MultiTenantService:
    """Many corpora, one engine: the registry plus one shared runtime.

    The public surface mirrors :class:`ExpertService` with a leading
    ``tenant`` argument on every serving call.  One
    :class:`~repro.serving.service.ServingRuntime` (result cache,
    single-flight table, micro-batcher, worker pools, fair admission
    controller) serves every tenant; per-tenant isolation is by key
    prefix and per-tenant quota, not by duplicated infrastructure.
    """

    def __init__(
        self,
        specs: Iterable[TenantSpec],
        config: ServiceConfig | None = None,
        *,
        max_resident: Optional[int] = None,
        loader: Optional[Callable[[TenantSpec], object]] = None,
    ) -> None:
        self._runtime = ServingRuntime(config)
        self.config = self._runtime.config
        self._loader = loader if loader is not None else _load_system
        self._registry = TenantRegistry(
            specs,
            build_resident=self._build_resident,
            max_resident=max_resident,
        )
        for name in self._registry.names():
            self._runtime.admission.register(
                name, self._registry.spec(name).quota
            )
        self._staged_lock = threading.Lock()
        #: per-tenant staged generations awaiting promote
        self._staged: Dict[str, object] = {}  # guarded-by: _staged_lock
        # lock-free close flag, same discipline as ExpertService
        self._closed = False

    # -- wiring ------------------------------------------------------------------

    def _build_resident(self, spec: TenantSpec):
        system = self._loader(spec)
        service = ExpertService(
            system, tenant=spec.name, runtime=self._runtime
        )
        return system, service

    def warm(self, tenant: str) -> int:
        """Load ``tenant`` now rather than on its first request (a bad
        artifact fails here); returns the version it serves."""
        resident = self._registry.acquire(tenant)
        try:
            return resident.service.snapshot_version
        finally:
            self._registry.release(resident)

    # -- the serving surface -----------------------------------------------------

    def tenants(self) -> Tuple[str, ...]:
        """Every tenant this process serves (loaded or cold)."""
        return self._registry.names()

    def query(
        self,
        tenant: str,
        query: str,
        min_zscore: float | None = None,
        *,
        budget_seconds: float | None = None,
    ) -> ServedAnswer:
        if self._closed:
            raise ServiceClosedError("service is closed")
        resident = self._registry.acquire(tenant)
        try:
            return resident.service.query(
                query, min_zscore, budget_seconds=budget_seconds
            )
        finally:
            self._registry.release(resident)

    def score_partial(
        self,
        tenant: str,
        query: str,
        indexed_terms,
        *,
        limit: int,
        budget_seconds: float | None = None,
    ) -> PartialPool:
        if self._closed:
            raise ServiceClosedError("service is closed")
        resident = self._registry.acquire(tenant)
        try:
            return resident.service.score_partial(
                query,
                indexed_terms,
                limit=limit,
                budget_seconds=budget_seconds,
            )
        finally:
            self._registry.release(resident)

    def submit(self, tenant: str, query: str, min_zscore: float | None = None):
        """Micro-batched async submit; the tenant stays pinned until the
        future resolves (an eviction cannot close the service under a
        scheduled batch)."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        resident = self._registry.acquire(tenant)
        try:
            future = resident.service.submit(query, min_zscore)
        except BaseException:
            self._registry.release(resident)
            raise
        future.add_done_callback(
            lambda _done: self._registry.release(resident)
        )
        return future

    # -- tenant-scoped refresh ---------------------------------------------------

    def refresh_domains(self, tenant: str, querylog_config=None) -> ServiceSnapshot:
        """One tenant's zero-downtime rebuild; every other tenant's
        snapshot (and warm cache) is untouched."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        resident = self._registry.acquire(tenant)
        try:
            self._registry.mark_dirty(tenant)
            return resident.service.refresh_domains(querylog_config)
        finally:
            self._registry.release(resident)

    def refresh_delta(self, tenant: str, delta) -> ServiceSnapshot:
        """Incrementally fold a delta into one tenant only.

        Tenant-scoped by construction: the delta lands in this tenant's
        own :class:`ESharp`/:class:`SnapshotHolder`, so another tenant's
        version never moves and its cached answers stay warm.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        resident = self._registry.acquire(tenant)
        try:
            self._registry.mark_dirty(tenant)
            return resident.service.refresh_delta(delta)
        finally:
            self._registry.release(resident)

    # -- tenant-scoped two-phase promotion (the fleet warm-start path) -----------

    def stage(self, tenant: str, artifact_dir: str) -> int:
        """Phase one of a tenant-scoped promote: load + verify the
        artifact off the serving path; returns the staged version."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        resident = self._registry.acquire(tenant)
        try:
            staged = resident.system.stage_artifact(artifact_dir)
        finally:
            self._registry.release(resident)
        with self._staged_lock:
            self._staged[tenant] = staged
        return staged.version

    def promote(self, tenant: str, expected_version: int | None = None) -> int:
        """Phase two: atomically flip one tenant to its staged
        generation (CAS on ``expected_version``); other tenants' holders
        never rotate."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        with self._staged_lock:
            staged = self._staged.get(tenant)
        if staged is None:
            raise TenantStageError(
                f"tenant {tenant!r}: promote before stage"
            )
        resident = self._registry.acquire(tenant)
        try:
            self._registry.mark_dirty(tenant)
            snapshot = resident.system.promote_staged(
                staged, expected_version=expected_version
            )
        finally:
            self._registry.release(resident)
        # dropped only once it is serving: a lost CAS keeps the staged
        # generation for a retry
        with self._staged_lock:
            if self._staged.get(tenant) is staged:
                del self._staged[tenant]
        return snapshot.version

    # -- observability -----------------------------------------------------------

    def tenant_version(self, tenant: str) -> Optional[int]:
        """The loaded tenant's current snapshot version (None when cold)."""
        self._registry.spec(tenant)  # typed error for unknown names
        for resident in self._registry.residents():
            if resident.spec.name == tenant:
                return resident.service.snapshot_version
        return None

    def _tenant_breakdown(self) -> Tuple[TenantHealth, ...]:
        return tuple(
            sorted(
                (
                    resident.service.tenant_health()
                    for resident in self._registry.residents()
                ),
                key=lambda health: health.tenant,
            )
        )

    def default_version(self) -> int:
        """The scalar ``snapshot_version`` of the replica-shaped
        reports: the *default* tenant's (0 when it is not served here or
        not resident) — consumers of any other tenant read ``tenants``
        and never the scalar."""
        if DEFAULT_TENANT not in self._registry.names():
            return 0
        return self.tenant_version(DEFAULT_TENANT) or 0

    def health(self) -> ReplicaHealthReport:
        """One replica-shaped report with the per-tenant breakdown."""
        return self._runtime.health(
            self.default_version(), self._tenant_breakdown()
        )

    def stats(self) -> ServiceStats:
        """Aggregate counters in the familiar :class:`ServiceStats`
        shape, with the per-tenant breakdown in ``tenants``."""
        resident_stats = [
            resident.service.stats()
            for resident in self._registry.residents()
        ]
        return self._runtime.stats(
            self.default_version(),
            self._tenant_breakdown(),
            refreshes=sum(stats.refreshes for stats in resident_stats),
            delta_refreshes=sum(
                stats.delta_refreshes for stats in resident_stats
            ),
        )

    def describe_tenants(self) -> List[dict]:
        """The ``tenants`` introspection verb: every tenant (loaded or
        cold) with its directory, quota, version, and counters."""
        loaded = {
            resident.spec.name: resident
            for resident in self._registry.residents()
        }
        admission = {
            stats.tenant: stats
            for stats in self._runtime.admission.tenant_stats()
        }
        rows = []
        for name in sorted(self._registry.names()):
            spec = self._registry.spec(name)
            row: dict = {
                "tenant": name,
                "artifact_dir": str(spec.artifact_dir),
                "loaded": name in loaded,
                "snapshot_version": None,
            }
            quota = spec.quota
            row["quota"] = (
                None
                if quota is None
                else {
                    "max_in_flight": quota.max_in_flight,
                    "max_queue_depth": quota.max_queue_depth,
                    "weight": quota.weight,
                }
            )
            resident = loaded.get(name)
            if resident is not None:
                health = resident.service.tenant_health()
                row["snapshot_version"] = health.snapshot_version
                row["cache_hit_ratio"] = health.cache_hit_ratio
                row["requests"] = health.requests
                row["partial_requests"] = health.partial_requests
            gauge = admission.get(name)
            if gauge is not None:
                row["admission"] = {
                    "admitted": gauge.admitted,
                    "rejected_queue_full": gauge.rejected_queue_full,
                    "rejected_timeout": gauge.rejected_timeout,
                    "in_flight": gauge.in_flight,
                    "waiting": gauge.waiting,
                }
            rows.append(row)
        return rows

    @property
    def registry(self) -> TenantRegistry:
        return self._registry

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> bool:
        """Drain every tenant, then tear the shared runtime down."""
        self._closed = True
        residents = self._registry.close()
        drained = self._runtime.close()
        for resident in residents:
            # only flags the service closed: its tenant is drained and
            # the runtime was never its to tear down
            resident.service.close()
        return drained

    def __enter__(self) -> "MultiTenantService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class TenantClient:
    """A single-tenant view over a :class:`MultiTenantService`.

    Duck-types the slice of :class:`ExpertService` the load harness and
    the fleet benches use, so per-tenant workloads replay through the
    existing :class:`~repro.serving.loadgen.LoadGenerator` unchanged.
    """

    def __init__(self, service: MultiTenantService, tenant: str) -> None:
        service.registry.spec(tenant)  # typed error for unknown names
        self.service = service
        self.tenant = tenant

    def query(
        self,
        query: str,
        min_zscore: float | None = None,
        *,
        budget_seconds: float | None = None,
    ) -> ServedAnswer:
        return self.service.query(
            self.tenant, query, min_zscore, budget_seconds=budget_seconds
        )

    def submit(self, query: str, min_zscore: float | None = None):
        return self.service.submit(self.tenant, query, min_zscore)

    def tenant_health(self) -> TenantHealth:
        for entry in self.service.health().tenants:
            if entry.tenant == self.tenant:
                return entry
        return TenantHealth(
            tenant=self.tenant,
            snapshot_version=0,
            cache_hit_ratio=0.0,
            requests=0,
        )

    def stats(self) -> ServiceStats:
        return self.service.stats()


def open_host(
    specs: Iterable[TenantSpec],
    config: ServiceConfig | None = None,
    *,
    max_resident: Optional[int] = None,
    loader: Optional[Callable[[TenantSpec], object]] = None,
) -> MultiTenantService:
    """The service a fleet replica holds, in either transport.

    A host with exactly one tenant has nothing to be lazy about — lazy
    loading bounds residency across *many* tenants — so it warms that
    tenant before returning: a bad artifact fails construction (a
    ``ReplicaStartupError`` over the pipe, not a first-request
    surprise), the ready handshake carries the version actually served,
    and a fleet promotion finds the tenant resident.
    """
    service = MultiTenantService(
        specs, config, max_resident=max_resident, loader=loader
    )
    names = service.tenants()
    if len(names) == 1:
        try:
            service.warm(names[0])
        except BaseException:
            service.close()
            raise
    return service


def _load_system(spec: TenantSpec):
    """Default tenant loader: warm-start the tenant's artifact directory."""
    from repro.core.esharp import ESharp

    return ESharp.from_artifact(spec.artifact_dir)
