"""The `ExpertService` facade — e# as a traffic-serving engine.

One built :class:`~repro.core.esharp.ESharp` system answers queries for
many concurrent clients through this facade:

* every request **pins one snapshot** (domain store + detector +
  pipeline) for its whole execution, so a weekly-refresh swap happening
  underneath can never mix generations within an answer;
* results are cached in a bounded LRU(+TTL) keyed on
  ``(tenant, snapshot version, normalised query, threshold)`` — a swap
  simply starts a new key space and the old generation ages out;
* duplicate in-flight queries are coalesced (single-flight), and the
  asynchronous :meth:`submit` path micro-batches duplicates arriving
  within one scheduling window;
* per-term detection of an expanded query is sharded across a worker
  pool (each community term scores independently, §5 union semantics);
* admission control bounds in-flight work and queue depth, rejecting the
  overflow with :class:`~repro.serving.errors.ServiceOverloadedError`.

Tenancy: every service carries a ``tenant`` label (``"default"`` unless
told otherwise) which prefixes every cache, single-flight, and
micro-batch key and names its admission quota.  The infrastructure
itself — cache, single-flight table, fair admission controller, pools,
micro-batcher — lives in one :class:`ServingRuntime`: a standalone
service builds and owns a private one, a
:class:`~repro.serving.tenancy.MultiTenantService` builds one and hands
it to every tenant.  Single-tenant serving is the one-tenant case of
that, not a second code path.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, List, Tuple

from repro.detector.ranking import RankedExpert
from repro.serving.cache import CacheInfo, LRUCache
from repro.serving.errors import DeadlineExceededError, ServiceClosedError
from repro.serving.quotas import (
    AdmissionStats,
    FairAdmissionController,
    TenantQuota,
)
from repro.serving.singleflight import SingleFlight
from repro.serving.snapshot import ServiceSnapshot, SnapshotHolder
from repro.serving.workers import MicroBatchScheduler, PoolStats, WorkerPool
from repro.utils.text import phrase_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.esharp import ESharp
    from repro.core.incremental import DeltaRefreshStats
    from repro.querylog.records import Impression
    from repro.querylog.store import QueryLogStore

#: the tenant a host serves when nobody named one: a plain
#: ``ExpertService``, a replica handed one system, ``--from-artifact DIR``
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving knob, with defaults sized for a laptop-scale deploy."""

    #: threads sharding per-term detection of expanded queries
    detection_workers: int = 4
    #: threads executing micro-batched asynchronous submissions
    batch_workers: int = 4
    #: result-cache entries (0 disables caching)
    cache_capacity: int = 2048
    #: result-cache entry lifetime (None = never expires)
    cache_ttl_seconds: float | None = None
    #: coalesce duplicate in-flight queries
    single_flight: bool = True
    max_in_flight: int = 16
    max_queue_depth: int = 128
    admission_timeout_seconds: float = 10.0
    #: how long the async scheduler lets a micro-batch form
    batch_window_seconds: float = 0.002
    max_batch: int = 64
    #: how long close() waits for admitted requests to finish before
    #: tearing the pools down under them
    drain_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.detection_workers < 1 or self.batch_workers < 1:
            raise ValueError("worker counts must be >= 1")
        if self.drain_timeout_seconds < 0:
            raise ValueError("drain_timeout_seconds must be >= 0")


@dataclass(frozen=True)
class ServedAnswer:
    """One answered query, stamped with serving provenance."""

    query: str
    experts: Tuple[RankedExpert, ...]
    terms: Tuple[str, ...]
    matched_domain: str | None
    #: which generation of the domain collection answered
    snapshot_version: int
    #: served straight from the result cache
    cache_hit: bool
    #: piggybacked on another request's in-flight computation
    coalesced: bool
    expansion_seconds: float
    detection_seconds: float
    total_seconds: float
    #: which tenant's corpus answered
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class PartialPool:
    """A shard-scoped partial answer: the leg's top ``limit`` users over
    a subset of terms.

    The fleet router scatters an expanded query's terms across replica
    shards; each shard reduces its terms to one ``(term index, expert)``
    entry per candidate user — the entry with the highest score, ties
    broken towards the **lowest global term index** (the same
    first-term-wins rule the single-replica union applies) — and keeps
    the best ``limit`` of them by ``(-score, user_id)``.  Merging shard
    pools under the identical rule reproduces the single-replica ranking
    exactly as long as the merge's cap is no larger than ``limit`` (the
    argument is in :mod:`repro.fleet.merge`).
    """

    query: str
    snapshot_version: int
    #: ``(global term index, expert)`` per kept user, best first
    entries: Tuple[Tuple[int, RankedExpert], ...]
    #: the cut this pool was made at: ``len(entries) <= limit``
    limit: int
    #: which tenant's shard produced this pool — the merge refuses to
    #: combine pools across tenants
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class TenantHealth:
    """One tenant's slice of a replica's vitals.

    A single scalar ``snapshot_version`` would silently alias tenants
    (tenant versions are independent monotonic sequences), so health and
    stats carry this per-tenant breakdown alongside the scalar (which
    is the default tenant's).
    """

    tenant: str
    snapshot_version: int
    #: hit ratio of *this tenant's* cache traffic (shared caches report
    #: per-tenant numbers from the service's own counters)
    cache_hit_ratio: float
    requests: int
    partial_requests: int = 0

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "snapshot_version": self.snapshot_version,
            "cache_hit_ratio": self.cache_hit_ratio,
            "requests": self.requests,
            "partial_requests": self.partial_requests,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TenantHealth":
        return cls(
            tenant=str(raw.get("tenant", DEFAULT_TENANT)),
            snapshot_version=int(raw.get("snapshot_version", 0)),
            cache_hit_ratio=float(raw.get("cache_hit_ratio", 0.0)),
            requests=int(raw.get("requests", 0)),
            partial_requests=int(raw.get("partial_requests", 0)),
        )


@dataclass(frozen=True)
class ReplicaHealthReport:
    """The routing-relevant vitals of one serving replica.

    A fleet front-end makes health and routing decisions from exactly
    these fields: the snapshot version proves which generation the
    replica serves (a promotion in flight shows up as skew), the result
    cache's hit ratio signals how warm this replica is for its shard,
    and the admission gauges expose instantaneous load.
    """

    snapshot_version: int
    #: lifetime hit ratio of the result cache (0.0 when never used)
    cache_hit_ratio: float
    requests: int
    partial_requests: int
    in_flight: int
    waiting: int
    #: per-tenant version/hit-ratio breakdown (one entry — ``default``
    #: — on a single-tenant replica)
    tenants: Tuple[TenantHealth, ...] = ()

    def to_dict(self) -> dict:
        return {
            "snapshot_version": self.snapshot_version,
            "cache_hit_ratio": self.cache_hit_ratio,
            "requests": self.requests,
            "partial_requests": self.partial_requests,
            "in_flight": self.in_flight,
            "waiting": self.waiting,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    def tenant_version(self, tenant: str) -> int | None:
        """The snapshot version one tenant serves (None when unknown)."""
        for entry in self.tenants:
            if entry.tenant == tenant:
                return entry.snapshot_version
        if tenant == DEFAULT_TENANT:
            return self.snapshot_version
        return None


@dataclass(frozen=True)
class ServiceStats:
    """Aggregated serving counters (the ops surface)."""

    requests: int
    snapshot_version: int
    cache: CacheInfo
    admission: AdmissionStats
    flight_leaders: int
    flight_coalesced: int
    batches_dispatched: int
    batch_coalesced: int
    detection_pool: PoolStats
    #: completed zero-downtime domain rebuilds on this service
    refreshes: int = 0
    #: wall-clock of the most recent rebuild (None before the first)
    last_refresh_seconds: float | None = None
    #: completed incremental (delta-ingest) refreshes on this service
    delta_refreshes: int = 0
    #: wall-clock of the most recent delta refresh (None before the first)
    last_delta_refresh_seconds: float | None = None
    #: accounting of the most recent delta refresh (None before the first)
    last_delta_refresh: "DeltaRefreshStats | None" = None
    #: shard-scoped partial-scoring requests served (the fleet path)
    partial_requests: int = 0
    #: per-tenant version + cache-hit-ratio breakdown
    tenants: Tuple[TenantHealth, ...] = ()

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def cache_hit_ratio(self) -> float:
        """Alias of :attr:`cache_hit_rate` (the fleet router's name)."""
        return self.cache.hit_rate


class ServingRuntime:
    """The infrastructure every tenant of one serving host shares.

    Result LRU, single-flight table, fair admission controller,
    detection pool, batch pool and micro-batcher — built once from one
    :class:`ServiceConfig`, torn down by one :meth:`close`.  A tenant
    without a quota of its own may fill the whole admission envelope,
    which is all a one-tenant host ever needs.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        config = self.config
        self.cache = LRUCache(config.cache_capacity, config.cache_ttl_seconds)
        self.flight: SingleFlight | None = (
            SingleFlight() if config.single_flight else None
        )
        self.admission = FairAdmissionController(
            max_in_flight=config.max_in_flight,
            timeout_seconds=config.admission_timeout_seconds,
            default_quota=TenantQuota(
                max_in_flight=config.max_in_flight,
                max_queue_depth=config.max_queue_depth,
            ),
        )
        self.detect_pool = WorkerPool(
            config.detection_workers, name="repro-detect"
        )
        self.batch_pool = WorkerPool(config.batch_workers, name="repro-batch")
        self.batcher = MicroBatchScheduler(
            self.batch_pool,
            window_seconds=config.batch_window_seconds,
            max_batch=config.max_batch,
        )

    def close(self) -> bool:
        """Refuse new admissions, drain the admitted ones, then release
        the pools — an admitted request never sees its worker pool
        vanish mid-computation.

        ``True`` when everything drained within
        ``drain_timeout_seconds``; ``False`` means the drain timed out
        and stragglers lost their pools (they surface
        :class:`ServiceClosedError`) — bounded shutdown over waiting
        forever, but the outcome is not silent.
        """
        self.admission.close()
        remaining = self.admission.drain(self.config.drain_timeout_seconds)
        self.batcher.close()
        self.batch_pool.shutdown()
        self.detect_pool.shutdown()
        return remaining == 0

    def health(
        self, snapshot_version: int, tenants: Tuple[TenantHealth, ...]
    ) -> ReplicaHealthReport:
        """The replica-shaped report over the given tenants' counters."""
        admission = self.admission.stats()
        return ReplicaHealthReport(
            snapshot_version=snapshot_version,
            cache_hit_ratio=self.cache.cache_info().hit_rate,
            requests=sum(entry.requests for entry in tenants),
            partial_requests=sum(entry.partial_requests for entry in tenants),
            in_flight=admission.in_flight,
            waiting=admission.waiting,
            tenants=tenants,
        )

    def stats(
        self,
        snapshot_version: int,
        tenants: Tuple[TenantHealth, ...],
        **refresh,
    ) -> ServiceStats:
        """:class:`ServiceStats` over the given tenants' counters;
        ``refresh`` carries the caller's refresh accounting fields."""
        flight = self.flight
        return ServiceStats(
            requests=sum(entry.requests for entry in tenants),
            partial_requests=sum(entry.partial_requests for entry in tenants),
            snapshot_version=snapshot_version,
            cache=self.cache.cache_info(),
            admission=self.admission.stats(),
            flight_leaders=flight.leaders if flight is not None else 0,
            flight_coalesced=flight.coalesced if flight is not None else 0,
            batches_dispatched=self.batcher.batches_dispatched,
            batch_coalesced=self.batcher.coalesced,
            detection_pool=self.detect_pool.stats(),
            tenants=tenants,
            **refresh,
        )


class ExpertService:
    """Concurrent query serving over a built e# system."""

    def __init__(
        self,
        system: "ESharp",
        config: ServiceConfig | None = None,
        *,
        tenant: str = DEFAULT_TENANT,
        runtime: ServingRuntime | None = None,
    ) -> None:
        """Serve one built system as ``tenant``.

        Without ``runtime`` the service builds a private
        :class:`ServingRuntime` from ``config`` and tears it down on
        :meth:`close`.  A :class:`~repro.serving.tenancy.MultiTenantService`
        passes the one runtime all its tenants share instead (its config
        is the runtime's); this service then keys its entries by its
        ``tenant`` label and leaves the runtime running when it closes.
        """
        if not system.is_built:
            raise ValueError(
                "ExpertService requires a built system; call ESharp.build() first"
            )
        if runtime is not None and config is not None:
            raise ValueError("pass a config or a runtime, not both")
        self._owns_runtime = runtime is None
        if runtime is None:
            runtime = ServingRuntime(config)
        self.system = system
        self.config = runtime.config
        self.tenant = tenant
        self._snapshots: SnapshotHolder = system.snapshots
        self._runtime = runtime
        # unpacked once: the request path reads these as plain attributes
        self._cache = runtime.cache
        self._flight = runtime.flight
        self._admission = runtime.admission
        self._detect_pool = runtime.detect_pool
        self._batcher = runtime.batcher
        self._counter_lock = threading.Lock()
        #: serialises refreshes: two interleaved rebuilds could publish
        #: the staler build last, and the incremental refresher's state
        #: must advance one generation at a time
        self._refresh_lock = threading.Lock()
        self._requests = 0  # guarded-by: _counter_lock
        self._partials = 0  # guarded-by: _counter_lock
        # per-tenant cache accounting: a shared cache's global CacheInfo
        # cannot attribute hits to tenants, so each service counts its own
        self._cache_lookups = 0  # guarded-by: _counter_lock
        self._cache_hits = 0  # guarded-by: _counter_lock
        self._refreshes = 0  # guarded-by: _counter_lock
        self._last_refresh_seconds: float | None = None  # guarded-by: _counter_lock
        self._delta_refreshes = 0  # guarded-by: _counter_lock
        self._last_delta_refresh_seconds: float | None = None  # guarded-by: _counter_lock
        self._last_delta_refresh: "DeltaRefreshStats | None" = None  # guarded-by: _counter_lock
        # deliberately lock-free: a close() flag read racily on the hot
        # path, re-checked by admission under its own condition
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> bool:
        """Stop accepting work and drain in-flight requests (idempotent).

        New arrivals are rejected with :class:`ServiceClosedError`.  A
        service that built its own runtime closes it
        (:meth:`ServingRuntime.close`: drain, then pools).  One serving
        on a shared runtime drains only *its own tenant's* admitted work
        and leaves the infrastructure other tenants are serving on
        running.  Returns ``True`` when every admitted request drained
        within ``drain_timeout_seconds``.
        """
        self._closed = True
        if self._owns_runtime:
            return self._runtime.close()
        remaining = self._admission.drain_tenant(
            self.tenant, self.config.drain_timeout_seconds
        )
        return remaining == 0

    def __enter__(self) -> "ExpertService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the synchronous serving path -------------------------------------------

    def query(
        self,
        query: str,
        min_zscore: float | None = None,
        *,
        budget_seconds: float | None = None,
    ) -> ServedAnswer:
        """Answer one query against the current snapshot.

        Raises :class:`ServiceOverloadedError` under backpressure and
        :class:`ServiceClosedError` after :meth:`close`.  With
        ``budget_seconds``, a request whose admission wait already spent
        the deadline fails typed (:class:`DeadlineExceededError`) before
        any detection work runs — nobody is waiting for the answer.
        """
        started = time.perf_counter()
        if self._closed:
            raise ServiceClosedError("service is closed")
        self._check_budget(budget_seconds, started)
        with self._admission.slot(self.tenant):
            self._check_budget(budget_seconds, started)
            snapshot = self._require_snapshot()
            threshold = (
                min_zscore
                if min_zscore is not None
                else snapshot.detector.ranking.min_zscore
            )
            key = (self.tenant, snapshot.version, phrase_key(query), threshold)
            cached = self._cache.get(key)
            with self._counter_lock:
                self._requests += 1
                self._cache_lookups += 1
                if cached is not None:
                    self._cache_hits += 1
            if cached is not None:
                return replace(
                    cached,
                    cache_hit=True,
                    coalesced=False,
                    total_seconds=time.perf_counter() - started,
                )

            def compute() -> ServedAnswer:
                return self._compute(snapshot, query, threshold)

            if self._flight is not None:
                answer, leader = self._flight.do(key, compute)
            else:
                answer, leader = compute(), True
            if leader:
                self._cache.put(key, answer)
            return replace(
                answer,
                coalesced=not leader,
                total_seconds=time.perf_counter() - started,
            )

    # -- the shard-scoped partial path (the fleet's scatter unit) ----------------

    def score_partial(
        self,
        query: str,
        indexed_terms: "Iterable[Tuple[int, str]]",
        *,
        limit: int,
        budget_seconds: float | None = None,
    ) -> PartialPool:
        """Score a subset of an expanded query's terms on this replica
        and return the best ``limit`` users of that slice.

        ``indexed_terms`` carries each term's **global** position in the
        full expansion, so the per-user reduction can apply the exact
        tie-break of the single-replica union (highest score wins, equal
        scores go to the earliest term) even though this replica sees
        only its shard's slice.  The fleet router merges shard pools
        under the same rule and gets a byte-identical ranking; ``limit``
        is the router's result cap — nothing below a leg's own top
        ``limit`` can reach the merged top ``limit``.

        Passes through admission control like :meth:`query` (a scatter
        leg is real detection work), pins one snapshot, shards per-term
        scoring across the detection pool, and caches the reduced pool
        under ``(tenant, version, 'partial', terms, limit)`` — hedged
        duplicates of the same scatter leg coalesce via single-flight
        exactly like whole queries do.

        Raises :class:`ServiceOverloadedError` under backpressure and
        :class:`ServiceClosedError` after :meth:`close`.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        started = time.perf_counter()
        self._check_budget(budget_seconds, started)
        indexed = tuple(
            (int(index), str(term)) for index, term in indexed_terms
        )
        with self._admission.slot(self.tenant):
            self._check_budget(budget_seconds, started)
            snapshot = self._require_snapshot()
            key = (self.tenant, snapshot.version, "partial", indexed, limit)
            cached = self._cache.get(key)
            with self._counter_lock:
                self._partials += 1
                self._cache_lookups += 1
                if cached is not None:
                    self._cache_hits += 1
            if cached is not None:
                return cached

            def compute() -> PartialPool:
                return self._compute_partial(snapshot, query, indexed, limit)

            if self._flight is not None:
                pool, leader = self._flight.do(key, compute)
            else:
                pool, leader = compute(), True
            if leader:
                self._cache.put(key, pool)
            return pool

    def _compute_partial(
        self,
        snapshot: ServiceSnapshot,
        query: str,
        indexed: Tuple[Tuple[int, str], ...],
        limit: int,
    ) -> PartialPool:
        pools = self._term_scorer(snapshot)([term for _, term in indexed])
        best: dict[int, Tuple[int, RankedExpert]] = {}
        for (index, _term), pool in zip(indexed, pools):
            for expert in pool:
                incumbent = best.get(expert.user_id)
                # strictly-greater keeps the earliest term on equal
                # scores because ``indexed`` arrives in ascending global
                # order — the same first-term-wins rule as score_terms
                if incumbent is None or expert.score > incumbent[1].score:
                    best[expert.user_id] = (index, expert)
        # a heap select, not a sort: the slice's pool is hundreds of
        # users, the merge can use at most ``limit`` of them
        entries = heapq.nsmallest(
            limit,
            best.values(),
            key=lambda entry: (-entry[1].score, entry[1].user_id),
        )
        return PartialPool(
            query=query,
            snapshot_version=snapshot.version,
            entries=tuple(entries),
            limit=limit,
            tenant=self.tenant,
        )

    # -- the asynchronous, micro-batched path ------------------------------------

    def submit(
        self, query: str, min_zscore: float | None = None
    ) -> "Future[ServedAnswer]":
        """Enqueue a query; duplicates within one batching window coalesce.

        The batch key folds in the current snapshot version (like the
        sync-path cache key does): duplicates straddling a
        ``refresh_domains`` swap within one window must not share an
        execution, or the later submitter could pin the stale generation.
        The threshold is **resolved** before keying, again like the sync
        path: ``submit(q)`` and ``submit(q, default_threshold)`` are the
        same request and must coalesce, not double-compute.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        snapshot = self._require_snapshot()
        threshold = (
            min_zscore
            if min_zscore is not None
            else snapshot.detector.ranking.min_zscore
        )
        key = (self.tenant, snapshot.version, phrase_key(query), threshold)
        return self._batcher.submit(key, lambda: self.query(query, threshold))

    def query_many(
        self, queries: List[str], min_zscore: float | None = None
    ) -> List[ServedAnswer]:
        """Answer a batch; results in input order."""
        futures = [self.submit(q, min_zscore) for q in queries]
        return [future.result() for future in futures]

    # -- refresh (§6.3 weekly rebuild, zero downtime) ----------------------------

    def refresh_domains(self, querylog_config=None) -> ServiceSnapshot:
        """Rebuild the domain collection and atomically swap it in.

        In-flight requests keep the snapshot they pinned; requests that
        start after the swap see the new generation.  Cached results of
        the old generation become unreachable (the version is part of
        the cache key) and age out via LRU.

        The rebuild runs the accumulator-join offline path, so the swap
        latency is dominated by clustering, not extraction; the measured
        wall-clock is surfaced as ``last_refresh_seconds`` in
        :meth:`stats` and tracked by the serving bench.

        Refreshes are serialised on this service: two concurrent calls
        run one after the other (each returning the snapshot *its own*
        rebuild published), so a slower, staler build can never be
        swapped in over a newer one and every caller observes a strictly
        increasing version.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        with self._refresh_lock:
            started = time.perf_counter()
            self.system.refresh_domains(querylog_config)
            snapshot = self._require_snapshot()
            with self._counter_lock:
                self._refreshes += 1
                self._last_refresh_seconds = time.perf_counter() - started
            return snapshot

    def refresh_delta(
        self, delta: "QueryLogStore | Iterable[Impression]"
    ) -> ServiceSnapshot:
        """Incrementally fold a batch of new impressions into serving.

        The delta path of §6.3-at-production-granularity: instead of
        re-running the whole offline pipeline, the delta batch updates
        the similarity join incrementally, re-clusters only the dirty
        region (with an exact full-re-cluster fallback past the churn
        threshold), rebuilds only the affected domains, and publishes
        through the same zero-downtime snapshot swap.  Serialised with
        :meth:`refresh_domains` on the same lock; accounting lands in
        :meth:`stats` (``delta_refreshes``, ``last_delta_refresh_seconds``,
        ``last_delta_refresh``).
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        with self._refresh_lock:
            started = time.perf_counter()
            stats = self.system.refresh_domains_delta(delta)
            snapshot = self._require_snapshot()
            with self._counter_lock:
                self._delta_refreshes += 1
                self._last_delta_refresh_seconds = (
                    time.perf_counter() - started
                )
                self._last_delta_refresh = stats
            return snapshot

    # -- observability -----------------------------------------------------------

    @property
    def snapshot_version(self) -> int:
        return self._snapshots.version

    def cache_info(self) -> CacheInfo:
        return self._cache.cache_info()

    def health(self) -> ReplicaHealthReport:
        """The routing-relevant vitals (what a fleet router polls).

        Surfaces the result-cache hit ratio and the current snapshot
        version alongside the admission gauges — the fields a front-end
        needs to pick replicas and to detect version skew during a
        promotion.
        """
        return self._runtime.health(
            self._snapshots.version, (self.tenant_health(),)
        )

    def tenant_health(self) -> TenantHealth:
        """This tenant's slice of the vitals, from the service's own
        counters (valid even when the cache is shared across tenants)."""
        with self._counter_lock:
            requests = self._requests
            partials = self._partials
            lookups = self._cache_lookups
            hits = self._cache_hits
        return TenantHealth(
            tenant=self.tenant,
            snapshot_version=self._snapshots.version,
            cache_hit_ratio=hits / lookups if lookups else 0.0,
            requests=requests,
            partial_requests=partials,
        )

    def stats(self) -> ServiceStats:
        with self._counter_lock:
            refresh = dict(
                refreshes=self._refreshes,
                last_refresh_seconds=self._last_refresh_seconds,
                delta_refreshes=self._delta_refreshes,
                last_delta_refresh_seconds=self._last_delta_refresh_seconds,
                last_delta_refresh=self._last_delta_refresh,
            )
        return self._runtime.stats(
            self._snapshots.version, (self.tenant_health(),), **refresh
        )

    # -- internals ---------------------------------------------------------------

    def _require_snapshot(self) -> ServiceSnapshot:
        snapshot = self._snapshots.get()
        if snapshot is None:  # pragma: no cover - guarded by constructor
            raise ServiceClosedError("no snapshot published")
        return snapshot

    @staticmethod
    def _check_budget(
        budget_seconds: float | None, started: float
    ) -> None:
        """Fail typed once a request's end-to-end budget is spent.

        Checked on entry and again after the admission wait — queue time
        counts against the deadline, so a request that waited out its
        budget is refused before it costs any detection work.
        """
        if budget_seconds is None:
            return
        elapsed = time.perf_counter() - started
        if elapsed >= budget_seconds:
            raise DeadlineExceededError(
                f"deadline budget of {budget_seconds:.3f}s spent "
                f"({elapsed:.3f}s elapsed) before detection started",
                budget_seconds=budget_seconds,
                elapsed_seconds=elapsed,
            )

    def _compute(
        self, snapshot: ServiceSnapshot, query: str, threshold: float
    ) -> ServedAnswer:
        expander = snapshot.pipeline.expander
        started = time.perf_counter()
        terms, domain_id = expander.expand_terms(query)
        expansion_seconds = time.perf_counter() - started

        started = time.perf_counter()
        result = expander.score_terms(
            query,
            terms,
            domain_id,
            term_scorer=self._term_scorer(snapshot),
        )
        kept = [e for e in result.scored_pool if e.score >= threshold]
        experts = tuple(kept[: snapshot.detector.ranking.max_results])
        detection_seconds = time.perf_counter() - started

        return ServedAnswer(
            query=query,
            experts=experts,
            terms=tuple(terms),
            matched_domain=domain_id,
            snapshot_version=snapshot.version,
            cache_hit=False,
            coalesced=False,
            expansion_seconds=expansion_seconds,
            detection_seconds=detection_seconds,
            total_seconds=0.0,
            tenant=self.tenant,
        )

    def _term_scorer(
        self, snapshot: ServiceSnapshot
    ) -> Callable[[List[str]], List[List[RankedExpert]]]:
        """Shard per-term scoring across the detection pool."""

        def scorer(terms: List[str]) -> List[List[RankedExpert]]:
            if len(terms) <= 1:
                return [snapshot.detector.score(term) for term in terms]
            return self._detect_pool.map_ordered(snapshot.detector.score, terms)

        return scorer
