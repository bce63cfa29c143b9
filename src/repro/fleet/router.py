"""The fleet front-end: shard-aware scatter-gather over replica workers.

:class:`FleetRouter` owns a fixed set of replicas (in-process services
or ``fleet-worker`` subprocesses — one shard each), a deterministic
:mod:`sharding <repro.fleet.sharding>` policy, and a per-replica
:mod:`health <repro.fleet.health>` tracker.  The serving path:

1. **Expand** the query against the router's own (shard-independent)
   domain store — the exact expansion every replica would compute.
2. **Route.** If every expansion term lands on one shard (always true
   for matched queries under domain-partition sharding, and for any
   single-term query), the whole query goes to that shard's replica —
   its result cache serves repeats.  Otherwise the terms **scatter** as
   ``score_partial`` legs to their owning shards; each leg returns only
   its slice's top ``limit`` (the router's result cap — all the merge
   can use) and the pools **gather** through
   :func:`~repro.fleet.merge.merge_partials`, which reproduces the
   single-replica ranking exactly.
3. **Hedge.** Every leg's primary is spawned on the leaf executor first;
   the calling thread then drives all of them at once — no thread is
   created per query.  Each leg races a latency-percentile deadline (per
   replica, from the tracker) measured from its own spawn; past it, one
   backup fires on the next-healthiest replica — any replica can serve
   any leg because all hold the full corpus — and the first answer wins.
   A replica that *fails* fails over the same way immediately, bounded
   by ``FleetConfig.leg_retries`` per leg.

Resilience discipline (PR 8) layers onto that path without changing its
answers:

* **Circuit breakers.** Each replica's breaker
  (:class:`~repro.fleet.health.CircuitBreaker`) must admit a call before
  it is spawned; a tripped replica is skipped outright (fast, typed)
  until its cooldown half-opens a probe.  When *no* admitting replica
  remains the router raises :class:`CircuitOpenError` immediately.
* **Deadline budgets.** ``query(..., deadline_seconds=...)`` (or the
  config-wide default) starts an end-to-end budget that bounds every
  wait and propagates to budget-aware replicas as ``budget_seconds`` —
  a worker whose queue already ate the budget fails typed
  (:class:`~repro.serving.errors.DeadlineExceededError`) instead of
  computing an answer nobody is waiting for.  Deadline misses are
  terminal: the budget is gone, so no failover fires.
* **Degraded answers.** With ``FleetConfig.allow_degraded``, a scatter
  whose leg fails outright (every candidate replica for it exhausted)
  merges the surviving shard pools and marks the answer
  ``coverage < 1.0`` — explicitly partial, never silently wrong.  The
  default remains fail-loud.

Promotion is two-phase (:meth:`FleetRouter.promote`): preload the
artifact on **every** replica first — any failure aborts with nothing
flipped anywhere — then CAS-flip each replica via
``SnapshotHolder.publish(expected_version=...)``.  A replica whose
version moved underneath loses the CAS loudly instead of silently
serving a mixed fleet, and the merge independently refuses
cross-version gathers (:class:`FleetVersionSkewError`) with a bounded
router-level retry.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.detector.ranking import RankedExpert, RankingConfig
from repro.expansion.domainstore import DomainStore
from repro.fleet.errors import (
    CircuitOpenError,
    FleetError,
    FleetVersionSkewError,
    NoHealthyReplicaError,
    PromotionError,
)
from repro.fleet.health import BreakerConfig, ReplicaTracker, ReplicaVitals
from repro.fleet.merge import merge_partials
from repro.fleet.sharding import (
    DomainPartitionSharding,
    ShardingPolicy,
    TokenHashSharding,
)
from repro.serving.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    UnknownTenantError,
)
from repro.serving.service import DEFAULT_TENANT, ReplicaHealthReport


@dataclass(frozen=True)
class FleetConfig:
    """Router knobs (hedging, retries, deadlines, degradation)."""

    #: fire backup requests past the per-replica latency deadline
    hedging: bool = True
    #: latency percentile a call must beat before a backup fires
    hedge_percentile: float = 0.95
    #: per-replica samples required before percentile deadlines apply
    hedge_min_samples: int = 8
    #: deadline used until a replica has enough samples
    hedge_default_deadline_seconds: float = 0.05
    #: sliding latency window per replica
    latency_window: int = 128
    #: how long a gather waits for its slowest leg before giving up
    gather_timeout_seconds: float = 300.0
    #: re-scatters allowed when a promotion races a gather
    skew_retries: int = 2
    #: failovers allowed per hedged leg before its first error surfaces
    leg_retries: int = 2
    #: end-to-end budget applied to every query (None: only per-call)
    deadline_seconds: Optional[float] = None
    #: merge surviving shards into a coverage<1.0 answer when a scatter
    #: leg fails outright, instead of failing the whole query
    allow_degraded: bool = False
    #: per-replica circuit-breaker knobs (None: BreakerConfig defaults)
    breaker: Optional[BreakerConfig] = None
    #: threads executing replica calls (None: 4 per replica, min 8)
    executor_threads: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.hedge_percentile <= 1.0:
            raise ValueError("hedge_percentile must be in (0, 1]")
        if self.skew_retries < 0:
            raise ValueError("skew_retries must be >= 0")
        if self.leg_retries < 0:
            raise ValueError("leg_retries must be >= 0")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be > 0")


class _Deadline:
    """A monotonic end-to-end budget (inert when ``budget`` is None)."""

    __slots__ = ("budget", "_expires")

    def __init__(self, budget: Optional[float]) -> None:
        self.budget = budget
        self._expires = (
            None if budget is None else time.monotonic() + budget
        )

    def remaining(self) -> Optional[float]:
        if self._expires is None:
            return None
        return self._expires - time.monotonic()

    def expired(self) -> bool:
        return (
            self._expires is not None and time.monotonic() >= self._expires
        )

    def clamp(self, timeout: Optional[float]) -> Optional[float]:
        """Bound a wait by the remaining budget."""
        remaining = self.remaining()
        if remaining is None:
            return timeout
        remaining = max(0.0, remaining)
        return remaining if timeout is None else min(timeout, remaining)


@dataclass(frozen=True)
class FleetAnswer:
    """One answered query, stamped with fleet routing provenance.

    Field-compatible with the single-replica
    :class:`~repro.serving.service.ServedAnswer` surface the load
    generator reads, plus the routing story (mode, shards touched,
    hedges fired) and the coverage contract: ``coverage == 1.0`` is the
    exact single-replica answer; ``coverage < 1.0`` is an explicitly
    degraded partial (only produced under ``FleetConfig.allow_degraded``
    when a shard was down), never a silently wrong ranking.
    """

    query: str
    experts: Tuple[RankedExpert, ...]
    terms: Tuple[str, ...]
    matched_domain: Optional[str]
    snapshot_version: int
    cache_hit: bool
    coalesced: bool
    expansion_seconds: float
    detection_seconds: float
    total_seconds: float
    #: "single-shard" (whole query on one replica) or "scatter-gather"
    mode: str = "single-shard"
    #: shards that served this answer
    shards: Tuple[int, ...] = ()
    #: backup requests fired for this answer
    hedges: int = 0
    #: fraction of expansion terms the answer covers (1.0 = exact)
    coverage: float = 1.0
    #: which tenant's corpus answered (as on ``ServedAnswer``)
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class FleetStats:
    """Aggregated router counters plus per-replica vitals."""

    replicas: int
    shards: int
    policy: str
    requests: int
    single_shard: int
    scattered: int
    scatter_legs: int
    hedges_fired: int
    hedge_wins: int
    failovers: int
    skew_retries: int
    promotions: int
    degraded_answers: int = 0
    deadline_exceeded: int = 0
    breaker_rejections: int = 0
    replica_vitals: Tuple[ReplicaVitals, ...] = ()
    replica_health: Tuple[Tuple[str, ReplicaHealthReport], ...] = ()

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "shards": self.shards,
            "policy": self.policy,
            "requests": self.requests,
            "single_shard": self.single_shard,
            "scattered": self.scattered,
            "scatter_legs": self.scatter_legs,
            "hedges_fired": self.hedges_fired,
            "hedge_wins": self.hedge_wins,
            "failovers": self.failovers,
            "skew_retries": self.skew_retries,
            "promotions": self.promotions,
            "degraded_answers": self.degraded_answers,
            "deadline_exceeded": self.deadline_exceeded,
            "breaker_rejections": self.breaker_rejections,
            "replica_vitals": [v.to_dict() for v in self.replica_vitals],
            "replica_health": {
                name: report.to_dict()
                for name, report in self.replica_health
            },
        }


@dataclass
class _Leg:
    """One shard's call: its replica attempts in flight and how it ended.

    Touched only by the thread that runs :meth:`FleetRouter._gather`.
    """

    shard: int
    call: Callable
    #: expansion terms this leg covers (degraded-coverage accounting)
    terms: int = 1
    primary: str = ""
    tried: set = field(default_factory=set)
    flights: Dict[Future, str] = field(default_factory=dict)
    #: monotonic instant this leg's one backup fires (None: fired or off)
    hedge_at: Optional[float] = None
    hedges: int = 0
    failovers: int = 0
    backup_won: bool = False
    first_error: Optional[BaseException] = None
    done: bool = False
    value: object = None
    #: set instead of ``value`` when every attempt was exhausted
    error: Optional[BaseException] = None


@dataclass(frozen=True)
class _TenantRoute:
    """One tenant's routing state: its own store, ranking, and sharding.

    The router keeps one of these per tenant so expansion and shard
    planning always run against the corpus the query is *for* — two
    tenants with overlapping keywords still route independently.
    """

    store: DomainStore
    ranking: RankingConfig
    sharding: ShardingPolicy
    policy: object
    graph: object = None


class FleetRouter:
    """Scatter-gather front-end over a fixed replica fleet."""

    def __init__(
        self,
        replicas: Sequence,
        *,
        domain_store: DomainStore,
        ranking: RankingConfig,
        sharding: Optional[ShardingPolicy] = None,
        expansion_policy=None,
        graph=None,
        config: Optional[FleetConfig] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        """``domain_store`` / ``ranking`` / ``sharding`` are the routing
        state of ``tenant`` (the default tenant unless named);
        :meth:`add_tenant` grows the table."""
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        names = [replica.name for replica in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate replica names: {names}")
        self.replicas = list(replicas)
        self.config = config or FleetConfig()
        self.sharding = sharding or DomainPartitionSharding.from_store(
            len(replicas), domain_store
        )
        if self.sharding.num_shards != len(self.replicas):
            raise ValueError(
                f"sharding covers {self.sharding.num_shards} shards but the "
                f"fleet has {len(self.replicas)} replicas"
            )
        #: tenant → routing state
        self._routes: Dict[str, _TenantRoute] = {}
        self.add_tenant(
            tenant,
            domain_store,
            ranking,
            sharding=self.sharding,
            expansion_policy=expansion_policy,
            graph=graph,
        )
        self._by_name = {replica.name: replica for replica in replicas}
        self._tracker = ReplicaTracker(
            names,
            window=self.config.latency_window,
            hedge_percentile=self.config.hedge_percentile,
            min_samples=self.config.hedge_min_samples,
            default_deadline_seconds=(
                self.config.hedge_default_deadline_seconds
            ),
            breaker=self.config.breaker,
        )
        threads = self.config.executor_threads
        if threads is None:
            threads = max(8, 4 * len(self.replicas))
        #: runs ONLY leaf replica calls — nothing submitted here ever
        #: submits here again, so the pool cannot deadlock on itself
        self._executor = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-fleet"
        )
        self._lock = threading.Lock()
        self._requests = 0  # guarded-by: _lock
        self._single = 0  # guarded-by: _lock
        self._scattered = 0  # guarded-by: _lock
        self._legs = 0  # guarded-by: _lock
        self._hedges = 0  # guarded-by: _lock
        self._hedge_wins = 0  # guarded-by: _lock
        self._failovers = 0  # guarded-by: _lock
        self._skew_retries = 0  # guarded-by: _lock
        self._promotions = 0  # guarded-by: _lock
        self._degraded = 0  # guarded-by: _lock
        self._deadline_exceeded = 0  # guarded-by: _lock
        self._breaker_rejections = 0  # guarded-by: _lock
        self._closed = False

    @classmethod
    def from_artifact(
        cls,
        path,
        replicas: Sequence,
        *,
        sharding: str = "domain",
        expected_config=None,
        config: Optional[FleetConfig] = None,
    ) -> "FleetRouter":
        """Build a router whose routing state warm-starts from one
        artifact, routed as tenant ``default`` — the one-tenant case of
        :meth:`from_tenant_artifacts`."""
        return cls.from_tenant_artifacts(
            {DEFAULT_TENANT: path},
            replicas,
            sharding=sharding,
            expected_config=expected_config,
            config=config,
        )

    @classmethod
    def from_tenant_artifacts(
        cls,
        tenant_dirs: Dict[str, object],
        replicas: Sequence,
        *,
        sharding: str = "domain",
        expected_config=None,
        config: Optional[FleetConfig] = None,
    ) -> "FleetRouter":
        """Build a router with one route per tenant artifact.

        ``tenant_dirs`` maps tenant name → artifact directory.  Per
        tenant this loads **only** the domain-store stage
        (:func:`~repro.artifact.load_artifact_stages`) — the front-end
        needs the keyword → domain map for expansion/routing, not the
        corpus — plus the manifest config for ranking semantics
        (``expected_config``, when given, is checked against every
        manifest), and plans its sharding.  The replicas must themselves
        serve those tenants.  Only the named tenants route: there is a
        ``default`` route iff ``tenant_dirs`` names it.
        """
        from repro.artifact import load_artifact_stages

        if not tenant_dirs:
            raise FleetError("from_tenant_artifacts needs at least one tenant")
        router = None
        for tenant in sorted(tenant_dirs):
            partial = load_artifact_stages(
                tenant_dirs[tenant], ("domain_store",), expected_config
            )
            route = dict(
                domain_store=partial.values["domain_store"],
                ranking=partial.config.ranking,
                sharding=cls._shard_policy(
                    sharding, len(replicas), partial.values["domain_store"]
                ),
            )
            if router is None:
                router = cls(replicas, config=config, tenant=tenant, **route)
            else:
                router.add_tenant(tenant, **route)
        return router

    @staticmethod
    def _shard_policy(
        sharding: str, num_replicas: int, domain_store: DomainStore
    ) -> ShardingPolicy:
        if sharding == "domain":
            return DomainPartitionSharding.from_store(
                num_replicas, domain_store
            )
        if sharding == "hash":
            return TokenHashSharding(num_replicas)
        raise FleetError(f"unknown sharding policy {sharding!r}")

    def add_tenant(
        self,
        tenant: str,
        domain_store: DomainStore,
        ranking: RankingConfig,
        *,
        sharding: Optional[ShardingPolicy] = None,
        expansion_policy=None,
        graph=None,
    ) -> None:
        """Register a tenant's routing state (store + ranking + shards)."""
        from repro.expansion.policies import FullCommunityPolicy

        policy = sharding or DomainPartitionSharding.from_store(
            len(self.replicas), domain_store
        )
        if policy.num_shards != len(self.replicas):
            raise FleetError(
                f"tenant {tenant!r}: sharding covers {policy.num_shards} "
                f"shards but the fleet has {len(self.replicas)} replicas"
            )
        self._routes[tenant] = _TenantRoute(
            store=domain_store,
            ranking=ranking,
            sharding=policy,
            policy=expansion_policy or FullCommunityPolicy(),
            graph=graph,
        )

    def tenants(self) -> Tuple[str, ...]:
        """The tenants this router can route for, sorted."""
        return tuple(sorted(self._routes))

    def _route_for(self, tenant: str) -> _TenantRoute:
        route = self._routes.get(tenant)
        if route is None:
            raise UnknownTenantError(tenant, self._routes)
        return route

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every replica and release the call pool (idempotent)."""
        self._closed = True
        for replica in self.replicas:
            try:
                replica.close()
            except Exception:  # noqa: BLE001 - keep closing the rest
                pass
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- replica management (the supervisor's hooks) -----------------------------

    def replica(self, name: str):
        """The live replica handle currently serving ``name``'s slot."""
        replica = self._by_name.get(name)
        if replica is None:
            raise FleetError(f"unknown replica {name!r}")
        return replica

    def replace_replica(self, name: str, replica) -> None:
        """Swap a (restarted) replica into an existing slot.

        The new handle must carry the same name; the tracker's history
        and breaker for the slot are reset so the fresh process starts
        with a clean record instead of inheriting its predecessor's
        failure streak.
        """
        if replica.name != name:
            raise FleetError(
                f"replacement is named {replica.name!r}, slot is {name!r}"
            )
        with self._lock:
            if name not in self._by_name:
                raise FleetError(f"unknown replica {name!r}")
            for index, current in enumerate(self.replicas):
                if current.name == name:
                    self.replicas[index] = replica
                    break
            self._by_name[name] = replica
        self._tracker.reset(name)

    @property
    def tracker(self) -> ReplicaTracker:
        return self._tracker

    # -- the serving path --------------------------------------------------------

    def query(
        self,
        query: str,
        min_zscore: Optional[float] = None,
        *,
        deadline_seconds: Optional[float] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> FleetAnswer:
        """Route one query through the fleet.

        Exactly the single-replica answer (same experts, same order,
        same snapshot version), produced by one replica or merged from
        several — the caller cannot tell which, except through the
        provenance fields.  ``deadline_seconds`` (or the config default)
        bounds the whole call end to end; a degraded partial (only with
        ``allow_degraded``) is marked by ``coverage < 1.0``.
        ``tenant`` picks the corpus (and its route); a router built by
        :meth:`from_artifact` routes exactly the default tenant.
        """
        if self._closed:
            raise ServiceClosedError("fleet router is closed")
        route = self._route_for(tenant)
        started = time.perf_counter()
        budget = (
            deadline_seconds
            if deadline_seconds is not None
            else self.config.deadline_seconds
        )
        with self._lock:
            self._requests += 1
        attempts = self.config.skew_retries + 1
        for attempt in range(attempts):
            deadline = _Deadline(budget)
            try:
                return self._route(
                    route, tenant, query, min_zscore, started, deadline
                )
            except FleetVersionSkewError:
                if attempt + 1 == attempts:
                    raise
                with self._lock:
                    self._skew_retries += 1
        raise AssertionError("unreachable")  # pragma: no cover

    def _route(
        self,
        route: _TenantRoute,
        tenant: str,
        query: str,
        min_zscore: Optional[float],
        started: float,
        deadline: _Deadline,
    ) -> FleetAnswer:
        expansion_started = time.perf_counter()
        terms, domain_id = self._expand(route, query)
        expansion_seconds = time.perf_counter() - expansion_started
        plan = sorted(route.sharding.plan(terms).items())

        if len(plan) == 1:
            ((shard, _indexed),) = plan
            leg = _Leg(
                shard,
                self._replica_call(
                    "query", deadline, tenant, query, min_zscore
                ),
            )
            self._gather([leg], deadline)
            if leg.error is not None:
                raise leg.error
            answer = leg.value
            self._account(
                single=1,
                hedges=leg.hedges,
                hedge_wins=int(leg.backup_won),
                failovers=leg.failovers,
            )
            return FleetAnswer(
                query=answer.query,
                experts=answer.experts,
                terms=answer.terms,
                matched_domain=answer.matched_domain,
                snapshot_version=answer.snapshot_version,
                cache_hit=answer.cache_hit,
                coalesced=answer.coalesced,
                expansion_seconds=expansion_seconds,
                detection_seconds=answer.detection_seconds,
                total_seconds=time.perf_counter() - started,
                mode="single-shard",
                shards=(shard,),
                hedges=leg.hedges,
                tenant=tenant,
            )

        threshold = (
            min_zscore if min_zscore is not None else route.ranking.min_zscore
        )
        max_results = route.ranking.max_results
        detection_started = time.perf_counter()
        legs = [
            _Leg(
                shard,
                # a leg's top max_results is all the merge can use
                self._replica_call(
                    "score_partial",
                    deadline,
                    tenant,
                    query,
                    indexed,
                    limit=max_results,
                ),
                terms=len(indexed),
            )
            for shard, indexed in plan
        ]
        self._gather(legs, deadline)
        served = [leg for leg in legs if leg.error is None]
        coverage = 1.0
        if len(served) < len(legs):
            failures = [leg.error for leg in legs if leg.error is not None]
            if not self.config.allow_degraded or not served:
                misses = [
                    exc
                    for exc in failures
                    if isinstance(exc, DeadlineExceededError)
                ]
                raise misses[0] if misses else failures[0]
            coverage = sum(leg.terms for leg in served) / sum(
                leg.terms for leg in legs
            )
        experts, version = merge_partials(
            [leg.value for leg in served],
            threshold=threshold,
            max_results=max_results,
        )
        detection_seconds = time.perf_counter() - detection_started
        hedges = sum(leg.hedges for leg in served)
        self._account(
            scattered=1,
            legs=len(legs),
            hedges=hedges,
            hedge_wins=sum(int(leg.backup_won) for leg in served),
            failovers=sum(leg.failovers for leg in served),
            degraded=int(coverage < 1.0),
        )
        return FleetAnswer(
            query=query,
            experts=experts,
            terms=tuple(terms),
            matched_domain=domain_id,
            snapshot_version=version,
            cache_hit=False,
            coalesced=False,
            expansion_seconds=expansion_seconds,
            detection_seconds=detection_seconds,
            total_seconds=time.perf_counter() - started,
            mode="scatter-gather",
            shards=tuple(leg.shard for leg in served),
            hedges=hedges,
            coverage=coverage,
            tenant=tenant,
        )

    def _expand(
        self, route: _TenantRoute, query: str
    ) -> Tuple[List[str], Optional[str]]:
        """The exact expansion every replica would compute (§5)."""
        domain = route.store.lookup(query)
        if domain is None:
            return [query], None
        return (
            route.policy.terms(query, domain, route.graph),
            domain.domain_id,
        )

    # -- budget-aware replica calls ----------------------------------------------

    @staticmethod
    def _tenant_kwargs(replica, tenant: str) -> dict:
        """``{"tenant": ...}`` for tenant-aware replicas; the default
        tenant rides for free on tenant-blind replicas (test doubles),
        any other tenant on one is a routing bug surfaced typed."""
        if getattr(replica, "supports_tenants", False):
            return {"tenant": tenant}
        if tenant != DEFAULT_TENANT:
            raise UnknownTenantError(tenant, (DEFAULT_TENANT,))
        return {}

    def _replica_call(
        self, op: str, deadline: _Deadline, tenant: str, *args, **kwargs
    ) -> Callable:
        """``replica.<op>(*args, **kwargs)`` plus what the replica
        declares it understands: the tenant, and the budget still left
        at the moment the call is actually made."""

        def call(replica):
            extra = self._tenant_kwargs(replica, tenant)
            budget = deadline.remaining()
            if budget is not None and getattr(
                replica, "supports_budget", False
            ):
                extra["budget_seconds"] = max(0.0, budget)
            return getattr(replica, op)(*args, **kwargs, **extra)

        return call

    # -- the gather loop ---------------------------------------------------------

    def _gather(self, legs: List[_Leg], deadline: _Deadline) -> None:
        """Drive every leg to an answer or a typed error, on this thread.

        All primaries are spawned on the leaf executor first; this
        thread then waits on every flight of every open leg at once,
        waking for the earliest pending hedge.  Per leg: past its hedge
        deadline (measured from its own spawn) the next-healthiest
        *admitting* replica gets ONE backup and the first success wins —
        losers are cancelled (unstarted work is dropped; started work
        completes and still feeds the tracker); a failed attempt with
        nothing else in flight fails over, at most ``leg_retries``
        times, then the leg's first error stands; a deadline miss is
        terminal for the leg (no failover); a primary whose breaker
        rejects falls through to the healthiest admitting replica, or
        :class:`CircuitOpenError` when none is left.  A leg still open
        when the budget (or ``gather_timeout_seconds``) runs out ends
        with the typed miss.  Outcomes land on the legs themselves.
        """
        for leg in legs:
            self._start(leg)
        expires = time.monotonic() + deadline.clamp(
            self.config.gather_timeout_seconds
        )
        open_legs = [leg for leg in legs if not leg.done]
        while open_legs:
            now = time.monotonic()
            if now >= expires:
                for leg in open_legs:
                    self._give_up(leg, deadline)
                return
            wake = expires
            for leg in open_legs:
                if leg.hedge_at is not None and now >= leg.hedge_at:
                    self._hedge(leg)
                if leg.hedge_at is not None:
                    wake = min(wake, leg.hedge_at)
            owners = {
                future: leg for leg in open_legs for future in leg.flights
            }
            done, _ = wait(
                owners, timeout=wake - now, return_when=FIRST_COMPLETED
            )
            for future in done:
                if not owners[future].done:
                    self._settle(owners[future], future)
            open_legs = [leg for leg in open_legs if not leg.done]

    def _start(self, leg: _Leg) -> None:
        """Spawn the leg's primary, breaker permitting."""
        primary = self.replicas[leg.shard]
        if not self._tracker.admit(primary.name):
            self._account(breaker_rejections=1)
            primary = self._next_backup({primary.name})
            if primary is None:
                self._finish(
                    leg,
                    CircuitOpenError(
                        f"shard {leg.shard}: no replica's circuit breaker "
                        "admits the call"
                    ),
                )
                return
        leg.primary = primary.name
        self._launch(leg, primary)
        if self.config.hedging and len(self.replicas) > 1:
            leg.hedge_at = time.monotonic() + self._tracker.hedge_deadline(
                primary.name
            )

    def _launch(self, leg: _Leg, replica) -> None:
        leg.tried.add(replica.name)
        leg.flights[self._spawn(replica, leg.call)] = replica.name

    def _hedge(self, leg: _Leg) -> None:
        """The leg's hedge deadline passed: fire its one backup."""
        leg.hedge_at = None
        backup = self._next_backup(leg.tried)
        if backup is not None:
            leg.hedges += 1
            self._launch(leg, backup)

    def _settle(self, leg: _Leg, future: Future) -> None:
        """One of the leg's flights completed: win, fail over, or fail."""
        name = leg.flights.pop(future)
        try:
            leg.value = future.result()
        except BaseException as exc:  # noqa: BLE001 - failover
            if isinstance(exc, DeadlineExceededError):
                # the budget is spent fleet-wide: retrying elsewhere
                # cannot beat it
                self._account(deadline_exceeded=1)
                self._finish(leg, exc)
                return
            if not isinstance(exc, ServiceClosedError):
                self._tracker.record_failure(name)
            if leg.first_error is None:
                leg.first_error = exc
            if leg.flights:
                return  # a hedge is still racing
            backup = (
                self._next_backup(leg.tried)
                if leg.failovers < self.config.leg_retries
                else None
            )
            if backup is None:
                self._finish(leg, leg.first_error)
            else:
                leg.failovers += 1
                self._launch(leg, backup)
            return
        leg.backup_won = name != leg.primary
        self._finish(leg)

    def _give_up(self, leg: _Leg, deadline: _Deadline) -> None:
        """The budget (or the gather timeout) ran out under an open leg."""
        if deadline.expired():
            self._account(deadline_exceeded=1)
            error: BaseException = DeadlineExceededError(
                f"deadline budget of {deadline.budget}s exhausted "
                f"waiting on shard {leg.shard}",
                budget_seconds=deadline.budget,
            )
        else:
            error = NoHealthyReplicaError(
                f"gather timed out after "
                f"{self.config.gather_timeout_seconds}s waiting on "
                f"shard {leg.shard}"
            )
        self._finish(leg, error)

    @staticmethod
    def _finish(leg: _Leg, error: Optional[BaseException] = None) -> None:
        for loser in leg.flights:
            loser.cancel()
        leg.error = error
        leg.done = True

    def _next_backup(self, tried: set):
        """The healthiest untried replica whose breaker admits a call."""
        name = self._tracker.select(exclude=tried)
        if name is None:
            return None
        return self._by_name[name]

    def _spawn(self, replica, call: Callable) -> Future:
        """Run one replica call on the leaf executor, feeding the tracker."""

        def run():
            call_started = time.perf_counter()
            value = call(replica)
            self._tracker.record_success(
                replica.name, time.perf_counter() - call_started
            )
            return value

        return self._executor.submit(run)

    def _account(
        self,
        *,
        single: int = 0,
        scattered: int = 0,
        legs: int = 0,
        hedges: int = 0,
        hedge_wins: int = 0,
        failovers: int = 0,
        degraded: int = 0,
        deadline_exceeded: int = 0,
        breaker_rejections: int = 0,
    ) -> None:
        with self._lock:
            self._single += single
            self._scattered += scattered
            self._legs += legs
            self._hedges += hedges
            self._hedge_wins += hedge_wins
            self._failovers += failovers
            self._degraded += degraded
            self._deadline_exceeded += deadline_exceeded
            self._breaker_rejections += breaker_rejections

    # -- two-phase snapshot promotion --------------------------------------------

    def promote(
        self, artifact_dir, *, tenant: str = DEFAULT_TENANT
    ) -> int:
        """Roll the whole fleet to an artifact generation, two-phase.

        ``tenant`` scopes the roll: only that tenant's generation moves
        on every replica; every other tenant keeps its version (and its
        warm caches) untouched.

        **Phase one (preload):** every replica loads the artifact fully —
        decode, corpus, candidate index — while still serving its current
        generation.  Any failure aborts the promotion with *nothing
        flipped anywhere* (:class:`PromotionError` lists per-replica
        outcomes).  All replicas must stage the same manifest version.

        **Phase two (flip):** each replica CAS-publishes the staged
        generation (``publish(expected_version=<its current version>,
        version=<staged>)``).  A replica whose version moved in between
        fails the CAS loudly; the error reports which replicas flipped.
        The flip itself is one reference swap per replica, and the
        gather path refuses mixed-version merges in the window, so a
        client can never observe a blended ranking.

        Returns the fleet-wide version after a fully successful roll.
        """
        if self._closed:
            raise ServiceClosedError("fleet router is closed")
        outcomes: Dict[str, str] = {}

        def preload(replica):
            return replica.preload(
                artifact_dir, **self._tenant_kwargs(replica, tenant)
            )

        preload_futures = [
            (replica, self._executor.submit(preload, replica))
            for replica in self.replicas
        ]
        staged_versions: Dict[str, int] = {}
        failed = False
        for replica, future in preload_futures:
            try:
                staged_versions[replica.name] = future.result(
                    timeout=self.config.gather_timeout_seconds
                )
                outcomes[replica.name] = (
                    f"preloaded v{staged_versions[replica.name]}"
                )
            except Exception as exc:  # noqa: BLE001 - aggregated below
                outcomes[replica.name] = f"preload failed: {exc}"
                failed = True
        if failed:
            raise PromotionError(
                "phase one (preload) failed; nothing was flipped", outcomes
            )
        versions = sorted(set(staged_versions.values()))
        if len(versions) > 1:
            raise PromotionError(
                f"replicas staged different versions {versions}; "
                "nothing was flipped",
                outcomes,
            )
        target = versions[0]

        # current serving versions, read *after* preload so a lazily
        # loaded tenant is resident by now; the CAS below catches any
        # promotion racing this one
        current: Dict[str, int] = {}
        for replica in self.replicas:
            version = replica.health().tenant_version(tenant)
            if version is None:
                outcomes[replica.name] = (
                    f"tenant {tenant!r} not served; nothing was flipped"
                )
                raise PromotionError(
                    f"replica {replica.name} does not serve tenant "
                    f"{tenant!r}; nothing was flipped",
                    outcomes,
                )
            current[replica.name] = version

        flipped = 0
        for replica in self.replicas:
            try:
                flipped_to = replica.promote(
                    expected_version=current[replica.name],
                    **self._tenant_kwargs(replica, tenant),
                )
                outcomes[replica.name] = f"flipped to v{flipped_to}"
                flipped += 1
            except Exception as exc:  # noqa: BLE001 - aggregated below
                outcomes[replica.name] = f"flip failed: {exc}"
                raise PromotionError(
                    f"phase two (flip) failed on {replica.name} after "
                    f"{flipped} of {len(self.replicas)} replicas flipped",
                    outcomes,
                ) from exc
        with self._lock:
            self._promotions += 1
        return target

    # -- observability -----------------------------------------------------------

    def health(self) -> Dict[str, ReplicaHealthReport]:
        """Poll every reachable replica's vitals (version skew shows up
        here).  A replica that cannot answer — killed, hung, mid-restart
        — is omitted rather than turning an observability call into a
        crash; its absence *is* the signal."""
        reports: Dict[str, ReplicaHealthReport] = {}
        for replica in self.replicas:
            try:
                reports[replica.name] = replica.health()
            except Exception:  # noqa: BLE001 - dead replica: omitted
                continue
        return reports

    def stats(self) -> FleetStats:
        with self._lock:
            requests = self._requests
            single = self._single
            scattered = self._scattered
            legs = self._legs
            hedges = self._hedges
            hedge_wins = self._hedge_wins
            failovers = self._failovers
            skew_retries = self._skew_retries
            promotions = self._promotions
            degraded = self._degraded
            deadline_exceeded = self._deadline_exceeded
            breaker_rejections = self._breaker_rejections
        return FleetStats(
            replicas=len(self.replicas),
            shards=self.sharding.num_shards,
            policy=self.sharding.name,
            requests=requests,
            single_shard=single,
            scattered=scattered,
            scatter_legs=legs,
            hedges_fired=hedges,
            hedge_wins=hedge_wins,
            failovers=failovers,
            skew_retries=skew_retries,
            promotions=promotions,
            degraded_answers=degraded,
            deadline_exceeded=deadline_exceeded,
            breaker_rejections=breaker_rejections,
            replica_vitals=tuple(self._tracker.vitals()),
            replica_health=tuple(self.health().items()),
        )
