"""The self-healing layer: circuit breakers, deadline budgets, degraded
answers, and the replica supervisor's restart discipline.

Everything here is deterministic: breakers and the supervisor take an
injectable clock, backoff jitter is turned off where timing is asserted,
and scripted replicas fail exactly where the test says.  The subprocess
end of the same machinery (real SIGKILL, real restarts) lives in
``test_resilience.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.detector.ranking import RankingConfig
from repro.expansion.domainstore import DomainStore, ExpertiseDomain
from repro.fleet import (
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
    FleetConfig,
    FleetError,
    FleetRouter,
    InProcessReplica,
    ReplicaSupervisor,
    ReplicaTracker,
    SupervisorConfig,
    TokenHashSharding,
)
from repro.serving.errors import DeadlineExceededError
from repro.serving.service import (
    ExpertService,
    PartialPool,
    ReplicaHealthReport,
    ServedAnswer,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ScriptedReplica:
    """A replica whose failure behaviour the test scripts exactly."""

    kind = "scripted"

    def __init__(
        self, name, *, delay=0.0, fail=False, fail_terms=(), raise_type=None
    ):
        self.name = name
        self.delay = delay
        self.fail = fail
        self.fail_terms = frozenset(fail_terms)
        self.raise_type = raise_type
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        if self.raise_type is not None:
            raise self.raise_type(f"{self.name} scripted")
        if self.fail:
            raise RuntimeError(f"{self.name} scripted failure")

    def query(self, query, min_zscore=None):
        self._maybe_fail()
        return ServedAnswer(
            query=query,
            experts=(),
            terms=(query,),
            matched_domain=None,
            snapshot_version=1,
            cache_hit=False,
            coalesced=False,
            expansion_seconds=0.0,
            detection_seconds=0.0,
            total_seconds=self.delay,
        )

    def score_partial(self, query, indexed_terms, *, limit):
        self._maybe_fail()
        if any(term in self.fail_terms for _, term in indexed_terms):
            raise RuntimeError(f"{self.name} fails on a scripted term")
        return PartialPool(
            query=query, snapshot_version=1, entries=(), limit=limit
        )

    def health(self):
        return ReplicaHealthReport(
            snapshot_version=1,
            cache_hit_ratio=0.0,
            requests=self.calls,
            partial_requests=0,
            in_flight=0,
            waiting=0,
        )

    def close(self):
        pass


def scripted_router(replicas, **config_kwargs):
    return FleetRouter(
        replicas,
        domain_store=DomainStore([]),
        ranking=RankingConfig(),
        sharding=TokenHashSharding(len(replicas)),
        config=FleetConfig(**config_kwargs),
    )


def query_for_shard(router, shard):
    return next(
        q
        for q in (f"query {i}" for i in range(256))
        if router.sharding.shard_of_term(q) == shard
    )


# -- the breaker state machine -------------------------------------------------


class TestCircuitBreaker:
    def test_trip_cooldown_probe_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=2, cooldown_seconds=10.0),
            clock,
        )
        assert breaker.state == "closed" and breaker.admit()
        breaker.on_failure()
        assert breaker.state == "closed"  # one failure is not a trip
        breaker.on_failure()
        assert breaker.state == "open"
        assert not breaker.admit() and not breaker.available()
        clock.advance(9.0)
        assert not breaker.admit()  # cooldown not yet elapsed
        clock.advance(1.0)
        assert breaker.state == "half-open"
        assert breaker.admit()  # exactly one probe
        assert not breaker.admit() and not breaker.available()
        breaker.on_success()
        assert breaker.state == "closed" and breaker.admit()

    def test_failed_probe_reopens_with_a_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, cooldown_seconds=5.0), clock
        )
        breaker.on_failure()
        clock.advance(5.0)
        assert breaker.admit()
        breaker.on_failure()  # the probe failed
        assert breaker.state == "open"
        clock.advance(4.0)
        assert not breaker.admit()  # the cooldown restarted at the probe
        clock.advance(1.0)
        assert breaker.admit()

    def test_disabled_breaker_always_admits(self):
        breaker = CircuitBreaker(BreakerConfig(enabled=False), FakeClock())
        for _ in range(10):
            breaker.on_failure()
        assert breaker.admit() and breaker.available()

    def test_config_is_validated(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown_seconds"):
            BreakerConfig(cooldown_seconds=-1.0)


class TestTrackerBreakerGates:
    def test_failures_trip_and_select_skips(self):
        clock = FakeClock()
        tracker = ReplicaTracker(
            ["a", "b"],
            breaker=BreakerConfig(failure_threshold=2, cooldown_seconds=60),
            clock=clock,
        )
        assert tracker.admit("a") and tracker.breaker_state("a") == "closed"
        tracker.record_failure("a")
        tracker.record_failure("a")
        assert tracker.breaker_state("a") == "open"
        assert not tracker.admit("a") and not tracker.available("a")
        assert tracker.select() == "b"  # the tripped replica is skipped
        tracker.record_failure("b")
        tracker.record_failure("b")
        assert tracker.select() is None  # everyone is open
        tracker.reset("a")  # a supervisor restarted it
        assert tracker.breaker_state("a") == "closed"
        assert tracker.select() == "a"

    def test_success_closes_the_breaker(self):
        tracker = ReplicaTracker(
            ["a"],
            breaker=BreakerConfig(failure_threshold=1, cooldown_seconds=0),
            clock=FakeClock(),
        )
        tracker.record_failure("a")
        assert tracker.admit("a")  # cooldown 0: immediately half-open
        tracker.record_success("a", 0.01)
        assert tracker.breaker_state("a") == "closed"
        assert tracker.vitals()[0].breaker_state == "closed"


# -- breaker + router integration ----------------------------------------------


class TestRouterBreaker:
    def test_tripped_primary_is_skipped_without_being_called(self):
        broken = ScriptedReplica("broken", fail=True)
        healthy = ScriptedReplica("healthy")
        router = scripted_router(
            [broken, healthy],
            hedging=False,
            breaker=BreakerConfig(failure_threshold=1, cooldown_seconds=60),
        )
        with router:
            query = query_for_shard(router, 0)
            assert router.query(query).snapshot_version == 1  # failover
            calls_after_trip = broken.calls
            assert router.tracker.breaker_state("broken") == "open"
            assert router.query(query).snapshot_version == 1
            stats = router.stats()
        # the second query never touched the tripped replica
        assert broken.calls == calls_after_trip
        assert stats.breaker_rejections == 1
        assert stats.failovers == 1  # only the first query failed over

    def test_every_breaker_open_is_typed(self):
        router = scripted_router(
            [ScriptedReplica("only", fail=True)],
            hedging=False,
            leg_retries=0,
            breaker=BreakerConfig(failure_threshold=1, cooldown_seconds=60),
        )
        with router:
            with pytest.raises(RuntimeError, match="scripted failure"):
                router.query("anything")
            with pytest.raises(CircuitOpenError, match="circuit breaker"):
                router.query("anything")
            assert router.stats().breaker_rejections == 1


# -- deadline budgets ----------------------------------------------------------


class TestDeadlineBudgets:
    def test_slow_replica_misses_the_budget_typed(self):
        slow = ScriptedReplica("slow", delay=0.5)
        router = scripted_router([slow], hedging=False)
        with router:
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError, match="budget"):
                router.query("anything", deadline_seconds=0.05)
            elapsed = time.perf_counter() - started
            stats = router.stats()
        assert elapsed < 0.4  # did not wait out the slow replica
        assert stats.deadline_exceeded == 1

    def test_config_deadline_applies_fleet_wide(self):
        slow = ScriptedReplica("slow", delay=0.5)
        router = scripted_router(
            [slow], hedging=False, deadline_seconds=0.05
        )
        with router:
            with pytest.raises(DeadlineExceededError):
                router.query("anything")

    def test_deadline_miss_is_terminal_no_failover(self):
        # a replica that *reports* a spent budget must not be retried
        # elsewhere: the budget is end-to-end, not per-replica
        miss = ScriptedReplica("miss", raise_type=DeadlineExceededError)
        backup = ScriptedReplica("backup")
        router = scripted_router([miss, backup], hedging=False)
        with router:
            query = query_for_shard(router, 0)
            with pytest.raises(DeadlineExceededError):
                router.query(query)
            stats = router.stats()
        assert backup.calls == 0
        assert stats.deadline_exceeded == 1
        assert stats.failovers == 0

    def test_service_rejects_spent_budget_before_computing(self, system):
        with ExpertService(system) as service:
            with pytest.raises(DeadlineExceededError, match="budget"):
                service.query("anything", budget_seconds=0.0)
            with pytest.raises(DeadlineExceededError):
                service.score_partial(
                    "anything",
                    [(0, "anything")],
                    limit=15,
                    budget_seconds=0.0,
                )

    def test_inprocess_replica_propagates_budget(self, system):
        replica = InProcessReplica("r0", system)
        router = scripted_router([replica], hedging=False)
        with router:
            with pytest.raises(DeadlineExceededError):
                router.query("anything", deadline_seconds=1e-9)
            assert router.stats().deadline_exceeded == 1

    def test_deadline_config_is_validated(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            FleetConfig(deadline_seconds=0.0)
        with pytest.raises(ValueError, match="leg_retries"):
            FleetConfig(leg_retries=-1)


# -- degraded answers ----------------------------------------------------------


def scatter_fixture(shards=2):
    """A domain whose expansion genuinely scatters over shards 0 and 1
    (of ``shards``: any replica past the second is a pure spare)."""
    policy = TokenHashSharding(shards)
    terms = [f"keyword number {i}" for i in range(96)]
    shard0 = [t for t in terms if policy.shard_of_term(t) == 0][:2]
    shard1 = [t for t in terms if policy.shard_of_term(t) == 1][:2]
    keywords = tuple(shard0 + shard1)
    store = DomainStore([ExpertiseDomain("d-scatter", keywords)])
    return store, policy, shard0, shard1


def scatter_router(replicas, store, policy, **config_kwargs):
    return FleetRouter(
        replicas,
        domain_store=store,
        ranking=RankingConfig(),
        sharding=policy,
        config=FleetConfig(**config_kwargs),
    )


class TestDegradedAnswers:
    def test_lost_leg_degrades_when_allowed(self):
        store, policy, shard0, shard1 = scatter_fixture()
        # the shard-1 terms fail on EVERY replica, so that leg exhausts
        # its failovers; the shard-0 leg survives
        replicas = [
            ScriptedReplica(f"r{i}", fail_terms=shard1) for i in range(2)
        ]
        router = scatter_router(
            replicas, store, policy, hedging=False, allow_degraded=True
        )
        with router:
            answer = router.query(shard0[0])
            stats = router.stats()
        assert answer.mode == "scatter-gather"
        assert answer.coverage == pytest.approx(
            len(shard0) / (len(shard0) + len(shard1))
        )
        assert answer.shards == (0,)
        assert stats.degraded_answers == 1

    def test_default_remains_fail_loud(self):
        store, policy, shard0, shard1 = scatter_fixture()
        replicas = [
            ScriptedReplica(f"r{i}", fail_terms=shard1) for i in range(2)
        ]
        router = scatter_router(replicas, store, policy, hedging=False)
        with router:
            with pytest.raises(RuntimeError, match="scripted term"):
                router.query(shard0[0])
            assert router.stats().degraded_answers == 0

    def test_full_coverage_answers_are_not_marked(self):
        store, policy, shard0, shard1 = scatter_fixture()
        replicas = [ScriptedReplica(f"r{i}") for i in range(2)]
        router = scatter_router(
            replicas, store, policy, hedging=False, allow_degraded=True
        )
        with router:
            answer = router.query(shard0[0])
        assert answer.coverage == 1.0
        assert answer.shards == (0, 1)


# -- two legs through one gather loop ------------------------------------------


def two_leg_fixture():
    """Two legs per query, with replica 2 idle as a backup."""
    return scatter_fixture(shards=3)


class TestTwoLegGather:
    def test_each_leg_hedges_exactly_once(self):
        store, policy, shard0, _ = two_leg_fixture()
        # every replica is slow, so a second backup would be tempting
        replicas = [ScriptedReplica(f"r{i}", delay=0.25) for i in range(3)]
        router = scatter_router(
            replicas,
            store,
            policy,
            hedging=True,
            hedge_default_deadline_seconds=0.02,
        )
        with router:
            started = time.perf_counter()
            answer = router.query(shard0[0])
            elapsed = time.perf_counter() - started
            stats = router.stats()
        assert answer.mode == "scatter-gather" and answer.coverage == 1.0
        assert answer.hedges == 2 and stats.hedges_fired == 2
        # two primaries + one backup per leg, and the legs overlapped
        assert sum(replica.calls for replica in replicas) == 4
        assert elapsed < 0.45

    def test_fast_leg_does_not_wait_for_the_other_legs_hedge(self):
        store, policy, shard0, _ = two_leg_fixture()
        slow = ScriptedReplica("r0", delay=0.3)
        replicas = [slow, ScriptedReplica("r1"), ScriptedReplica("r2")]
        router = scatter_router(
            replicas,
            store,
            policy,
            hedging=True,
            hedge_default_deadline_seconds=0.02,
        )
        with router:
            started = time.perf_counter()
            answer = router.query(shard0[0])
            elapsed = time.perf_counter() - started
            stats = router.stats()
        # only the slow leg hedged, and its backup won
        assert answer.hedges == 1
        assert stats.hedges_fired == 1 and stats.hedge_wins == 1
        assert elapsed < 0.3

    @pytest.mark.parametrize("leg_retries", [0, 1, 2])
    def test_failover_is_bounded_per_leg(self, leg_retries):
        store, policy, shard0, shard1 = two_leg_fixture()
        # the shard-1 terms fail everywhere: that leg burns its retries
        # while the shard-0 leg is answered by its primary, once
        replicas = [
            ScriptedReplica(f"r{i}", fail_terms=shard1) for i in range(3)
        ]
        router = scatter_router(
            replicas,
            store,
            policy,
            hedging=False,
            allow_degraded=True,
            leg_retries=leg_retries,
        )
        with router:
            answer = router.query(shard0[0])
        assert answer.shards == (0,) and answer.coverage == 0.5
        assert sum(r.calls for r in replicas) == 1 + 1 + leg_retries

    def test_deadline_miss_on_one_leg_is_terminal(self):
        store, policy, shard0, _ = two_leg_fixture()
        miss = ScriptedReplica("r1", raise_type=DeadlineExceededError)
        spare = ScriptedReplica("r2")
        router = scatter_router(
            [ScriptedReplica("r0"), miss, spare],
            store,
            policy,
            hedging=False,
        )
        with router:
            with pytest.raises(DeadlineExceededError):
                router.query(shard0[0])
            stats = router.stats()
        assert miss.calls == 1 and spare.calls == 0  # no failover
        assert stats.deadline_exceeded == 1 and stats.failovers == 0

    def test_spent_budget_ends_both_legs_typed(self):
        store, policy, shard0, _ = two_leg_fixture()
        replicas = [ScriptedReplica(f"r{i}", delay=0.5) for i in range(3)]
        router = scatter_router(replicas, store, policy, hedging=False)
        with router:
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError, match="budget"):
                router.query(shard0[0], deadline_seconds=0.05)
            elapsed = time.perf_counter() - started
            stats = router.stats()
        assert elapsed < 0.4  # did not wait out the slow replicas
        assert stats.deadline_exceeded == 2  # one typed miss per leg

    def test_gather_creates_no_thread_per_query(self, monkeypatch):
        import threading

        store, policy, shard0, _ = two_leg_fixture()
        replicas = [ScriptedReplica(f"r{i}") for i in range(3)]
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        with scatter_router(replicas, store, policy) as router:
            for _ in range(20):
                assert router.query(shard0[0]).mode == "scatter-gather"
        # the leaf executor grows lazily towards its fixed size; nothing
        # else on the query path may start a thread
        assert all(name.startswith("repro-fleet_") for name in started)
        assert len(started) <= router._executor._max_workers


# -- replica replacement (the supervisor's router hook) ------------------------


class TestReplaceReplica:
    def test_replacement_resets_history_and_breaker(self):
        router = scripted_router(
            [ScriptedReplica("r0"), ScriptedReplica("r1")],
            breaker=BreakerConfig(failure_threshold=1, cooldown_seconds=60),
        )
        with router:
            router.tracker.record_failure("r0")
            assert router.tracker.breaker_state("r0") == "open"
            fresh = ScriptedReplica("r0")
            router.replace_replica("r0", fresh)
            assert router.replica("r0") is fresh
            assert router.tracker.breaker_state("r0") == "closed"
            assert router.query(query_for_shard(router, 0)).snapshot_version == 1

    def test_name_mismatch_and_unknown_slot_are_typed(self):
        router = scripted_router([ScriptedReplica("r0")])
        with router:
            with pytest.raises(FleetError, match="slot"):
                router.replace_replica("r0", ScriptedReplica("other"))
            with pytest.raises(FleetError, match="unknown replica"):
                router.replace_replica("ghost", ScriptedReplica("ghost"))
            with pytest.raises(FleetError, match="unknown replica"):
                router.replica("ghost")


# -- the supervisor ------------------------------------------------------------


class FakeReplica:
    def __init__(self, name, alive=True):
        self.name = name
        self.alive = alive
        self.closed = False

    def is_alive(self):
        return self.alive

    def ping(self, timeout=None):
        return self.alive

    def close(self):
        self.closed = True
        self.alive = False


class FakeRouter:
    """Just the two hooks the supervisor uses."""

    def __init__(self, replicas):
        self._by_name = {r.name: r for r in replicas}
        self.replaced = []

    def replica(self, name):
        if name not in self._by_name:
            raise FleetError(f"unknown replica {name!r}")
        return self._by_name[name]

    def replace_replica(self, name, replica):
        self._by_name[name] = replica
        self.replaced.append(name)


def supervisor_config(**kwargs):
    defaults = dict(
        probe_timeout_seconds=0.1,
        backoff_initial_seconds=0.0,
        jitter_fraction=0.0,
    )
    defaults.update(kwargs)
    return SupervisorConfig(**defaults)


class TestReplicaSupervisor:
    def test_unknown_factory_name_fails_fast(self):
        router = FakeRouter([FakeReplica("r0")])
        with pytest.raises(FleetError, match="unknown replica"):
            ReplicaSupervisor(router, {"ghost": lambda: FakeReplica("ghost")})
        with pytest.raises(ValueError, match="at least one"):
            ReplicaSupervisor(router, {})

    def test_healthy_fleet_needs_no_restarts(self):
        router = FakeRouter([FakeReplica("r0"), FakeReplica("r1")])
        supervisor = ReplicaSupervisor(
            router,
            {name: (lambda n=name: FakeReplica(n)) for name in ("r0", "r1")},
            supervisor_config(),
            clock=FakeClock(),
        )
        assert supervisor.check_now() == []
        stats = supervisor.stats()
        assert stats.checks == 1 and stats.restarts == 0
        assert all(slot.state == "healthy" for slot in stats.slots)

    def test_dead_replica_is_restarted_and_swapped_in(self):
        dead = FakeReplica("r0", alive=False)
        router = FakeRouter([dead])
        supervisor = ReplicaSupervisor(
            router,
            {"r0": lambda: FakeReplica("r0")},
            supervisor_config(),
            clock=FakeClock(),
        )
        outcomes = supervisor.check_now()
        assert len(outcomes) == 1 and outcomes[0].ok
        assert router.replaced == ["r0"]
        assert router.replica("r0").is_alive()
        assert dead.closed  # the corpse was closed before the swap
        stats = supervisor.stats()
        assert stats.restarts == 1 and stats.failed_restarts == 0
        assert stats.slots[0].state == "healthy"
        assert stats.slots[0].last_recovery_seconds is not None
        assert supervisor.check_now() == []  # stable afterwards

    def test_failed_restarts_back_off_exponentially(self):
        clock = FakeClock()
        router = FakeRouter([FakeReplica("r0", alive=False)])

        def broken_factory():
            raise RuntimeError("artifact is gone")

        supervisor = ReplicaSupervisor(
            router,
            {"r0": broken_factory},
            supervisor_config(
                backoff_initial_seconds=1.0,
                backoff_multiplier=2.0,
                restart_budget=10,
            ),
            clock=clock,
        )
        assert len(supervisor.check_now()) == 1  # attempt 1 fails
        assert supervisor.check_now() == []  # inside backoff: no attempt
        clock.advance(1.01)
        assert len(supervisor.check_now()) == 1  # attempt 2 fails
        clock.advance(1.01)
        assert supervisor.check_now() == []  # backoff doubled to 2s
        clock.advance(1.01)
        assert len(supervisor.check_now()) == 1  # attempt 3
        stats = supervisor.stats()
        assert stats.failed_restarts == 3 and stats.restarts == 0
        assert stats.slots[0].state == "down"
        assert "artifact is gone" in stats.slots[0].last_error

    def test_restart_budget_gives_up_then_recovery_clears_it(self):
        clock = FakeClock()
        replica = FakeReplica("r0", alive=False)
        router = FakeRouter([replica])

        def broken_factory():
            raise RuntimeError("still broken")

        supervisor = ReplicaSupervisor(
            router,
            {"r0": broken_factory},
            supervisor_config(restart_budget=2),
            clock=clock,
        )
        assert len(supervisor.check_now()) == 1
        assert len(supervisor.check_now()) == 1  # budget spent
        assert supervisor.check_now() == []  # over budget: gave up
        stats = supervisor.stats()
        assert stats.gave_up == 1
        assert stats.slots[0].state == "gave-up"
        assert supervisor.check_now() == []  # stays given-up, no churn
        replica.alive = True  # an operator fixed it out of band
        supervisor.check_now()
        assert supervisor.stats().slots[0].state == "healthy"

    def test_poll_loop_runs_and_stops(self):
        router = FakeRouter([FakeReplica("r0")])
        supervisor = ReplicaSupervisor(
            router,
            {"r0": lambda: FakeReplica("r0")},
            SupervisorConfig(
                poll_interval_seconds=0.01, probe_timeout_seconds=0.1
            ),
        )
        with supervisor:
            deadline = time.monotonic() + 5.0
            while (
                supervisor.stats().checks == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert supervisor.stats().checks >= 1
        supervisor.close()  # idempotent

    def test_config_is_validated(self):
        with pytest.raises(ValueError, match="poll_interval"):
            SupervisorConfig(poll_interval_seconds=0.0)
        with pytest.raises(ValueError, match="jitter_fraction"):
            SupervisorConfig(jitter_fraction=1.0)
        with pytest.raises(ValueError, match="restart_budget"):
            SupervisorConfig(restart_budget=0)
        with pytest.raises(ValueError, match="backoff_multiplier"):
            SupervisorConfig(backoff_multiplier=0.5)
