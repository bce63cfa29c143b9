"""The fleet tier: sharding determinism, exact scatter-gather merge,
hedging/failover, CAS snapshot promotion, and both replica transports.

The load-bearing property is **byte-identity**: a router over any number
of replicas, under any sharding policy, must produce exactly the answer
one :class:`ExpertService` produces — same experts, same order, same
scores, same snapshot version.  That property is checked three ways
here: unit tests on the merge's tie-breaking, a hypothesis sweep over
real candidate queries against a live 3-replica fleet, and a subprocess
round-trip proving the wire format preserves it across processes.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.esharp import ESharp
from repro.detector.features import FeatureVector
from repro.detector.normalize import NormalizedFeatures
from repro.detector.ranking import RankedExpert, RankingConfig
from repro.expansion.domainstore import DomainStore
from repro.fleet import (
    ConsistentHashRing,
    DomainPartitionSharding,
    FleetConfig,
    FleetError,
    FleetRouter,
    FleetVersionSkewError,
    InProcessReplica,
    NoHealthyReplicaError,
    PromotionError,
    ReplicaTracker,
    SubprocessReplica,
    TokenHashSharding,
    WorkerProtocolError,
    merge_partials,
    stable_hash,
)
from repro.fleet import wire
from repro.fleet.worker import FleetWorker
from repro.serving.errors import (
    ServiceOverloadedError,
    TenantOverloadedError,
    UnknownTenantError,
)
from repro.serving.quotas import FairAdmissionController
from repro.serving.tenancy import TenantSpec
from repro.serving.service import (
    DEFAULT_TENANT,
    ExpertService,
    PartialPool,
    ReplicaHealthReport,
    ServedAnswer,
    ServiceConfig,
)
from repro.serving.snapshot import SnapshotHolder, StaleSnapshotError
from repro.utils.text import phrase_key


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def artifact_dir(system, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "artifact-v1"
    system.save_artifact(path)
    return path


@pytest.fixture(scope="module")
def artifact_v2_dir(artifact_dir, tmp_path_factory):
    """A second generation derived from the first (version 2)."""
    path = tmp_path_factory.mktemp("fleet") / "artifact-v2"
    upgraded = ESharp.from_artifact(artifact_dir)
    upgraded.refresh_domains()
    upgraded.save_artifact(path)
    return path


@pytest.fixture(scope="module")
def single_service(system):
    with ExpertService(system) as service:
        yield service


@pytest.fixture(scope="module")
def hash_fleet(system, artifact_dir):
    """Three replicas sharing the session system, term-hash sharded —
    the policy under which multi-term expansions genuinely scatter."""
    replicas = [
        InProcessReplica(f"replica-{i}", system) for i in range(3)
    ]
    router = FleetRouter.from_artifact(
        artifact_dir, replicas, sharding="hash"
    )
    yield router
    router.close()


@pytest.fixture(scope="module")
def queries(system):
    from repro.serving.loadgen import candidate_queries

    return candidate_queries(system, 32)


def answer_key(answer):
    """Everything observable about an answer except timings."""
    return (
        answer.experts,
        tuple(answer.terms),
        answer.matched_domain,
        answer.snapshot_version,
    )


# -- sharding -----------------------------------------------------------------


class TestSharding:
    def test_stable_hash_is_processwide_constant(self):
        # SHA-1 prefix, so this value holds across runs, platforms and
        # PYTHONHASHSEED — the property every routing decision rests on
        assert stable_hash("expertise") == 0xB389D89CE852030F
        assert stable_hash("expertise") != stable_hash("Expertise")

    def test_ring_is_deterministic_and_in_range(self):
        a = ConsistentHashRing(4)
        b = ConsistentHashRing(4)
        keys = [f"key-{i}" for i in range(200)]
        owners = [a.owner(k) for k in keys]
        assert owners == [b.owner(k) for k in keys]
        assert set(owners) <= set(range(4))
        assert len(set(owners)) == 4  # 200 keys spread over all shards

    def test_ring_resize_moves_few_keys(self):
        before = ConsistentHashRing(4)
        after = ConsistentHashRing(5)
        keys = [f"key-{i}" for i in range(500)]
        moved = sum(before.owner(k) != after.owner(k) for k in keys)
        # consistent hashing: adding a fifth shard should move roughly
        # 1/5 of the keys, not rehash the world
        assert moved < 250

    def test_plan_partitions_terms_and_keeps_index_order(self):
        policy = TokenHashSharding(3)
        terms = [f"term number {i}" for i in range(20)]
        legs = policy.plan(terms)
        seen = sorted(pair for leg in legs.values() for pair in leg)
        assert seen == list(enumerate(terms))
        for shard, leg in legs.items():
            assert [i for i, _ in leg] == sorted(i for i, _ in leg)
            for _, term in leg:
                assert policy.shard_of_term(term) == shard

    def test_domain_partition_collapses_matched_expansions(self, system):
        store = system.snapshots.get().domain_store
        policy = DomainPartitionSharding.from_store(3, store)
        for domain in store.domains():
            owners = {policy.shard_of_term(k) for k in domain.keywords}
            assert owners == {policy.shard_of_domain(domain.domain_id)}
            # the full-community expansion of any member keyword is the
            # domain's keyword list -> exactly one leg -> one replica
            assert len(policy.plan(list(domain.keywords))) == 1

    def test_hash_sharding_scatters_multi_term_expansions(self):
        policy = TokenHashSharding(4)
        legs = policy.plan([f"distinct term {i}" for i in range(32)])
        assert len(legs) > 1


# -- the merge ----------------------------------------------------------------


def make_expert(user_id: int, score: float) -> RankedExpert:
    return RankedExpert(
        user_id=user_id,
        screen_name=f"user{user_id}",
        description="",
        verified=False,
        followers=100 + user_id,
        score=score,
        features=FeatureVector(user_id, 1.0, 1.0, 1.0),
        zscores=NormalizedFeatures(user_id, score, score, score),
    )


def pool(*entries, version=1, query="q", limit=15):
    return PartialPool(
        query=query,
        snapshot_version=version,
        entries=tuple(entries),
        limit=limit,
    )


class TestMergePartials:
    def test_best_score_per_user_wins(self):
        experts, version = merge_partials(
            [
                pool((0, make_expert(1, 2.0)), (1, make_expert(2, 5.0))),
                pool((2, make_expert(1, 4.0))),
            ],
            threshold=1.0,
            max_results=15,
        )
        assert version == 1
        assert [(e.user_id, e.score) for e in experts] == [(2, 5.0), (1, 4.0)]

    def test_score_tie_breaks_to_lowest_term_index(self):
        early, late = make_expert(1, 3.0), make_expert(1, 3.0)
        late = late._replace(description="from the later term")
        experts, _ = merge_partials(
            [pool((4, late)), pool((2, early))],
            threshold=1.0,
            max_results=15,
        )
        # same score from term index 2 and 4: index 2's entry must win,
        # exactly like the single-replica union's first-term-wins rule
        assert len(experts) == 1
        assert experts[0].description == ""

    def test_ranking_sorts_by_score_then_user_id(self):
        experts, _ = merge_partials(
            [
                pool(
                    (0, make_expert(7, 2.0)),
                    (0, make_expert(3, 2.0)),
                    (0, make_expert(5, 9.0)),
                )
            ],
            threshold=1.0,
            max_results=15,
        )
        assert [e.user_id for e in experts] == [5, 3, 7]

    def test_threshold_is_inclusive_and_cap_applies(self):
        entries = [(0, make_expert(i, float(i))) for i in range(1, 7)]
        experts, _ = merge_partials(
            [pool(*entries)], threshold=3.0, max_results=2
        )
        assert [e.score for e in experts] == [6.0, 5.0]
        experts, _ = merge_partials(
            [pool(*entries)], threshold=3.0, max_results=15
        )
        assert min(e.score for e in experts) == 3.0  # >= not >

    def test_mixed_versions_refuse_to_merge(self):
        with pytest.raises(FleetVersionSkewError):
            merge_partials(
                [
                    pool((0, make_expert(1, 2.0)), version=1),
                    pool((1, make_expert(2, 2.0)), version=2),
                ],
                threshold=1.0,
                max_results=15,
            )


    def test_pool_cut_below_the_merge_cap_is_refused(self):
        shallow = pool((0, make_expert(1, 2.0)), limit=3)
        with pytest.raises(FleetError, match="cut at"):
            merge_partials([shallow], threshold=0.0, max_results=4)
        experts, _ = merge_partials([shallow], threshold=0.0, max_results=3)
        assert len(experts) == 1


# -- top-limit legs lose nothing (the exactness argument as a property) --------

#: few distinct scores, so ties across legs, equal scores at different
#: global indexes and ties straddling the cut all come up constantly
COLLIDING_SCORES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 3.5])


@st.composite
def scatter_cases(draw):
    term_count = draw(st.integers(1, 6))
    pools = []
    for index in range(term_count):
        users = draw(st.lists(st.integers(1, 12), unique=True, max_size=10))
        # the description names the term an entry came from, so equality
        # below also checks *which* term's entry won every tie
        pools.append(
            [
                make_expert(user, draw(COLLIDING_SCORES))._replace(
                    description=f"term {index}"
                )
                for user in users
            ]
        )
    leg_count = draw(st.integers(1, min(4, term_count)))
    owner = [draw(st.integers(0, leg_count - 1)) for _ in range(term_count)]
    limit = draw(st.integers(1, 14))
    return {
        "pools": pools,
        "owner": owner,
        "limit": limit,
        "max_results": draw(st.integers(1, limit)),
        "threshold": draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 9.0])),
        "survivors": draw(
            st.sets(st.sampled_from(sorted(set(owner))), min_size=1)
        ),
    }


class TestTopLimitLegsAreExact:
    @settings(max_examples=200, deadline=None)
    @given(case=scatter_cases())
    def test_cut_legs_merge_like_full_legs_like_one_replica(
        self, case, system, single_service
    ):
        terms = [f"term {index}" for index in range(len(case["pools"]))]
        by_term = dict(zip(terms, case["pools"]))
        snapshot = types.SimpleNamespace(
            version=1,
            detector=types.SimpleNamespace(score=by_term.__getitem__),
        )

        def legs(limit):
            return [
                single_service._compute_partial(
                    snapshot,
                    "q",
                    tuple(
                        (index, term)
                        for index, term in enumerate(terms)
                        if case["owner"][index] == leg
                    ),
                    limit,
                )
                for leg in sorted(case["survivors"])
            ]

        cut = legs(case["limit"])
        assert all(len(leg.entries) <= case["limit"] for leg in cut)
        assert all(leg.limit == case["limit"] for leg in cut)
        # one replica scoring every surviving term, then threshold + cap
        union = system.snapshots.get().pipeline.expander.score_terms(
            "q",
            [
                term
                for index, term in enumerate(terms)
                if case["owner"][index] in case["survivors"]
            ],
            None,
            term_scorer=lambda wanted: [by_term[term] for term in wanted],
        )
        kept = [e for e in union.scored_pool if e.score >= case["threshold"]]
        expected = (tuple(kept[: case["max_results"]]), 1)
        merge = dict(
            threshold=case["threshold"], max_results=case["max_results"]
        )
        assert merge_partials(cut, **merge) == expected
        assert merge_partials(legs(10**6), **merge) == expected

    def test_no_partial_reply_exceeds_its_limit(self, single_service, queries):
        terms = list(enumerate(queries))
        uncut = single_service.score_partial(queries[0], terms, limit=10**6)
        assert len(uncut.entries) > 3  # the cut below really cuts
        for limit in (1, 3):
            cut = single_service.score_partial(queries[0], terms, limit=limit)
            assert cut.limit == limit
            assert cut.entries == uncut.entries[:limit]


# -- scatter-gather == single replica (the headline property) -----------------


class TestScatterGatherEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_router_answers_byte_identical(
        self, data, hash_fleet, single_service, queries
    ):
        query = data.draw(st.sampled_from(queries))
        assert answer_key(hash_fleet.query(query)) == answer_key(
            single_service.query(query)
        )

    def test_unmatched_query_routes_single_shard(
        self, hash_fleet, single_service
    ):
        query = "no such expertise phrase"
        answer = hash_fleet.query(query)
        assert answer.mode == "single-shard"
        assert len(answer.shards) == 1
        assert answer_key(answer) == answer_key(single_service.query(query))

    def test_fleet_actually_scattered(self, hash_fleet, queries):
        for query in queries:
            hash_fleet.query(query)
        stats = hash_fleet.stats()
        assert stats.scattered > 0
        assert stats.scatter_legs > stats.scattered
        assert stats.requests == stats.single_shard + stats.scattered

    def test_degraded_answer_is_exact_over_the_surviving_terms(
        self, system, artifact_dir, queries
    ):
        class LosesShard(InProcessReplica):
            """Every replica refuses the legs of one shard's terms."""

            lost: frozenset = frozenset()

            def score_partial(self, query, indexed_terms, **kwargs):
                indexed_terms = list(indexed_terms)
                if any(term in self.lost for _, term in indexed_terms):
                    raise RuntimeError("this shard is down everywhere")
                return super().score_partial(query, indexed_terms, **kwargs)

        replicas = [LosesShard(f"replica-{i}", system) for i in range(3)]
        router = FleetRouter.from_artifact(
            artifact_dir,
            replicas,
            sharding="hash",
            config=FleetConfig(allow_degraded=True, hedging=False),
        )
        snapshot = system.snapshots.get()
        expander = snapshot.pipeline.expander
        ranking = snapshot.detector.ranking
        degraded = 0
        with router:
            for query in queries:
                terms, domain_id = expander.expand_terms(query)
                plan = router.sharding.plan(terms)
                if len(plan) < 2:
                    continue
                lost_shard = max(plan)
                LosesShard.lost = frozenset(t for _, t in plan[lost_shard])
                answer = router.query(query)
                surviving = [
                    term for term in terms if term not in LosesShard.lost
                ]
                union = expander.score_terms(query, surviving, domain_id)
                kept = [
                    e
                    for e in union.scored_pool
                    if e.score >= ranking.min_zscore
                ]
                assert answer.coverage == len(surviving) / len(terms)
                assert lost_shard not in answer.shards
                assert answer.experts == tuple(kept[: ranking.max_results])
                degraded += 1
        assert degraded > 0

    def test_min_zscore_passthrough(self, hash_fleet, single_service, queries):
        query = queries[0]
        assert answer_key(hash_fleet.query(query, min_zscore=0.1)) == (
            answer_key(single_service.query(query, min_zscore=0.1))
        )


# -- hedging and failover -----------------------------------------------------


class ScriptedReplica:
    """A replica whose latency/failure behaviour the test scripts."""

    kind = "scripted"

    def __init__(self, name, *, delay=0.0, fail=False, version=1):
        self.name = name
        self.delay = delay
        self.fail = fail
        self.version = version
        self.calls = 0

    def _answer(self, query):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError(f"{self.name} scripted failure")
        return ServedAnswer(
            query=query,
            experts=(),
            terms=(query,),
            matched_domain=None,
            snapshot_version=self.version,
            cache_hit=False,
            coalesced=False,
            expansion_seconds=0.0,
            detection_seconds=0.0,
            total_seconds=self.delay,
        )

    def query(self, query, min_zscore=None):
        return self._answer(query)

    def score_partial(self, query, indexed_terms, *, limit):
        answer = self._answer(query)
        return PartialPool(
            query=query,
            snapshot_version=answer.snapshot_version,
            entries=(),
            limit=limit,
        )

    def health(self):
        return ReplicaHealthReport(
            snapshot_version=self.version,
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


def shard_of(router, query):
    return router.sharding.shard_of_term(query)


class TestHedgingAndFailover:
    def test_slow_primary_hedges_to_backup(self):
        fast = ScriptedReplica("fast")
        slow = ScriptedReplica("slow", delay=0.4)
        replicas = [slow, fast]
        router = scripted_router(
            replicas, hedging=True, hedge_default_deadline_seconds=0.02
        )
        with router:
            # a query owned by the slow shard, so the backup must win
            query = next(
                q
                for q in (f"query {i}" for i in range(64))
                if shard_of(router, q) == 0
            )
            started = time.perf_counter()
            answer = router.query(query)
            elapsed = time.perf_counter() - started
            stats = router.stats()
        assert answer.hedges == 1
        assert fast.calls == 1
        assert elapsed < 0.4  # did not wait out the slow primary
        assert stats.hedges_fired == 1
        assert stats.hedge_wins == 1

    def test_failing_primary_fails_over(self):
        broken = ScriptedReplica("broken", fail=True)
        healthy = ScriptedReplica("healthy")
        router = scripted_router([broken, healthy], hedging=False)
        with router:
            query = next(
                q
                for q in (f"query {i}" for i in range(64))
                if shard_of(router, q) == 0
            )
            answer = router.query(query)
            stats = router.stats()
        assert answer.snapshot_version == 1
        assert healthy.calls == 1
        assert stats.failovers == 1

    def test_all_replicas_failing_raises_first_error(self):
        router = scripted_router(
            [ScriptedReplica(f"r{i}", fail=True) for i in range(2)],
            hedging=False,
        )
        with router:
            with pytest.raises(RuntimeError, match="scripted failure"):
                router.query("anything")

    def test_tracker_deadline_and_ranking(self):
        tracker = ReplicaTracker(
            ["a", "b"],
            min_samples=4,
            default_deadline_seconds=0.5,
            min_deadline_seconds=0.001,
        )
        assert tracker.hedge_deadline("a") == 0.5  # too few samples yet
        for _ in range(8):
            tracker.record_success("a", 0.010)
            tracker.record_success("b", 0.100)
        assert tracker.hedge_deadline("a") == pytest.approx(0.010)
        assert tracker.ranked() == ["a", "b"]  # faster median first
        tracker.record_failure("a")
        assert tracker.ranked() == ["b", "a"]  # failure streak dominates
        assert tracker.ranked(exclude={"b"}) == ["a"]
        tracker.record_success("a", 0.010)  # success resets the streak
        assert tracker.ranked() == ["a", "b"]


# -- CAS snapshot publication -------------------------------------------------


class TestSnapshotCAS:
    def test_racing_cas_publishers_have_one_winner(self):
        holder = SnapshotHolder()
        holder.publish(object(), object())  # v1
        barrier = threading.Barrier(8)
        outcomes = []
        lock = threading.Lock()

        def contender():
            barrier.wait()
            try:
                snapshot = holder.publish(
                    object(), object(), expected_version=1
                )
                with lock:
                    outcomes.append(("won", snapshot.version))
            except StaleSnapshotError:
                with lock:
                    outcomes.append(("lost", None))

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wins = [o for o in outcomes if o[0] == "won"]
        assert len(wins) == 1  # exactly one CAS succeeds
        assert wins[0][1] == 2
        assert holder.version == 2

    def test_retrying_publishers_keep_versions_monotonic(self):
        holder = SnapshotHolder()
        holder.publish(object(), object())
        published = []
        lock = threading.Lock()

        def writer():
            while True:
                expected = holder.version
                try:
                    snapshot = holder.publish(
                        object(), object(), expected_version=expected
                    )
                except StaleSnapshotError:
                    continue
                with lock:
                    published.append(snapshot.version)
                return

        threads = [threading.Thread(target=writer) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(published) == list(range(2, 14))
        assert holder.version == 13

    def test_explicit_version_must_advance(self):
        holder = SnapshotHolder()
        holder.publish(object(), object(), version=5)
        with pytest.raises(StaleSnapshotError):
            holder.publish(object(), object(), version=5)
        with pytest.raises(StaleSnapshotError):
            holder.publish(object(), object(), version=3)
        assert holder.publish(object(), object(), version=9).version == 9


# -- two-phase fleet promotion ------------------------------------------------


def fresh_fleet(artifact_dir, count=2):
    replicas = [
        InProcessReplica(f"replica-{i}", ESharp.from_artifact(artifact_dir))
        for i in range(count)
    ]
    return FleetRouter.from_artifact(artifact_dir, replicas)


class TestFleetPromotion:
    def test_promote_rolls_every_replica(self, artifact_dir, artifact_v2_dir):
        with fresh_fleet(artifact_dir) as router:
            before = {
                name: h.snapshot_version for name, h in router.health().items()
            }
            assert set(before.values()) == {1}
            target = router.promote(artifact_v2_dir)
            assert target == 2
            after = {
                name: h.snapshot_version for name, h in router.health().items()
            }
            assert set(after.values()) == {2}
            # answers are stamped with the new generation immediately
            assert router.query("anything").snapshot_version == 2

    def test_preload_failure_flips_nothing(self, artifact_dir, tmp_path):
        with fresh_fleet(artifact_dir) as router:
            with pytest.raises(PromotionError) as excinfo:
                router.promote(tmp_path / "no-such-artifact")
            assert "nothing was flipped" in str(excinfo.value)
            assert all(
                "preload failed" in outcome
                for outcome in excinfo.value.outcomes.values()
            )
            versions = {
                h.snapshot_version for h in router.health().values()
            }
            assert versions == {1}  # phase one failed -> no replica moved

    def test_flip_loses_cas_when_version_moved(
        self, artifact_dir, artifact_v2_dir
    ):
        replica = InProcessReplica(
            "replica-0", ESharp.from_artifact(artifact_dir)
        )
        try:
            replica.preload(artifact_v2_dir)
            with pytest.raises(StaleSnapshotError):
                replica.promote(expected_version=999)
            assert replica.snapshot_version == 1  # CAS loss flips nothing
            assert replica.promote(expected_version=1) == 2
        finally:
            replica.close()

    def test_promote_before_preload_is_typed(self, artifact_dir):
        replica = InProcessReplica(
            "replica-0", ESharp.from_artifact(artifact_dir)
        )
        try:
            with pytest.raises(PromotionError, match="before preload"):
                replica.promote()
        finally:
            replica.close()


# -- wire format and the subprocess transport ---------------------------------


class TestWire:
    def test_expert_and_answer_round_trip_exactly(self, single_service, queries):
        answer = single_service.query(queries[0])
        decoded = wire.answer_from_wire(
            wire.parse_message(
                __import__("json").dumps(wire.answer_to_wire(answer))
            )
        )
        assert decoded == answer

    def test_partial_round_trip(self):
        original = pool((3, make_expert(9, 1.25)), version=4, limit=7)
        assert wire.partial_from_wire(wire.partial_to_wire(original)) == original

    def test_partial_frame_without_a_limit_is_refused(self):
        raw = wire.partial_to_wire(pool((3, make_expert(9, 1.25))))
        for bad in (None, 0, -1, 2.0, "15", True):
            with pytest.raises(WorkerProtocolError, match="limit"):
                wire.partial_from_wire({**raw, "limit": bad})
        del raw["limit"]
        with pytest.raises(WorkerProtocolError, match="limit"):
            wire.partial_from_wire(raw)

    def test_frames_are_capped_in_both_directions(self):
        oversize = "x" * (wire.MAX_FRAME_CHARS + 1)
        with pytest.raises(WorkerProtocolError, match="exceeds"):
            wire.write_message(io.StringIO(), {"id": 1, "ok": oversize})
        # an oversize line is refused the moment the cap is hit, and the
        # stream is back in sync once its tail has gone by
        stream = io.StringIO(oversize + "tail\n" + '{"id":2}\n' + '{"id":3')
        with pytest.raises(WorkerProtocolError, match="exceeds"):
            wire.read_frame(stream)
        assert wire.read_frame(stream) == "tail\n"
        assert wire.parse_message(wire.read_frame(stream)) == {"id": 2}
        # the peer died mid-write
        with pytest.raises(WorkerProtocolError, match="unterminated"):
            wire.read_frame(stream)
        assert wire.read_frame(stream) is None

    def test_typed_errors_survive_the_wire(self):
        from repro.serving.errors import (
            ServiceClosedError,
            ServiceOverloadedError,
        )

        closed = wire.error_from_wire(
            wire.error_to_wire(ServiceClosedError("closed"))
        )
        assert isinstance(closed, ServiceClosedError)
        overloaded = wire.error_from_wire(
            wire.error_to_wire(
                ServiceOverloadedError("busy", in_flight=3, waiting=2)
            )
        )
        assert isinstance(overloaded, ServiceOverloadedError)
        unknown = wire.error_from_wire({"type": "WeirdError", "message": "?"})
        from repro.fleet import RemoteReplicaError

        assert isinstance(unknown, RemoteReplicaError)
        assert unknown.remote_type == "WeirdError"

    def test_a_standalone_overflow_is_still_an_overload_across_the_wire(
        self, system, queries
    ):
        """A standalone service's own queue overflow is tenant-typed
        (``default``); ``except ServiceOverloadedError`` must keep
        catching it on either side of the process boundary."""
        config = ServiceConfig(
            max_in_flight=1, max_queue_depth=0, admission_timeout_seconds=0.2
        )
        with ExpertService(system, config) as service:
            service._admission.acquire(service.tenant)
            try:
                with pytest.raises(ServiceOverloadedError) as caught:
                    service.query(queries[0])
            finally:
                service._admission.release(service.tenant)
        frame = json.loads(json.dumps(wire.error_to_wire(caught.value)))
        decoded = wire.error_from_wire(frame)
        assert isinstance(decoded, ServiceOverloadedError)
        assert isinstance(decoded, TenantOverloadedError)
        assert decoded.tenant == DEFAULT_TENANT

    def test_undecodable_line_is_protocol_error(self):
        from repro.fleet import WorkerProtocolError

        with pytest.raises(WorkerProtocolError):
            wire.parse_message("not json at all")
        with pytest.raises(WorkerProtocolError):
            wire.parse_message("[1, 2, 3]")


class TestSubprocessReplica:
    @pytest.fixture(scope="class")
    def worker(self, artifact_dir):
        replica = SubprocessReplica(
            "worker-0", artifact_dir, detection_workers=1
        )
        yield replica
        replica.close()

    def test_handshake_reports_artifact_version(self, worker):
        assert worker.snapshot_version == 1
        assert worker.ping()

    def test_answers_match_in_process_exactly(
        self, worker, single_service, queries
    ):
        for query in queries[:6]:
            assert answer_key(worker.query(query)) == answer_key(
                single_service.query(query)
            )

    def test_partial_matches_in_process_exactly(
        self, worker, single_service, queries
    ):
        indexed = [(0, queries[0]), (3, queries[1])]
        theirs = worker.score_partial(queries[0], indexed, limit=15)
        ours = single_service.score_partial(queries[0], indexed, limit=15)
        assert theirs == ours

    def test_health_round_trip(self, worker):
        report = worker.health()
        assert report.snapshot_version == 1
        assert report.requests >= 1

    def test_one_artifact_worker_serves_exactly_the_default_tenant(
        self, worker, queries
    ):
        assert worker.tenants == (DEFAULT_TENANT,)
        assert worker.query(queries[0], tenant=DEFAULT_TENANT).tenant == (
            DEFAULT_TENANT
        )
        with pytest.raises(UnknownTenantError) as caught:
            worker.query(queries[0], tenant="ghost")
        assert caught.value.tenant == "ghost"
        with pytest.raises(UnknownTenantError):
            worker.score_partial(
                queries[0], [(0, queries[0])], limit=3, tenant="ghost"
            )
        with pytest.raises(UnknownTenantError):
            worker.preload("anywhere", tenant="ghost")

    def test_partial_reply_frame_carries_at_most_limit_entries(
        self, worker, queries
    ):
        payload = {
            "query": queries[0],
            "terms": [[index, term] for index, term in enumerate(queries)],
        }
        _, future = worker.submit("partial", {**payload, "limit": 2})
        raw = future.result(timeout=30)
        assert raw["limit"] == 2 and len(raw["entries"]) == 2
        # no limit, no answer: the worker refuses the frame, typed
        _, future = worker.submit("partial", payload)
        with pytest.raises(WorkerProtocolError, match="limit"):
            future.result(timeout=30)
        assert worker.ping()  # and keeps serving

    def test_oversize_reply_is_refused_and_retires_the_replica(
        self, artifact_dir, tmp_path
    ):
        # a stand-in worker that answers its first request with a line
        # far past the frame cap and then idles
        script = tmp_path / "chatty-worker"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys, time\n"
            "print('{\"op\": \"ready\", \"version\": 1}', flush=True)\n"
            "sys.stdin.readline()\n"
            f"sys.stdout.write('x' * {3 * wire.MAX_FRAME_CHARS})\n"
            "sys.stdout.flush()\n"
            "time.sleep(60)\n"
        )
        script.chmod(0o755)
        replica = SubprocessReplica(
            "chatty", artifact_dir, python=str(script),
            request_timeout_seconds=20.0,
        )
        try:
            with pytest.raises(WorkerProtocolError, match="exceeds"):
                replica.health()
            # the reader is gone: the replica says so instead of parking
            # requests nobody can resolve
            assert not replica.is_alive()
            started = time.perf_counter()
            with pytest.raises(WorkerProtocolError, match="no longer reading"):
                replica.health()
            assert time.perf_counter() - started < 1.0
        finally:
            replica._process.kill()
            replica.close()


class ScriptedPipe:
    """The worker's two pipe ends in memory: request frames are handed
    out one ``readline`` at a time, and a frame can be held back until a
    given request's reply has been written."""

    def __init__(self, frames):
        #: ``(frame, reply id to wait for first or None)``
        self._frames = list(frames)
        self._rest = ""  # of a frame longer than one bounded readline
        self._replied = threading.Condition()
        self.replies = []

    def readline(self, size=-1):
        if not self._rest:
            if not self._frames:
                return ""
            frame, after = self._frames.pop(0)
            with self._replied:
                assert self._replied.wait_for(
                    lambda: after is None
                    or any(r.get("id") == after for r in self.replies),
                    timeout=30,
                )
            self._rest = frame + "\n"
        cut = len(self._rest) if size < 0 else size
        line, self._rest = self._rest[:cut], self._rest[cut:]
        return line

    def write(self, text):
        with self._replied:
            self.replies.extend(
                json.loads(line) for line in text.splitlines() if line
            )
            self._replied.notify_all()

    def flush(self):
        pass


class TestFleetWorkerLoop:
    def run_worker(self, artifact_dir, frames):
        pipe = ScriptedPipe(frames)
        worker = FleetWorker(
            str(artifact_dir), detection_workers=1, reader=pipe, writer=pipe
        )
        assert worker.run() == 0
        return worker, pipe.replies

    def test_cancel_set_is_empty_once_the_work_is_done(self, artifact_dir):
        ping = json.dumps({"op": "ping", "id": 1})
        cancel = json.dumps({"op": "cancel", "target": 1})
        worker, replies = self.run_worker(
            artifact_dir,
            [
                (ping, None),
                # exactly what SubprocessReplica._call sends on a timeout:
                # a cancel for a request that already ran
                (cancel, 1),
                (json.dumps({"op": "cancel", "target": 99}), None),
                (json.dumps({"op": "ping", "id": 2}), None),
            ],
        )
        assert {"id": 1, "ok": "pong"} in replies
        assert {"id": 2, "ok": "pong"} in replies
        assert worker._cancelled == set() and worker._queued == set()

    def test_bad_request_lines_are_refused_and_the_loop_goes_on(
        self, artifact_dir
    ):
        _, replies = self.run_worker(
            artifact_dir,
            [
                ("x" * (wire.MAX_FRAME_CHARS + 8), None),
                (json.dumps({"op": "ping", "id": [1]}), None),
                (json.dumps({"op": "partial", "id": 3, "query": "q",
                             "terms": [[0, "q"]]}), None),
                (json.dumps({"op": "ping", "id": 4}), None),
            ],
        )
        refused = [
            reply["error"]
            for reply in replies
            if "error" in reply and reply["id"] is None
        ]
        assert "exceeds" in refused[0]["message"]
        assert "undecodable" in refused[1]["message"]  # the oversize tail
        assert [error["type"] for error in refused] == [
            "WorkerProtocolError",
            "WorkerProtocolError",
            "TypeError",  # unhashable request id
        ]
        (no_limit,) = [r for r in replies if r.get("id") == 3]
        assert no_limit["error"]["type"] == "WorkerProtocolError"
        assert {"id": 4, "ok": "pong"} in replies


# -- one host, two spellings ----------------------------------------------------


TIMING_FIELDS = ("expansion_seconds", "detection_seconds", "total_seconds")


def without_timings(frame):
    """A reply frame with the wall-clock fields of an answer zeroed —
    the only bytes of a reply that legitimately differ between runs."""
    payload = frame.get("ok")
    if isinstance(payload, dict):
        payload = {
            key: 0.0 if key in TIMING_FIELDS else value
            for key, value in payload.items()
        }
        frame = {**frame, "ok": payload}
    return json.dumps(frame, separators=(",", ":"))


class TestOneHostTwoSpellings:
    """``--from-artifact DIR`` / ``InProcessReplica(name, system)`` are
    constructors of the one tenant-addressed host, not code paths: the
    same requests get the same bytes back as from ``--tenant
    default=DIR`` / ``tenant_specs=[default]``."""

    def worker_transcript(
        self, monkeypatch, flags, artifact_dir, artifact_v2_dir, queries
    ):
        from repro.cli import main

        def frame(request_id, op, **fields):
            message = {"op": op, "id": request_id, **fields}
            # each request waits for the previous reply: one at a time
            return json.dumps(message), (
                request_id - 1 if request_id > 1 else None
            )

        query, other = queries[0], queries[1]
        pipe = ScriptedPipe(
            [
                frame(1, "query", query=query, min_zscore=None),
                frame(2, "query", query=query, min_zscore=None),
                frame(3, "partial", query=query, limit=5,
                      terms=[[0, query], [1, other]]),
                frame(4, "health"),
                frame(5, "promote", expected_version=1),
                frame(6, "preload", path=str(artifact_v2_dir)),
                frame(7, "promote", expected_version=1),
                frame(8, "health"),
                frame(9, "query", query=query, min_zscore=None,
                      tenant="ghost"),
                frame(10, "partial", query=query, limit=5,
                      terms=[[0, query]], tenant=DEFAULT_TENANT),
            ]
        )
        monkeypatch.setattr(sys, "stdin", pipe)
        monkeypatch.setattr(sys, "stdout", pipe)
        rc = main(["fleet-worker", *flags, "--detection-workers", "1"])
        assert rc == 0
        return [without_timings(reply) for reply in pipe.replies]

    def replica_transcript(self, replica, artifact_v2_dir, queries):
        query, other = queries[0], queries[1]
        steps = [
            lambda: replica.tenants,
            lambda: replica.snapshot_version,
            lambda: replica.query(query),
            lambda: replica.query(query),
            lambda: replica.score_partial(
                query, [(0, query), (1, other)], limit=5
            ),
            lambda: replica.health().to_dict(),
            lambda: replica.promote(expected_version=1),
            lambda: replica.preload(artifact_v2_dir),
            lambda: replica.promote(expected_version=1),
            lambda: replica.snapshot_version,
            lambda: replica.health().to_dict(),
            lambda: replica.query(query, tenant="ghost"),
            lambda: replica.score_partial(
                query, [(0, query)], limit=5, tenant=DEFAULT_TENANT
            ),
        ]
        transcript = []
        try:
            for step in steps:
                try:
                    outcome = step()
                except Exception as exc:  # noqa: BLE001 - part of the surface
                    outcome = (type(exc).__name__, str(exc))
                if isinstance(outcome, ServedAnswer):
                    outcome = (answer_key(outcome), outcome.cache_hit,
                               outcome.tenant)
                transcript.append(outcome)
        finally:
            replica.close()
        return transcript

    @pytest.mark.parametrize("transport", ["worker", "thread"])
    def test_both_spellings_answer_identically(
        self, transport, monkeypatch, artifact_dir, artifact_v2_dir, queries
    ):
        if transport == "worker":
            one_artifact, named = (
                self.worker_transcript(
                    monkeypatch, flags, artifact_dir, artifact_v2_dir,
                    queries,
                )
                for flags in (
                    ["--from-artifact", str(artifact_dir)],
                    ["--tenant", f"{DEFAULT_TENANT}={artifact_dir}"],
                )
            )
            assert json.loads(one_artifact[0]) == {
                "op": "ready", "version": 1, "tenants": [DEFAULT_TENANT],
            }
            replies = [json.loads(line) for line in one_artifact[1:]]
            errors = [
                reply["error"]["type"] for reply in replies if "error" in reply
            ]
            cache_hits = [
                reply["ok"]["cache_hit"] for reply in replies[:2]
            ]
            versions = [replies[3]["ok"], replies[7]["ok"]]
            versions = [report["snapshot_version"] for report in versions]
        else:
            one_artifact, named = (
                self.replica_transcript(replica, artifact_v2_dir, queries)
                for replica in (
                    InProcessReplica(
                        "host", ESharp.from_artifact(artifact_dir)
                    ),
                    InProcessReplica(
                        "host",
                        tenant_specs=[
                            TenantSpec(DEFAULT_TENANT, str(artifact_dir))
                        ],
                    ),
                )
            )
            assert one_artifact[0] == (DEFAULT_TENANT,)
            errors = [
                outcome[0]
                for outcome in one_artifact
                if isinstance(outcome, tuple) and len(outcome) == 2
            ]
            cache_hits = [outcome[1] for outcome in one_artifact[2:4]]
            versions = [one_artifact[1], one_artifact[9]]
        assert one_artifact == named
        # the transcript exercised what it claims to: a cache hit, the
        # promote-before-preload refusal, the flip to v2, the typed
        # unknown-tenant refusal
        assert cache_hits == [False, True]
        assert errors == ["PromotionError", "UnknownTenantError"]
        assert versions == [1, 2]

    def test_a_router_over_one_artifact_refuses_other_tenants_typed(
        self, artifact_dir, system, queries
    ):
        replica = InProcessReplica("replica-0", system)
        router = FleetRouter.from_artifact(artifact_dir, [replica])
        try:
            assert router.tenants() == (DEFAULT_TENANT,)
            assert router.query(queries[0]).tenant == DEFAULT_TENANT
            with pytest.raises(UnknownTenantError):
                router.query(queries[0], tenant="ghost")
            with pytest.raises(PromotionError) as refused:
                router.promote(artifact_dir, tenant="ghost")
            assert "unknown tenant 'ghost'" in (
                refused.value.outcomes["replica-0"]
            )
            assert replica.snapshot_version == 1  # nothing flipped
            # a route the replicas cannot back: the host itself refuses
            single = router._routes[DEFAULT_TENANT]
            router.add_tenant("ghost", single.store, single.ranking)
            with pytest.raises(UnknownTenantError) as caught:
                router.query(queries[0], tenant="ghost")
            assert caught.value.known == (DEFAULT_TENANT,)
        finally:
            router.close()


# -- serving satellites riding along ------------------------------------------


class TestServingSatellites:
    def test_drain_counts_stragglers_exactly(self):
        control = FairAdmissionController(max_in_flight=4)
        control.acquire(DEFAULT_TENANT)
        control.acquire(DEFAULT_TENANT)
        assert control.drain(timeout=0.05) == 2
        control.release(DEFAULT_TENANT)
        assert control.drain(timeout=0.05) == 1
        control.release(DEFAULT_TENANT)
        assert control.drain(timeout=1.0) == 0

    def test_drain_includes_queued_waiters(self):
        control = FairAdmissionController(max_in_flight=1, timeout_seconds=5.0)
        control.acquire(DEFAULT_TENANT)
        entered = threading.Event()

        def waiter():
            entered.set()
            control.acquire(DEFAULT_TENANT)
            control.release(DEFAULT_TENANT)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        entered.wait(timeout=1.0)
        deadline = time.monotonic() + 1.0
        while control.waiting == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert control.drain(timeout=0.05) == 2  # one running, one queued
        control.release(DEFAULT_TENANT)
        thread.join(timeout=2.0)
        assert control.drain(timeout=1.0) == 0

    def test_service_stats_expose_hit_ratio_and_version(
        self, system, queries
    ):
        with ExpertService(system, ServiceConfig(detection_workers=1)) as svc:
            svc.query(queries[0])
            svc.query(queries[0])
            stats = svc.stats()
            report = svc.health()
        assert stats.cache_hit_ratio == pytest.approx(0.5)
        assert report.snapshot_version == system.snapshots.version
        assert report.cache_hit_ratio == pytest.approx(0.5)


class TestServingImportPath:
    def test_serving_processes_never_load_the_relational_engine(self):
        """A worker or a warm-started system imports no SQL engine: it is
        the Figure 4 specification, used only by offline options."""
        import repro

        src = pathlib.Path(repro.__file__).resolve().parent.parent
        probe = (
            "import sys, repro.fleet.worker, repro.core.esharp; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.relational') or m.endswith('sql_runner')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


# -- the CLI front door -------------------------------------------------------


class TestFleetCli:
    def test_fleet_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fleet", "--from-artifact", "somewhere"]
        )
        assert args.replicas == 2
        assert args.sharding == "domain"
        assert not args.process

    def test_fleet_rejects_bad_arguments(self, capsys):
        from repro.cli import main

        rc = main(
            ["fleet", "--from-artifact", "somewhere", "--replicas", "0"]
        )
        assert rc == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_fleet_command_replays_with_injected_replicas(
        self, artifact_dir, system, tmp_path, capsys
    ):
        from repro.cli import build_parser, run_fleet_command

        json_path = tmp_path / "fleet.json"
        args = build_parser().parse_args(
            [
                "fleet",
                "--from-artifact",
                str(artifact_dir),
                "--queries",
                "24",
                "--concurrency",
                "2",
                "--unique",
                "8",
                "--json",
                str(json_path),
            ]
        )
        replicas = [
            InProcessReplica("replica-0", system),
            InProcessReplica("replica-1", system),
        ]
        try:
            rc = run_fleet_command(args, replicas=replicas)
        finally:
            for replica in replicas:
                replica.close()
        assert rc == 0
        out = capsys.readouterr().out
        assert "fleet replay" in out
        assert "routing:" in out
        payload = __import__("json").loads(json_path.read_text())
        assert payload["command"] == "fleet"
        assert payload["report"]["errors"] == 0
        assert payload["fleet"]["replicas"] == 2
