"""Tenancy through the fleet tier: per-tenant routes, the tenant-scoped
promote, the wire protocol, and both replica transports.

The single-tenant fleet property was byte-identity with one
:class:`ExpertService`; the multi-tenant property is byte-identity *per
tenant*: a router over replicas that each serve N corpora must answer
tenant T exactly like a single service over tenant T's artifact — and a
promotion of one tenant must leave every other tenant's version (and
warm cache) untouched on every replica.
"""

from __future__ import annotations

import pytest

from repro.core.esharp import ESharp
from repro.detector.features import FeatureVector
from repro.detector.normalize import NormalizedFeatures
from repro.detector.ranking import RankedExpert
from repro.fleet import (
    FleetConfig,
    FleetRouter,
    FleetTenantMismatchError,
    InProcessReplica,
    ReplicaSupervisor,
    SubprocessReplica,
    SupervisorConfig,
    merge_partials,
    wire,
)
from repro.fleet.errors import FleetError
from repro.serving import (
    DEFAULT_TENANT,
    ExpertService,
    PartialPool,
    ServiceConfig,
    TenantOverloadedError,
    TenantSpec,
    UnknownTenantError,
)


def answer_key(answer):
    return (
        answer.experts,
        tuple(answer.terms),
        answer.matched_domain,
        answer.snapshot_version,
    )


def tenant_specs(tenant_artifacts):
    return [
        TenantSpec("a", str(tenant_artifacts["a"])),
        TenantSpec("b", str(tenant_artifacts["b"])),
    ]


@pytest.fixture(scope="module")
def tenant_queries(system, system_b):
    from repro.serving.loadgen import candidate_queries

    return {
        "a": candidate_queries(system, 12),
        "b": candidate_queries(system_b, 12),
    }


@pytest.fixture(scope="module")
def single_services(system, system_b):
    """Per-tenant single-replica references for byte-identity."""
    config = ServiceConfig(detection_workers=2)
    with ExpertService(system, config) as service_a:
        with ExpertService(system_b, config) as service_b:
            yield {"a": service_a, "b": service_b}


@pytest.fixture(scope="module")
def tenant_fleet(tenant_artifacts):
    """Two in-process replicas, each serving both corpora."""
    replicas = [
        InProcessReplica(
            f"mt-{i}",
            tenant_specs=tenant_specs(tenant_artifacts),
            service_config=ServiceConfig(detection_workers=2),
        )
        for i in range(2)
    ]
    router = FleetRouter.from_tenant_artifacts(
        {name: path for name, path in tenant_artifacts.items()},
        replicas,
        sharding="hash",
    )
    yield router
    router.close()


# -- the replica transports ---------------------------------------------------


class TestMultiTenantReplica:
    def test_replica_serves_each_corpus_byte_identical(
        self, tenant_artifacts, single_services, tenant_queries
    ):
        replica = InProcessReplica(
            "solo", tenant_specs=tenant_specs(tenant_artifacts)
        )
        try:
            assert replica.tenants == ("a", "b")
            for tenant in ("a", "b"):
                for query in tenant_queries[tenant][:4]:
                    assert answer_key(
                        replica.query(query, tenant=tenant)
                    ) == answer_key(single_services[tenant].query(query))
        finally:
            replica.close()

    def test_unknown_tenant_is_typed(self, tenant_artifacts):
        replica = InProcessReplica(
            "solo", tenant_specs=tenant_specs(tenant_artifacts)
        )
        try:
            with pytest.raises(UnknownTenantError):
                replica.query("anything", tenant="ghost")
        finally:
            replica.close()

    def test_single_tenant_replica_rejects_foreign_tenants(self, system):
        replica = InProcessReplica("legacy", system)
        try:
            assert replica.tenants == (DEFAULT_TENANT,)
            with pytest.raises(UnknownTenantError):
                replica.query("anything", tenant="a")
        finally:
            replica.close()

    def test_system_and_tenant_specs_are_mutually_exclusive(
        self, system, tenant_artifacts
    ):
        with pytest.raises(ValueError, match="not both"):
            InProcessReplica(
                "both", system, tenant_specs=tenant_specs(tenant_artifacts)
            )


# -- the router's per-tenant routes -------------------------------------------


class TestTenantRouter:
    def test_router_lists_its_tenants(self, tenant_fleet):
        assert tenant_fleet.tenants() == ("a", "b")

    def test_each_tenant_routes_byte_identical(
        self, tenant_fleet, single_services, tenant_queries
    ):
        for tenant in ("a", "b"):
            for query in tenant_queries[tenant][:6]:
                answer = tenant_fleet.query(query, tenant=tenant)
                assert answer_key(answer) == answer_key(
                    single_services[tenant].query(query)
                )
                # a FleetAnswer encodes like the ServedAnswer it stands
                # for (the fleet benches compare the two as wire bytes)
                assert wire.answer_to_wire(answer)["tenant"] == tenant

    def test_unknown_tenant_fails_before_any_scatter(self, tenant_fleet):
        with pytest.raises(UnknownTenantError):
            tenant_fleet.query("anything", tenant="ghost")

    def test_multi_tenant_router_has_no_default_route(self, tenant_fleet):
        with pytest.raises(UnknownTenantError):
            tenant_fleet.query("anything")

    def test_health_reports_every_tenant_version(
        self, tenant_fleet, tenant_queries
    ):
        tenant_fleet.query(tenant_queries["a"][0], tenant="a")
        for name, report in tenant_fleet.health().items():
            assert report.tenant_version("a") == 1
            assert report.tenant_version("b") == 1


class TestTenantMergeRefusal:
    def entry(self):
        return (
            0,
            RankedExpert(
                user_id=1,
                screen_name="user1",
                description="",
                verified=False,
                followers=101,
                score=5.0,
                features=FeatureVector(1, 1.0, 1.0, 1.0),
                zscores=NormalizedFeatures(1, 5.0, 5.0, 5.0),
            ),
        )

    def test_cross_tenant_pools_never_merge(self):
        pools = [
            PartialPool(
                query="q", snapshot_version=1,
                entries=(self.entry(),), limit=10, tenant="a",
            ),
            PartialPool(
                query="q", snapshot_version=1,
                entries=(self.entry(),), limit=10, tenant="b",
            ),
        ]
        with pytest.raises(FleetTenantMismatchError, match="a.*b"):
            merge_partials(pools, threshold=0.0, max_results=10)

    def test_same_tenant_pools_merge_fine(self):
        pools = [
            PartialPool(
                query="q", snapshot_version=1,
                entries=(self.entry(),), limit=10, tenant="a",
            ),
            PartialPool(
                query="q", snapshot_version=1, entries=(), limit=10,
                tenant="a",
            ),
        ]
        experts, version = merge_partials(
            pools, threshold=0.0, max_results=10
        )
        assert version == 1 and len(experts) == 1


# -- tenant-scoped fleet promotion --------------------------------------------


class TestTenantScopedPromotion:
    @pytest.fixture(scope="class")
    def artifact_a_v2(self, tenant_artifacts, tmp_path_factory):
        path = tmp_path_factory.mktemp("tenancy-fleet") / "a-v2"
        upgraded = ESharp.from_artifact(tenant_artifacts["a"])
        upgraded.refresh_domains()
        upgraded.save_artifact(path)
        return path

    def test_promote_rolls_one_tenant_everywhere_only(
        self, tenant_artifacts, artifact_a_v2, tenant_queries
    ):
        replicas = [
            InProcessReplica(
                f"roll-{i}",
                tenant_specs=tenant_specs(tenant_artifacts),
                service_config=ServiceConfig(detection_workers=1),
            )
            for i in range(2)
        ]
        router = FleetRouter.from_tenant_artifacts(
            dict(tenant_artifacts), replicas, sharding="hash"
        )
        try:
            query_b = tenant_queries["b"][0]
            before = {}
            for replica in replicas:
                before[replica.name] = replica.query(query_b, tenant="b")
                assert replica.query(query_b, tenant="b").cache_hit
            version = router.promote(str(artifact_a_v2), tenant="a")
            assert version == 2
            for replica in replicas:
                report = replica.health()
                assert report.tenant_version("a") == 2
                assert report.tenant_version("b") == 1  # untouched
                # tenant B's cache survived tenant A's promotion
                after = replica.query(query_b, tenant="b")
                assert after.cache_hit
                assert answer_key(after) == answer_key(before[replica.name])
        finally:
            router.close()


# -- the wire protocol --------------------------------------------------------


class TestTenantWire:
    def test_answer_round_trip_keeps_the_tenant(
        self, single_services, tenant_queries
    ):
        answer = single_services["b"].query(tenant_queries["b"][0])
        stamped = type(answer)(**{**answer.__dict__, "tenant": "b"})
        assert wire.answer_from_wire(wire.answer_to_wire(stamped)) == stamped

    def test_legacy_answer_frames_default_the_tenant(self):
        raw = {
            "query": "q", "experts": [], "terms": [],
            "matched_domain": None, "snapshot_version": 3,
            "cache_hit": False, "coalesced": False,
            "expansion_seconds": 0.0, "detection_seconds": 0.0,
            "total_seconds": 0.0,
        }
        assert wire.answer_from_wire(raw).tenant == DEFAULT_TENANT

    def test_partial_round_trip_keeps_the_tenant(self):
        pool = PartialPool(
            query="q", snapshot_version=2, entries=(), limit=10, tenant="a"
        )
        assert wire.partial_from_wire(wire.partial_to_wire(pool)) == pool

    def test_tenant_errors_survive_the_wire(self):
        overloaded = wire.error_from_wire(
            wire.error_to_wire(TenantOverloadedError("a", "queue full"))
        )
        assert isinstance(overloaded, TenantOverloadedError)
        assert overloaded.tenant == "a"
        unknown = wire.error_from_wire(
            wire.error_to_wire(UnknownTenantError("ghost", ("a", "b")))
        )
        assert isinstance(unknown, UnknownTenantError)
        assert unknown.tenant == "ghost"

    def test_health_round_trip_keeps_tenant_breakdown(self, tenant_artifacts):
        replica = InProcessReplica(
            "h", tenant_specs=tenant_specs(tenant_artifacts)
        )
        try:
            replica.preload(str(tenant_artifacts["a"]), tenant="a")
            report = replica.health()
            decoded = wire.health_from_wire(report.to_dict())
            assert decoded == report
            assert decoded.tenant_version("a") == 1
        finally:
            replica.close()


# -- subprocess workers -------------------------------------------------------


class TestSubprocessMultiTenant:
    @pytest.fixture(scope="class")
    def worker(self, tenant_artifacts):
        replica = SubprocessReplica(
            "mtw-0",
            tenants={
                name: str(path) for name, path in tenant_artifacts.items()
            },
            detection_workers=1,
        )
        yield replica
        replica.close()

    def test_handshake_reports_the_tenants(self, worker):
        assert worker.tenants == ("a", "b")
        assert worker.ping()

    def test_each_tenant_matches_in_process(
        self, worker, single_services, tenant_queries
    ):
        for tenant in ("a", "b"):
            for query in tenant_queries[tenant][:3]:
                theirs = worker.query(query, tenant=tenant)
                assert theirs.tenant == tenant
                assert answer_key(theirs) == answer_key(
                    single_services[tenant].query(query)
                )

    def test_partial_legs_are_cut_per_tenant_across_the_boundary(
        self, worker, single_services, tenant_queries
    ):
        for tenant in ("a", "b"):
            terms = list(enumerate(tenant_queries[tenant]))
            query = tenant_queries[tenant][0]
            theirs = worker.score_partial(
                query, terms, limit=3, tenant=tenant
            )
            ours = single_services[tenant].score_partial(
                query, terms, limit=3
            )
            assert theirs.tenant == tenant and len(theirs.entries) == 3
            assert theirs.entries == ours.entries

    def test_unknown_tenant_error_crosses_the_process_boundary(self, worker):
        with pytest.raises(UnknownTenantError):
            worker.query("anything", tenant="ghost")

    def test_artifact_dir_and_tenants_are_mutually_exclusive(
        self, tenant_artifacts
    ):
        with pytest.raises(ValueError, match="exactly one"):
            SubprocessReplica(
                "bad",
                str(tenant_artifacts["a"]),
                tenants={"a": str(tenant_artifacts["a"])},
            )
        with pytest.raises(ValueError, match="exactly one"):
            SubprocessReplica("bad")


# -- chaos scoped to one tenant ----------------------------------------------


class TestTenantScopedChaos:
    def test_fault_plan_breaks_exactly_one_corpus(
        self, tenant_artifacts, tenant_queries
    ):
        """A tenant-matched fault plan crashes tenant A's calls on the
        scheduled count while tenant B's interleaved traffic neither
        fires it nor consumes its budget."""
        from repro.chaos import ChaosCrashError, FaultPlan, FaultSpec, inject

        replica = InProcessReplica(
            "chaos-0",
            tenant_specs=tenant_specs(tenant_artifacts),
            service_config=ServiceConfig(detection_workers=1),
        )
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="replica.call",
                    kind="crash",
                    after_calls=1,
                    times=1,
                    match=(("tenant", "a"), ("op", "query")),
                ),
            )
        )
        inject.install(plan)
        try:
            query_a, query_b = tenant_queries["a"][0], tenant_queries["b"][0]
            assert replica.query(query_a, tenant="a").tenant == "a"
            for _ in range(3):  # foreign traffic must not burn the budget
                assert replica.query(query_b, tenant="b").tenant == "b"
            with pytest.raises(ChaosCrashError):
                replica.query(query_a, tenant="a")
            # the schedule is spent: both tenants serve again
            assert replica.query(query_a, tenant="a").tenant == "a"
            assert replica.query(query_b, tenant="b").tenant == "b"
        finally:
            inject.uninstall()
            replica.close()


# -- the supervisor records what a restarted replica serves -------------------


class FakeRouter:
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


class DeadReplica:
    def __init__(self, name):
        self.name = name
        self.closed = False

    def is_alive(self):
        return False

    def ping(self, timeout=None):
        return False

    def close(self):
        self.closed = True


class TestSupervisorTenantLog:
    def test_restart_log_records_the_replicas_tenants(self, tenant_artifacts):
        router = FakeRouter([DeadReplica("mt-0")])

        def factory():
            return InProcessReplica(
                "mt-0",
                tenant_specs=tenant_specs(tenant_artifacts),
                service_config=ServiceConfig(detection_workers=1),
            )

        supervisor = ReplicaSupervisor(
            router,
            {"mt-0": factory},
            SupervisorConfig(
                probe_timeout_seconds=0.1,
                backoff_initial_seconds=0.0,
                jitter_fraction=0.0,
            ),
        )
        try:
            outcomes = supervisor.check_now()
            assert len(outcomes) == 1 and outcomes[0].ok
            assert outcomes[0].tenants == ("a", "b")
            logged = supervisor.stats().to_dict()["restart_log"]
            assert logged[-1]["tenants"] == ["a", "b"]
        finally:
            supervisor.close()
            router.replica("mt-0").close()


# -- one fleet driver: every flag reaches every spelling ----------------------


class TestFleetCommandOverTenants:
    def fleet(self, tenant_artifacts, tmp_path, *extra):
        import json

        from repro.cli import main

        json_path = tmp_path / "fleet.json"
        rc = main(
            [
                "fleet",
                "--tenant", f"a={tenant_artifacts['a']}",
                "--tenant", f"b={tenant_artifacts['b']}",
                "--queries", "24",
                "--concurrency", "2",
                "--unique", "6",
                "--workers", "1",
                "--json", str(json_path),
                *extra,
            ]
        )
        return rc, json.loads(json_path.read_text())

    def test_supervise_is_honoured_for_tenant_fleets(
        self, tenant_artifacts, tmp_path, capsys
    ):
        """Regression: ``fleet --tenant ... --supervise`` used to run
        unsupervised without saying so."""
        rc, payload = self.fleet(tenant_artifacts, tmp_path, "--supervise")
        assert rc == 0
        assert "supervisor:" in capsys.readouterr().out
        assert payload["supervisor"]["restarts"] == 0
        assert sorted(payload["tenants"]) == ["a", "b"]
        assert all(
            entry["report"]["errors"] == 0
            for entry in payload["tenants"].values()
        )

    def test_chaos_plan_fires_for_the_matched_tenant_only(
        self, tenant_artifacts, tmp_path
    ):
        """Regression: ``fleet --tenant ... --chaos-plan`` used to
        ignore the plan.  One replica, so the injected crash cannot be
        failed over: it surfaces as exactly one error, on tenant A."""
        from repro.chaos import FaultPlan, FaultSpec, inject

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            FaultPlan(
                faults=(
                    FaultSpec(
                        site="replica.call",
                        kind="crash",
                        times=1,
                        match=(("tenant", "a"),),
                    ),
                )
            ).to_json()
        )
        rc, payload = self.fleet(
            tenant_artifacts,
            tmp_path,
            "--replicas", "1",
            "--chaos-plan", str(plan_path),
        )
        assert rc == 1
        assert payload["chaos_plan"] == str(plan_path)
        assert payload["tenants"]["a"]["report"]["errors"] == 1
        assert payload["tenants"]["b"]["report"]["errors"] == 0
        assert inject.active() is None  # uninstalled on the way out


class TestWorkerScoreCacheCapacity:
    def test_the_cap_applies_to_every_tenant(
        self, tenant_artifacts, tenant_queries
    ):
        """Regression: only the ``--from-artifact`` arm used to call
        ``configure_score_cache``; a ``--tenant`` worker silently kept
        the 8192-entry default."""
        import io

        from repro.fleet.worker import FleetWorker

        pipe = io.StringIO()
        worker = FleetWorker(
            tenants={
                name: str(path) for name, path in tenant_artifacts.items()
            },
            detection_workers=1,
            cache_capacity=0,  # every request reaches the detector
            score_cache_capacity=4,
            reader=pipe,
            writer=pipe,
        )
        try:
            for tenant in ("a", "b"):
                for query in tenant_queries[tenant]:
                    worker._dispatch(
                        {"op": "query", "query": query, "tenant": tenant}
                    )
            residents = worker.service.registry.residents()
            assert sorted(r.spec.name for r in residents) == ["a", "b"]
            for resident in residents:
                memo = resident.system.detector.cache_info()
                assert memo.capacity == 4
                assert 0 < memo.size <= 4
                assert memo.evictions > 0  # the cap was actually binding
        finally:
            worker.service.close()
