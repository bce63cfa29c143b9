"""Multi-tenant serving: quotas, the tenant registry, and — the
load-bearing property — cross-tenant isolation.

Three things must hold for many corpora to share one engine safely:

* **typed fairness** — a tenant saturating *its own* quota is rejected
  with :class:`TenantOverloadedError` ("you are the noisy one") while a
  tenant timing out purely on global saturation gets the plain
  :class:`ServiceOverloadedError` ("the box is full");
* **isolation by keying** — the same query on two tenants never shares
  a cache entry, a single-flight leader, or a batch slot, and one
  tenant's refresh never rotates another's warm cache;
* **byte-identity of the trivial case** — a one-tenant
  :class:`MultiTenantService` answers exactly like the classic
  single-tenant :class:`ExpertService` over the same artifact.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.esharp import ESharp
from repro.serving import (
    DEFAULT_TENANT,
    ExpertService,
    FairAdmissionController,
    MultiTenantService,
    ServiceConfig,
    ServiceOverloadedError,
    TenantClient,
    TenantOverloadedError,
    TenantQuota,
    TenantRegistry,
    TenantSpec,
    TenantStageError,
    UnknownTenantError,
)
from repro.serving.errors import (
    AdmissionProtocolError,
    ServiceClosedError,
    ServingError,
)


def answer_key(answer):
    """Everything observable about an answer except timings and tenant."""
    return (
        answer.experts,
        tuple(answer.terms),
        answer.matched_domain,
        answer.snapshot_version,
    )


# -- quotas: typed rejection + weighted-fair grants ---------------------------


class TestTenantQuota:
    def test_quota_fields_are_validated(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            TenantQuota(max_in_flight=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            TenantQuota(max_queue_depth=-1)
        with pytest.raises(ValueError, match="weight"):
            TenantQuota(weight=0.0)

    def test_queue_full_rejection_is_tenant_typed(self):
        control = FairAdmissionController(max_in_flight=4)
        control.register("a", TenantQuota(max_in_flight=1, max_queue_depth=0))
        control.acquire("a")
        with pytest.raises(TenantOverloadedError) as info:
            control.acquire("a")
        assert info.value.tenant == "a"
        # the typed rejection is still the plain overload for old callers
        assert isinstance(info.value, ServiceOverloadedError)
        control.release("a")
        stats = {s.tenant: s for s in control.tenant_stats()}
        assert stats["a"].rejected_queue_full == 1
        assert stats["a"].admitted == 1

    def test_tenant_cap_timeout_is_tenant_typed(self):
        control = FairAdmissionController(
            max_in_flight=4, timeout_seconds=0.05
        )
        control.register("a", TenantQuota(max_in_flight=1, max_queue_depth=4))
        control.acquire("a")
        with pytest.raises(TenantOverloadedError) as info:
            control.acquire("a")  # waits, then times out at a's own cap
        assert info.value.tenant == "a"
        control.release("a")
        stats = {s.tenant: s for s in control.tenant_stats()}
        assert stats["a"].rejected_timeout == 1

    def test_global_saturation_timeout_is_plain_overload(self):
        """A tenant under its own quota that times out only because the
        shared capacity is full must NOT be blamed as the noisy one."""
        control = FairAdmissionController(
            max_in_flight=1, timeout_seconds=0.05
        )
        control.register("hog", TenantQuota(max_in_flight=8))
        control.register("meek", TenantQuota(max_in_flight=8))
        control.acquire("hog")
        with pytest.raises(ServiceOverloadedError) as info:
            control.acquire("meek")
        assert not isinstance(info.value, TenantOverloadedError)
        control.release("hog")

    def test_freed_capacity_goes_to_the_weighted_argmin(self):
        """Equal in-flight, different weights: the heavier tenant has
        the lower weighted occupancy and is granted the freed slot."""
        control = FairAdmissionController(
            max_in_flight=3, timeout_seconds=5.0
        )
        control.register("a", TenantQuota(max_in_flight=4, weight=2.0))
        control.register("b", TenantQuota(max_in_flight=4, weight=1.0))
        control.acquire("a")
        control.acquire("b")
        control.acquire("c")  # auto-registered default quota
        admitted = []

        def waiter(tenant):
            control.acquire(tenant)
            admitted.append(tenant)

        threads = [
            threading.Thread(target=waiter, args=(name,), daemon=True)
            for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 2.0
        while control.waiting < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert control.waiting == 2
        control.release("c")  # a: 1/2.0 = 0.5 beats b: 1/1.0 = 1.0
        deadline = time.monotonic() + 2.0
        while len(admitted) < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert admitted == ["a"]
        control.release("b")  # now b's waiter gets in
        for thread in threads:
            thread.join(timeout=2.0)
        assert sorted(admitted) == ["a", "b"]
        for tenant in ("a", "a", "b"):
            control.release(tenant)
        assert control.drain(timeout=1.0) == 0

    def test_release_without_acquire_is_a_protocol_error(self):
        control = FairAdmissionController(max_in_flight=2)
        with pytest.raises(AdmissionProtocolError):
            control.release("ghost")

    def test_drain_tenant_waits_only_its_own_work(self):
        control = FairAdmissionController(max_in_flight=4)
        control.acquire("a")
        assert control.drain_tenant("b", timeout=0.05) == 0
        assert control.drain_tenant("a", timeout=0.05) == 1
        control.release("a")
        assert control.drain_tenant("a", timeout=1.0) == 0

    def test_close_refuses_new_admissions_typed(self):
        control = FairAdmissionController(max_in_flight=2)
        control.close()
        with pytest.raises(ServiceClosedError):
            control.acquire("a")


# -- the registry: lazy load, LRU eviction, pins ------------------------------


class FakeResidentService:
    def __init__(self, name):
        self.name = name
        self.closed = False

    def close(self):
        self.closed = True
        return True


def make_registry(names=("a", "b", "c"), max_resident=None, builds=None):
    specs = [TenantSpec(name, f"/fake/{name}") for name in names]
    built = builds if builds is not None else {}

    def build(spec):
        service = FakeResidentService(spec.name)
        built.setdefault(spec.name, []).append(service)
        return object(), service

    return TenantRegistry(
        specs, build_resident=build, max_resident=max_resident
    )


class TestTenantRegistry:
    def test_tenant_names_are_validated(self):
        with pytest.raises(ValueError, match="invalid tenant name"):
            TenantSpec("no spaces", "/x")
        with pytest.raises(ValueError, match="invalid tenant name"):
            TenantSpec("", "/x")
        with pytest.raises(ValueError, match="duplicate"):
            make_registry(names=("a", "a"))
        with pytest.raises(ValueError, match="at least one"):
            TenantRegistry((), build_resident=lambda spec: (None, None))

    def test_loads_are_lazy_and_cached(self):
        registry = make_registry()
        assert registry.loads == 0 and registry.loaded() == ()
        resident = registry.acquire("a")
        registry.release(resident)
        assert registry.loads == 1 and registry.loaded() == ("a",)
        again = registry.acquire("a")
        registry.release(again)
        assert registry.loads == 1  # warm: no second build
        assert again is resident

    def test_unknown_tenant_is_typed(self):
        registry = make_registry()
        with pytest.raises(UnknownTenantError) as info:
            registry.acquire("zz")
        assert info.value.tenant == "zz"
        assert "a" in info.value.known

    def test_lru_eviction_closes_the_idle_victim(self):
        builds = {}
        registry = make_registry(max_resident=1, builds=builds)
        registry.release(registry.acquire("a"))
        registry.release(registry.acquire("b"))
        assert registry.loaded() == ("b",)
        assert registry.evictions == 1
        assert builds["a"][0].closed  # the victim's service was torn down
        # reloading the evicted tenant builds it again
        registry.release(registry.acquire("a"))
        assert registry.loads == 3

    def test_pinned_residents_are_never_evicted(self):
        registry = make_registry(max_resident=1)
        pinned = registry.acquire("a")  # held across the overflow
        other = registry.acquire("b")
        assert set(registry.loaded()) == {"a", "b"}  # over budget, both pinned
        registry.release(other)
        registry.release(pinned)
        # the next overflow can now evict the (idle) LRU tenant "a"
        registry.release(registry.acquire("c"))
        assert "a" not in registry.loaded()

    def test_dirty_residents_are_never_evicted(self):
        builds = {}
        registry = make_registry(max_resident=1, builds=builds)
        resident = registry.acquire("a")
        registry.mark_dirty("a")
        registry.release(resident)
        registry.release(registry.acquire("b"))
        assert "a" in registry.loaded()  # diverged state is not re-loadable
        assert not builds["a"][0].closed

    def test_release_of_unpinned_resident_is_typed(self):
        registry = make_registry()
        resident = registry.acquire("a")
        registry.release(resident)
        with pytest.raises(ServingError, match="unpinned"):
            registry.release(resident)

    def test_concurrent_cold_acquires_coalesce_on_one_load(self):
        started = threading.Event()
        unblock = threading.Event()
        builds = []

        def build(spec):
            builds.append(spec.name)
            started.set()
            assert unblock.wait(timeout=5.0)
            return object(), FakeResidentService(spec.name)

        registry = TenantRegistry(
            [TenantSpec("a", "/fake/a")], build_resident=build
        )
        residents = []

        def acquire():
            resident = registry.acquire("a")
            residents.append(resident)
            registry.release(resident)

        threads = [
            threading.Thread(target=acquire, daemon=True) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        assert started.wait(timeout=5.0)
        unblock.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert builds == ["a"]  # one warm start, four pins
        assert len(set(id(r) for r in residents)) == 1

    def test_closed_registry_refuses_acquires(self):
        registry = make_registry()
        resident = registry.acquire("a")
        registry.release(resident)
        handed_back = registry.close()
        assert tuple(r.spec.name for r in handed_back) == ("a",)
        with pytest.raises(ServiceClosedError):
            registry.acquire("b")


# -- the multi-tenant service: isolation + byte-identity ----------------------


@pytest.fixture(scope="module")
def tenant_queries(system, system_b):
    from repro.serving.loadgen import candidate_queries

    return {
        "a": candidate_queries(system, 12),
        "b": candidate_queries(system_b, 12),
    }


@pytest.fixture(scope="module")
def multi(tenant_artifacts):
    """A shared two-tenant service for the read-only tests."""
    specs = [
        TenantSpec("a", str(tenant_artifacts["a"])),
        TenantSpec("b", str(tenant_artifacts["b"])),
    ]
    with MultiTenantService(
        specs, ServiceConfig(detection_workers=2)
    ) as service:
        yield service


class TestCrossTenantIsolation:
    def test_answers_are_stamped_with_their_tenant(
        self, multi, tenant_queries
    ):
        assert multi.query("a", tenant_queries["a"][0]).tenant == "a"
        assert multi.query("b", tenant_queries["b"][0]).tenant == "b"

    def test_cache_entries_never_cross_tenants(self, multi, tenant_queries):
        """The same query string on two tenants must miss twice: a hit
        on tenant B seeded by tenant A would be a data leak."""
        query = tenant_queries["a"][1]
        first_a = multi.query("a", query)
        assert not first_a.cache_hit
        assert multi.query("a", query).cache_hit  # warm within the tenant
        first_b = multi.query("b", query)
        assert not first_b.cache_hit  # A's entry is invisible to B
        assert multi.query("b", query).cache_hit
        assert first_b.tenant == "b"

    def test_partial_pools_carry_their_tenant(self, multi, tenant_queries):
        query = tenant_queries["a"][2]
        pool = multi.score_partial("a", query, [(0, query)], limit=15)
        assert pool.tenant == "a"
        assert pool.query  # normalised, non-empty

    def test_submit_resolves_with_the_right_tenant(
        self, multi, tenant_queries
    ):
        futures = [
            multi.submit("a", tenant_queries["a"][3]),
            multi.submit("b", tenant_queries["b"][3]),
        ]
        answers = [future.result(timeout=30) for future in futures]
        assert [answer.tenant for answer in answers] == ["a", "b"]

    def test_concurrent_mixed_traffic_never_leaks(self, multi, tenant_queries):
        """Hammer both tenants with the same query strings concurrently;
        every answer must match its own tenant's reference exactly — a
        coalescing or batching leak would hand one tenant the other's
        experts."""
        reference = {
            tenant: {
                query: answer_key(multi.query(tenant, query))
                for query in tenant_queries[tenant][:4]
            }
            for tenant in ("a", "b")
        }
        failures = []

        def client(tenant):
            try:
                for _ in range(5):
                    for query in tenant_queries[tenant][:4]:
                        answer = multi.query(tenant, query)
                        if answer.tenant != tenant:
                            failures.append((tenant, "tenant", answer.tenant))
                        if answer_key(answer) != reference[tenant][query]:
                            failures.append((tenant, "answer", query))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append((tenant, "error", repr(exc)))

        threads = [
            threading.Thread(target=client, args=(tenant,), daemon=True)
            for tenant in ("a", "b", "a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []

    def test_unknown_tenant_is_typed_everywhere(self, multi):
        with pytest.raises(UnknownTenantError):
            multi.query("ghost", "anything")
        with pytest.raises(UnknownTenantError):
            multi.tenant_version("ghost")
        with pytest.raises(UnknownTenantError):
            TenantClient(multi, "ghost")


class TestTenantScopedRefresh:
    @pytest.fixture
    def fresh_multi(self, tenant_artifacts):
        specs = [
            TenantSpec("a", str(tenant_artifacts["a"])),
            TenantSpec("b", str(tenant_artifacts["b"])),
        ]
        with MultiTenantService(
            specs, ServiceConfig(detection_workers=1)
        ) as service:
            yield service

    def test_refresh_rotates_one_tenant_and_leaves_the_other_warm(
        self, fresh_multi, tenant_queries
    ):
        query = tenant_queries["a"][0]
        fresh_multi.query("a", query)
        assert fresh_multi.query("a", query).cache_hit
        version_a = fresh_multi.tenant_version("a")
        snapshot = fresh_multi.refresh_domains("b")
        assert snapshot.version == fresh_multi.tenant_version("b")
        assert fresh_multi.tenant_version("b") == 2
        # tenant A: version unmoved, cache still warm
        assert fresh_multi.tenant_version("a") == version_a == 1
        assert fresh_multi.query("a", query).cache_hit

    def test_empty_delta_never_rotates_the_warm_cache(
        self, fresh_multi, tenant_queries
    ):
        query = tenant_queries["b"][0]
        fresh_multi.query("b", query)
        fresh_multi.refresh_delta("b", [])
        assert fresh_multi.tenant_version("b") == 1  # no serving change
        assert fresh_multi.query("b", query).cache_hit

    def test_refreshed_tenants_become_dirty_and_uneviictable(
        self, fresh_multi
    ):
        fresh_multi.refresh_delta("a", [])
        resident = {
            r.spec.name: r for r in fresh_multi.registry.residents()
        }
        assert resident["a"].dirty

    def test_stage_then_promote_is_tenant_scoped(
        self, fresh_multi, tenant_artifacts, tmp_path, tenant_queries
    ):
        v2_dir = tmp_path / "a-v2"
        upgraded = ESharp.from_artifact(tenant_artifacts["a"])
        upgraded.refresh_domains()
        upgraded.save_artifact(v2_dir)
        query_b = tenant_queries["b"][1]
        fresh_multi.query("b", query_b)
        staged = fresh_multi.stage("a", str(v2_dir))
        assert staged == 2
        assert fresh_multi.tenant_version("a") == 1  # not flipped yet
        assert fresh_multi.promote("a", expected_version=1) == 2
        assert fresh_multi.tenant_version("a") == 2
        # the other tenant never rotated and stayed cache-warm
        assert fresh_multi.tenant_version("b") == 1
        assert fresh_multi.query("b", query_b).cache_hit

    def test_promote_before_stage_is_typed(self, fresh_multi):
        with pytest.raises(TenantStageError, match="before stage"):
            fresh_multi.promote("a")


class TestSingleTenantByteIdentity:
    def test_one_tenant_service_matches_expert_service(
        self, tenant_artifacts, tenant_queries
    ):
        """The classic single-tenant deployment is the trivial one-tenant
        case of the registry — byte-identical answers, version included."""
        config = ServiceConfig(detection_workers=2)
        with ExpertService(
            ESharp.from_artifact(tenant_artifacts["a"]), config
        ) as single:
            with MultiTenantService(
                [TenantSpec("solo", str(tenant_artifacts["a"]))], config
            ) as multi:
                for query in tenant_queries["a"][:8]:
                    assert answer_key(multi.query("solo", query)) == (
                        answer_key(single.query(query))
                    )

    def test_default_tenant_label_is_preserved(self, system):
        with ExpertService(
            system, ServiceConfig(detection_workers=1)
        ) as service:
            from repro.serving.loadgen import candidate_queries

            answer = service.query(candidate_queries(system, 1)[0])
        assert answer.tenant == DEFAULT_TENANT


class TestTenantObservability:
    def test_health_reports_per_tenant_versions(self, multi, tenant_queries):
        multi.query("a", tenant_queries["a"][0])
        multi.query("b", tenant_queries["b"][0])
        report = multi.health()
        by_name = {entry.tenant: entry for entry in report.tenants}
        assert set(by_name) == {"a", "b"}
        assert by_name["a"].snapshot_version == 1
        assert by_name["b"].snapshot_version == 1
        assert by_name["a"].requests >= 1
        assert 0.0 <= by_name["a"].cache_hit_ratio <= 1.0
        assert report.tenant_version("a") == 1
        assert report.tenant_version("ghost") is None
        assert report.requests == sum(
            entry.requests for entry in report.tenants
        )

    def test_stats_aggregate_and_break_down(self, multi, tenant_queries):
        query = tenant_queries["a"][5]
        multi.query("a", query)
        multi.query("a", query)
        stats = multi.stats()
        by_name = {entry.tenant: entry for entry in stats.tenants}
        assert by_name["a"].cache_hit_ratio > 0.0
        assert stats.requests >= sum(
            entry.requests for entry in stats.tenants
        ) > 0
        round_trip = type(by_name["a"]).from_dict(by_name["a"].to_dict())
        assert round_trip == by_name["a"]

    def test_describe_tenants_lists_cold_and_loaded(self, tenant_artifacts):
        specs = [
            TenantSpec(
                "a",
                str(tenant_artifacts["a"]),
                quota=TenantQuota(max_in_flight=2, weight=2.0),
            ),
            TenantSpec("b", str(tenant_artifacts["b"])),
        ]
        with MultiTenantService(
            specs, ServiceConfig(detection_workers=1)
        ) as service:
            rows = {row["tenant"]: row for row in service.describe_tenants()}
            assert not rows["a"]["loaded"]  # lazy: nothing resident yet
            assert rows["a"]["snapshot_version"] is None
            assert rows["a"]["quota"]["weight"] == 2.0
            assert rows["b"]["quota"] is None
            from repro.serving.loadgen import candidate_queries

            queries = candidate_queries(
                ESharp.from_artifact(tenant_artifacts["a"]), 1
            )
            service.query("a", queries[0])
            rows = {row["tenant"]: row for row in service.describe_tenants()}
            assert rows["a"]["loaded"]
            assert rows["a"]["snapshot_version"] == 1
            assert rows["a"]["admission"]["admitted"] >= 1
            assert not rows["b"]["loaded"]

    def test_max_resident_evicts_idle_tenants_but_serving_stays_warm(
        self, tenant_artifacts, tenant_queries
    ):
        """An evicted-then-reloaded tenant republishes at the same
        artifact version, so its shared-cache entries are still live."""
        specs = [
            TenantSpec("a", str(tenant_artifacts["a"])),
            TenantSpec("b", str(tenant_artifacts["b"])),
        ]
        query = tenant_queries["a"][0]
        with MultiTenantService(
            specs, ServiceConfig(detection_workers=1), max_resident=1
        ) as service:
            service.query("a", query)
            service.query("b", tenant_queries["b"][0])  # evicts idle "a"
            assert service.registry.loaded() == ("b",)
            assert service.registry.evictions == 1
            answer = service.query("a", query)  # reload: warm cache
            assert answer.cache_hit
            assert service.registry.loads == 3


    def test_eviction_never_closes_the_shared_runtime(
        self, tenant_artifacts, tenant_queries
    ):
        """Evicting a tenant closes *its* service, which only borrowed
        the runtime: the survivor keeps answering on the same pools, and
        the host's own ``close()`` tears them down exactly once."""
        specs = [
            TenantSpec("a", str(tenant_artifacts["a"])),
            TenantSpec("b", str(tenant_artifacts["b"])),
        ]
        service = MultiTenantService(
            specs, ServiceConfig(detection_workers=1), max_resident=1
        )
        runtime = service._runtime
        shutdowns = []
        for pool in (runtime.detect_pool, runtime.batch_pool):
            real = pool.shutdown

            def counted(real=real, pool=pool):
                shutdowns.append(pool)
                return real()

            pool.shutdown = counted
        try:
            service.query("a", tenant_queries["a"][0])
            evicted = service.registry.residents()[0].service
            service.query("b", tenant_queries["b"][0])  # evicts idle "a"
            assert service.registry.evictions == 1
            assert evicted._closed and not evicted._owns_runtime
            assert shutdowns == []  # the eviction tore nothing down
            # the survivor answers sync, async (batch pool) and multi-term
            # (detection pool) on the runtime the victim was closed over
            assert not service.query("b", tenant_queries["b"][1]).cache_hit
            answer = service.submit("b", tenant_queries["b"][2]).result(
                timeout=30
            )
            assert answer.tenant == "b"
            pool = service.score_partial(
                "b", "q", list(enumerate(tenant_queries["b"][:4])), limit=3
            )
            assert pool.tenant == "b"
            assert service.stats().detection_pool.submitted >= 4
            # ... and the evicted tenant comes back on it too
            assert service.query("a", tenant_queries["a"][0]).cache_hit
        finally:
            assert service.close() is True
        # one teardown per pool, from the host's close and nobody else's
        assert len(shutdowns) == 2
        assert {id(pool) for pool in shutdowns} == {
            id(runtime.detect_pool),
            id(runtime.batch_pool),
        }
        with pytest.raises(ServiceClosedError):
            service.query("b", tenant_queries["b"][0])


# -- fairness under load ------------------------------------------------------


class TestFairnessUnderLoad:
    def test_saturating_tenant_cannot_starve_the_light_one(
        self, tenant_artifacts, tenant_queries
    ):
        """A heavy tenant flooding past its quota is rejected typed;
        the light tenant keeps answering with bounded latency and zero
        errors."""
        specs = [
            TenantSpec(
                "heavy",
                str(tenant_artifacts["a"]),
                quota=TenantQuota(max_in_flight=2, max_queue_depth=0),
            ),
            TenantSpec(
                "light",
                str(tenant_artifacts["b"]),
                quota=TenantQuota(max_in_flight=4, max_queue_depth=8),
            ),
        ]
        config = ServiceConfig(
            detection_workers=2,
            max_in_flight=8,
            admission_timeout_seconds=5.0,
            cache_capacity=0,  # every request does real work
            single_flight=False,
        )
        rejections = []
        surprises = []
        light_latencies = []
        stop = threading.Event()

        with MultiTenantService(specs, config) as service:
            # warm both tenants before the contest starts
            service.query("heavy", tenant_queries["a"][0])
            service.query("light", tenant_queries["b"][0])

            def hammer():
                index = 0
                while not stop.is_set():
                    query = tenant_queries["a"][index % 8]
                    index += 1
                    try:
                        service.query("heavy", query)
                    except TenantOverloadedError as exc:
                        rejections.append(exc)
                    except Exception as exc:  # noqa: BLE001
                        surprises.append(("heavy", repr(exc)))

            threads = [
                threading.Thread(target=hammer, daemon=True)
                for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            try:
                for round_index in range(15):
                    query = tenant_queries["b"][round_index % 8]
                    start = time.monotonic()
                    try:
                        answer = service.query("light", query)
                    except Exception as exc:  # noqa: BLE001
                        surprises.append(("light", repr(exc)))
                        continue
                    light_latencies.append(time.monotonic() - start)
                    assert answer.tenant == "light"
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)

        assert surprises == []
        assert len(light_latencies) == 15  # the light tenant never failed
        # every rejection blamed the noisy tenant, typed
        assert rejections, "the heavy tenant never hit its quota"
        assert all(exc.tenant == "heavy" for exc in rejections)
        # generous CI-safe bound: quota kept the light tenant responsive
        light_latencies.sort()
        p99 = light_latencies[
            min(len(light_latencies) - 1, int(len(light_latencies) * 0.99))
        ]
        assert p99 < 2.0
