"""The concurrent serving engine end to end.

Uses a module-private built system (not the shared session fixture)
because the rolling-refresh tests publish new snapshots — semantically
identical, but better isolated from tests that pin artifact identity.
"""

import threading
import time

import pytest

from repro.core.esharp import ESharp
from repro.serving.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    TenantOverloadedError,
)
from repro.serving.loadgen import (
    LoadGenerator,
    WorkloadConfig,
    build_workload,
    candidate_queries,
    run_serve,
)
from repro.serving.service import (
    DEFAULT_TENANT,
    ExpertService,
    ServiceConfig,
    ServingRuntime,
)


@pytest.fixture(scope="module")
def served_system(small_config) -> ESharp:
    return ESharp(small_config).build()


@pytest.fixture()
def service(served_system):
    svc = served_system.serve()
    yield svc
    svc.close()


def _expert_ids(answer):
    return [expert.user_id for expert in answer.experts]


class TestExpertServiceBasics:
    def test_requires_built_system(self, small_config):
        with pytest.raises(ValueError):
            ExpertService(ESharp(small_config))

    def test_parity_with_the_facade(self, served_system, service):
        query = candidate_queries(served_system, 1)[0]
        expected = [e.user_id for e in served_system.find_experts(query)]
        answer = service.query(query)
        assert _expert_ids(answer) == expected
        assert answer.snapshot_version == served_system.snapshots.version
        assert answer.terms and answer.terms[0]

    def test_repeat_query_hits_the_cache(self, service):
        query = candidate_queries(service.system, 1)[0]
        first = service.query(query)
        second = service.query(query)
        assert not first.cache_hit
        assert second.cache_hit
        assert _expert_ids(first) == _expert_ids(second)
        info = service.cache_info()
        assert info.hits >= 1
        stats = service.stats()
        assert stats.cache.hits + stats.cache.misses == stats.requests

    def test_threshold_is_part_of_the_cache_key(self, service):
        query = candidate_queries(service.system, 1)[0]
        strict = service.query(query)
        lenient = service.query(query, min_zscore=-100.0)
        assert not lenient.cache_hit            # different key, not a stale hit
        assert len(lenient.experts) >= len(strict.experts)

    def test_unmatched_query_degrades_gracefully(self, service):
        answer = service.query("zz unmatchable phrase zz")
        assert answer.experts == ()
        assert answer.matched_domain is None

    def test_submit_and_query_many(self, service):
        queries = candidate_queries(service.system, 3)
        future = service.submit(queries[0])
        assert future.result(timeout=30).query == queries[0]
        answers = service.query_many(queries * 2)
        assert [a.query for a in answers] == queries * 2

    def test_overload_rejection_is_typed(self, served_system):
        config = ServiceConfig(
            max_in_flight=1, max_queue_depth=0, admission_timeout_seconds=0.2
        )
        with served_system.serve(config) as svc:
            query = candidate_queries(served_system, 1)[0]
            svc._admission.acquire(svc.tenant)  # occupy the only slot
            try:
                with pytest.raises(ServiceOverloadedError) as caught:
                    svc.query(query)
            finally:
                svc._admission.release(svc.tenant)
            # the standalone service is the one-tenant registration: its
            # own overflow is tenant-typed, and still a plain overload
            assert isinstance(caught.value, TenantOverloadedError)
            assert caught.value.tenant == DEFAULT_TENANT == svc.tenant
            assert svc.query(query).query == query
            assert svc.stats().admission.rejected == 1

    def test_closed_service_refuses_work(self, served_system):
        svc = served_system.serve()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.query("anything")
        with pytest.raises(ServiceClosedError):
            svc.submit("anything")
        with pytest.raises(ServiceClosedError):
            svc.refresh_domains()
        with pytest.raises(ServiceClosedError):
            svc.refresh_delta([])


class TestRuntimeOwnership:
    def test_a_standalone_service_owns_and_closes_its_runtime(
        self, served_system
    ):
        svc = served_system.serve()
        assert svc.tenant == DEFAULT_TENANT and svc._owns_runtime
        assert svc.close() is True
        with pytest.raises(ServiceClosedError):
            svc._runtime.detect_pool.submit(lambda: None)

    def test_a_borrowed_runtime_outlives_the_service(self, served_system):
        """Two tenants of one runtime: keyed apart, and closing one
        drains only itself — the other keeps serving on the same pools."""
        query = candidate_queries(served_system, 1)[0]
        runtime = ServingRuntime(ServiceConfig(detection_workers=1))
        try:
            first = ExpertService(served_system, tenant="x", runtime=runtime)
            second = ExpertService(served_system, tenant="y", runtime=runtime)
            assert first.config is runtime.config
            assert not first.query(query).cache_hit
            assert not second.query(query).cache_hit  # x's entry is not y's
            assert second.query(query).cache_hit
            assert first.close() is True
            with pytest.raises(ServiceClosedError):
                first.query(query)
            assert second.query(query).cache_hit
            assert second.submit(query).result(timeout=30).tenant == "y"
            assert second.stats().admission.admitted >= 4  # shared gate
        finally:
            assert runtime.close() is True

    def test_config_and_runtime_are_mutually_exclusive(self, served_system):
        runtime = ServingRuntime()
        try:
            with pytest.raises(ValueError, match="not both"):
                ExpertService(
                    served_system, ServiceConfig(), runtime=runtime
                )
        finally:
            runtime.close()


class TestRollingRefresh:
    CLIENTS = 8
    REFRESHES = 2

    def test_hammer_during_rolling_refresh(self, served_system):
        """≥8 threads query while a background thread swaps snapshots.

        Asserts: no exceptions, snapshot versions only move forward
        within each thread, every probe keeps its (identical) non-empty
        answer across generations, and the cache counters close.
        """
        probes = [
            q
            for q in candidate_queries(served_system, 32)
            if served_system.find_experts(q)
        ][:6]
        assert len(probes) >= 3, "world too small to pick serving probes"

        config = ServiceConfig(max_in_flight=32, max_queue_depth=256)
        errors: list = []
        observations: dict[int, list] = {i: [] for i in range(self.CLIENTS)}
        stop = threading.Event()
        version_start = served_system.snapshots.version

        with served_system.serve(config) as svc:
            def client(slot: int) -> None:
                i = 0
                while not stop.is_set():
                    query = probes[(slot + i) % len(probes)]
                    i += 1
                    try:
                        answer = svc.query(query)
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        errors.append(exc)
                        return
                    observations[slot].append(
                        (answer.snapshot_version, query, _expert_ids(answer))
                    )
                    # pace the loop: cache hits are so fast that 8 spinning
                    # clients would GIL-starve the refresher for minutes
                    time.sleep(0.001)

            def refresher() -> None:
                try:
                    for _ in range(self.REFRESHES):
                        svc.refresh_domains()   # same config → same domains
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                finally:
                    stop.set()

            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(self.CLIENTS)
            ]
            threads.append(threading.Thread(target=refresher, daemon=True))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(t.is_alive() for t in threads)

            assert errors == []

            seen = [obs for slot in observations.values() for obs in slot]
            assert seen, "clients never got a request through"
            # deterministic tail reads: the final generation must serve too
            for query in probes:
                answer = svc.query(query)
                seen.append(
                    (answer.snapshot_version, query, _expert_ids(answer))
                )
            versions = {version for version, _, _ in seen}
            # the swap really happened, and the service kept answering
            assert max(versions) == version_start + self.REFRESHES
            # versions never go backwards within one thread (no stale mix)
            for slot_obs in observations.values():
                slot_versions = [version for version, _, _ in slot_obs]
                assert slot_versions == sorted(slot_versions)
            # a query that succeeded before the swap never turns empty,
            # and identical configs reproduce identical answers
            per_probe: dict[str, set] = {}
            for _, query, ids in seen:
                per_probe.setdefault(query, set()).add(tuple(ids))
            for query, answers in per_probe.items():
                assert len(answers) == 1, f"{query!r} changed across snapshots"
                assert next(iter(answers)), f"{query!r} went empty"

            stats = svc.stats()
            assert stats.cache.hits + stats.cache.misses == stats.requests
            assert stats.admission.rejected == 0

    def test_refresh_returns_new_snapshot_and_invalidates_keys(
        self, served_system
    ):
        with served_system.serve() as svc:
            query = candidate_queries(served_system, 1)[0]
            before = svc.query(query)
            snapshot = svc.refresh_domains()
            assert snapshot.version == before.snapshot_version + 1
            after = svc.query(query)
            assert not after.cache_hit          # version is part of the key
            assert after.snapshot_version == snapshot.version
            assert _expert_ids(after) == _expert_ids(before)

    def test_refresh_latency_is_accounted(self, served_system):
        with served_system.serve() as svc:
            stats = svc.stats()
            assert stats.refreshes == 0
            assert stats.last_refresh_seconds is None
            svc.refresh_domains()
            stats = svc.stats()
            assert stats.refreshes == 1
            assert stats.last_refresh_seconds is not None
            assert stats.last_refresh_seconds > 0.0

    def test_submit_duplicates_straddling_a_swap_do_not_coalesce(
        self, served_system
    ):
        """Seed bug: the batch key omitted the snapshot version.

        Duplicates of one query submitted before and after a
        ``refresh_domains`` swap landed on one pending entry, so the later
        submitter shared the earlier generation's execution.  The key now
        folds in the version (like the sync-path cache key), so the two
        submissions must dispatch as distinct executions.
        """
        config = ServiceConfig(batch_window_seconds=30.0, max_batch=64)
        with served_system.serve(config) as svc:
            query = candidate_queries(served_system, 1)[0]
            version_before = svc.snapshot_version
            first = svc.submit(query)
            svc.refresh_domains()
            second = svc.submit(query)
            svc._batcher.flush()
            answers = [first.result(timeout=30), second.result(timeout=30)]
            stats = svc.stats()
            assert stats.batch_coalesced == 0
            assert stats.requests == 2
            # the post-swap submitter pinned the new generation
            assert answers[1].snapshot_version == version_before + 1


class TestRefreshSerialisation:
    def test_concurrent_refreshes_serialise_and_return_their_own_snapshot(
        self, served_system, monkeypatch
    ):
        """Regression: ``refresh_domains`` was unsynchronised at the
        service level — two concurrent refreshes could interleave the
        rebuild and the snapshot read, so both callers observed only
        the *final* generation (one refresh's snapshot was never
        returned to anyone, and the slower build could be reported as
        the newer one).  The wrapper below forces the interleaving: each
        rebuild, once finished, waits for the other before returning.
        With the service-level refresh lock the second refresh cannot
        even start until the first has returned its own snapshot.
        """
        real = served_system.refresh_domains
        tags: dict = {}
        done = {"a": threading.Event(), "b": threading.Event()}

        def wrapped(querylog_config=None):
            tag = tags[threading.get_ident()]
            result = real(querylog_config)
            done[tag].set()
            other = "b" if tag == "a" else "a"
            # on an unserialised service both rebuilds finish here
            # before either caller reads "its" snapshot
            done[other].wait(timeout=0.8)
            return result

        monkeypatch.setattr(served_system, "refresh_domains", wrapped)
        version_start = served_system.snapshots.version
        results: dict = {}
        errors: list = []

        with served_system.serve() as svc:
            def client(tag: str) -> None:
                tags[threading.get_ident()] = tag
                try:
                    results[tag] = svc.refresh_domains().version
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(tag,), daemon=True)
                for tag in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            # each refresh returned the snapshot its own rebuild published
            assert sorted(results.values()) == [
                version_start + 1,
                version_start + 2,
            ]
            assert svc.snapshot_version == version_start + 2
            assert svc.stats().refreshes == 2


class TestCloseDrainsInFlight:
    def test_close_drains_an_admitted_request(self, served_system):
        """Regression: ``close()`` shut the pools under admitted
        requests, so an in-flight query crashed with a (possibly raw)
        ``RuntimeError`` mid-detection instead of completing.  Close now
        rejects new work, drains the admitted population, and only then
        tears the pools down.
        """
        queries = [
            q
            for q in candidate_queries(served_system, 16)
            if len(served_system.expansion_terms(q)) > 1
        ]
        assert queries, "need a multi-term query so detection uses the pool"
        query = queries[0]

        svc = served_system.serve()
        expander = served_system.snapshot.pipeline.expander
        real = expander.expand_terms
        entered, release = threading.Event(), threading.Event()

        def blocking(q):
            entered.set()
            release.wait(timeout=10)
            return real(q)

        expander.expand_terms = blocking
        result: dict = {}
        try:
            def client() -> None:
                try:
                    result["answer"] = svc.query(query)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    result["error"] = exc

            client_thread = threading.Thread(target=client, daemon=True)
            client_thread.start()
            assert entered.wait(timeout=10)
            closer = threading.Thread(target=svc.close, daemon=True)
            closer.start()
            time.sleep(0.2)  # let close() reach the drain
            # new work is already refused while the drain is pending
            with pytest.raises(ServiceClosedError):
                svc.query(query)
            release.set()
            client_thread.join(timeout=10)
            closer.join(timeout=10)
            assert not client_thread.is_alive() and not closer.is_alive()
        finally:
            expander.expand_terms = real
            svc.close()

        assert "error" not in result, f"in-flight query died: {result.get('error')!r}"
        assert result["answer"].query == query


class TestSubmitThresholdKeying:
    def test_default_and_explicit_threshold_coalesce(self, served_system):
        """Regression: ``submit()`` keyed batches on the *raw*
        ``min_zscore`` while the sync path keys on the resolved
        threshold, so ``submit(q)`` and ``submit(q, default)`` never
        coalesced and double-computed.  The batch key now resolves the
        threshold first.
        """
        config = ServiceConfig(batch_window_seconds=30.0, max_batch=64)
        with served_system.serve(config) as svc:
            query = candidate_queries(served_system, 1)[0]
            default = served_system.snapshot.detector.ranking.min_zscore
            first = svc.submit(query)
            second = svc.submit(query, default)
            svc._batcher.flush()
            answers = [first.result(timeout=30), second.result(timeout=30)]
            stats = svc.stats()
            assert stats.batch_coalesced == 1
            assert stats.requests == 1          # one execution, shared
            assert _expert_ids(answers[0]) == _expert_ids(answers[1])


class TestDeltaRefresh:
    def test_refresh_delta_swaps_and_stamps_stats(self, served_system):
        from repro.querylog.generator import QueryLogGenerator
        from dataclasses import replace as dc_replace

        with served_system.serve() as svc:
            query = candidate_queries(served_system, 1)[0]
            before = svc.query(query)
            stats = svc.stats()
            assert stats.delta_refreshes == 0
            assert stats.last_delta_refresh is None

            log_config = served_system.config.querylog
            generator = QueryLogGenerator(
                served_system.offline.world,
                dc_replace(log_config, seed=log_config.seed + 17),
            )
            delta = list(generator.impressions(500))
            snapshot = svc.refresh_delta(delta)

            assert snapshot.version == before.snapshot_version + 1
            after = svc.query(query)
            assert after.snapshot_version == snapshot.version
            assert not after.cache_hit      # version rotated the key space
            stats = svc.stats()
            assert stats.delta_refreshes == 1
            assert stats.last_delta_refresh_seconds is not None
            assert stats.last_delta_refresh is not None
            assert stats.last_delta_refresh.impressions == 500
            assert stats.last_delta_refresh.cluster_mode in (
                "unchanged",
                "local",
                "full",
            )

    def test_refresh_delta_under_concurrent_queries(self, served_system):
        from repro.querylog.generator import QueryLogGenerator
        from dataclasses import replace as dc_replace

        probes = [
            q
            for q in candidate_queries(served_system, 16)
            if served_system.find_experts(q)
        ][:4]
        assert len(probes) >= 2
        errors: list = []
        stop = threading.Event()

        with served_system.serve(
            ServiceConfig(max_in_flight=32, max_queue_depth=256)
        ) as svc:
            def client(slot: int) -> None:
                i = 0
                while not stop.is_set():
                    try:
                        svc.query(probes[(slot + i) % len(probes)])
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    i += 1
                    time.sleep(0.001)

            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            log_config = served_system.config.querylog
            try:
                for round_ in range(2):
                    generator = QueryLogGenerator(
                        served_system.offline.world,
                        dc_replace(
                            log_config, seed=log_config.seed + 31 + round_
                        ),
                    )
                    svc.refresh_delta(list(generator.impressions(400)))
            finally:
                stop.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert svc.stats().delta_refreshes == 2


class TestLoadGeneration:
    def test_workload_is_duplicate_heavy(self, served_system):
        config = WorkloadConfig(requests=120, max_unique=8, seed=7)
        workload = build_workload(served_system, config)
        assert len(workload) == 120
        assert 1 <= len(set(workload)) <= 8
        # Zipf head skew: the most popular query dominates
        top = max(set(workload), key=workload.count)
        assert workload.count(top) > 120 / 8

    def test_load_generator_reports(self, served_system):
        workload = build_workload(
            served_system, WorkloadConfig(requests=40, max_unique=6, seed=3)
        )
        with served_system.serve() as svc:
            report = LoadGenerator(svc, workload, concurrency=4).run()
        assert report.requests == 40
        assert report.errors == 0
        assert report.qps > 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms
        assert 0.0 <= report.cache_hit_rate <= 1.0
        payload = report.to_dict()
        assert payload["requests"] == 40

    def test_run_serve_outcome(self, served_system):
        outcome = run_serve(
            served_system,
            requests=40,
            concurrency=4,
            max_unique=6,
            baseline=True,
        )
        assert outcome.report.errors == 0
        assert outcome.baseline is not None and outcome.baseline.errors == 0
        assert outcome.speedup is not None and outcome.speedup > 0
        stats = outcome.stats
        assert stats.cache.hits + stats.cache.misses == stats.requests
        payload = outcome.to_dict()
        assert payload["speedup_vs_serial"] == outcome.speedup
        assert "p99_ms" in payload and "cache_hit_rate" in payload
        assert "qps" in outcome.render() or "throughput" in outcome.render()


class TestServeCommandGlue:
    def test_run_serve_command(self, served_system, capsys, tmp_path):
        from repro.cli import build_parser, run_serve_command

        json_path = tmp_path / "serve.json"
        args = build_parser().parse_args(
            ["serve", "--queries", "20", "--concurrency", "4",
             "--unique", "6", "--json", str(json_path)]
        )
        rc = run_serve_command(served_system, args)
        out = capsys.readouterr().out
        assert rc == 0
        assert "throughput" in out and "p95" in out
        assert json_path.exists()
        import json

        payload = json.loads(json_path.read_text())
        assert payload["errors"] == 0
        assert payload["concurrency"] == 4
