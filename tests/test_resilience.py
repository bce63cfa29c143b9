"""End-to-end resilience over real subprocess workers.

The contract these tests hold the fleet to: under injected faults —
SIGKILL, scheduled worker exits, dropped/corrupted wire frames, a
bit-flipped artifact — the router **never returns a wrong answer** (every
served answer is byte-identical to the single-replica reference), every
failure surfaces typed, and the supervisor restores killed replicas so
full coverage resumes.  The deterministic in-process halves of the same
machinery live in ``test_chaos.py`` and ``test_supervisor.py``.
"""

from __future__ import annotations

import os
import shutil
import signal
import time

import pytest

from repro.artifact import ArtifactError
from repro.chaos import FaultPlan, FaultSpec, inject
from repro.core.esharp import ESharp
from repro.fleet import (
    FleetConfig,
    FleetRouter,
    ReplicaStartupError,
    ReplicaSupervisor,
    SubprocessReplica,
    SupervisorConfig,
    WorkerProtocolError,
)
from repro.serving.service import ExpertService


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def artifact_dir(system, tmp_path_factory):
    path = tmp_path_factory.mktemp("resilience") / "artifact"
    system.save_artifact(path)
    return path


@pytest.fixture(scope="module")
def queries(system):
    from repro.serving.loadgen import candidate_queries

    return candidate_queries(system, 10)


def answer_key(answer):
    """Everything observable about an answer except timings."""
    return (
        answer.experts,
        tuple(answer.terms),
        answer.matched_domain,
        answer.snapshot_version,
    )


@pytest.fixture(scope="module")
def reference(system, queries):
    with ExpertService(system) as service:
        return {q: answer_key(service.query(q)) for q in queries}


def spawn(name, artifact_dir, **kwargs):
    kwargs.setdefault("detection_workers", 1)
    kwargs.setdefault("request_timeout_seconds", 30.0)
    return SubprocessReplica(name, artifact_dir, **kwargs)


def wait_until(predicate, timeout, step=0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


def shard_query(router, shard, pool):
    return next(
        q for q in pool if router.sharding.shard_of_term(q) == shard
    )


# -- SIGKILL -> failover -> supervised recovery --------------------------------


class TestKillAndRecover:
    def test_sigkill_fails_over_then_supervisor_restores_coverage(
        self, artifact_dir, queries, reference
    ):
        replicas = [spawn(f"replica-{i}", artifact_dir) for i in range(2)]
        router = FleetRouter.from_artifact(
            artifact_dir,
            replicas,
            sharding="hash",
            config=FleetConfig(hedging=False),
        )
        supervisor = ReplicaSupervisor(
            router,
            {
                replica.name: (
                    lambda name=replica.name: spawn(name, artifact_dir)
                )
                for replica in replicas
            },
            SupervisorConfig(
                probe_timeout_seconds=2.0,
                backoff_initial_seconds=0.05,
                restart_budget=5,
            ),
        )
        try:
            victim = router.replica("replica-0")
            os.kill(victim.pid, signal.SIGKILL)
            assert wait_until(lambda: not victim.is_alive(), timeout=10)

            # the fleet keeps answering, byte-identically, via failover
            for query in queries:
                assert answer_key(router.query(query)) == reference[query]
            assert router.stats().failovers >= 1

            # the supervisor swaps in a fresh warm-started worker
            def restored():
                supervisor.check_now()
                fresh = router.replica("replica-0")
                return (
                    fresh is not victim
                    and fresh.is_alive()
                    and fresh.ping(timeout=2.0)
                )

            assert wait_until(restored, timeout=120, step=0.05)
            stats = supervisor.stats()
            assert stats.restarts >= 1
            assert stats.gave_up == 0
            slot = next(s for s in stats.slots if s.name == "replica-0")
            assert slot.state == "healthy"
            assert slot.last_recovery_seconds is not None

            # full coverage again: both replicas answer, byte-identically
            for query in queries:
                assert answer_key(router.query(query)) == reference[query]
            assert router.replica("replica-0").health().requests >= 0
        finally:
            router.close()


# -- startup discipline --------------------------------------------------------


class TestStartupFailures:
    def test_missing_artifact_is_a_typed_startup_error(self, tmp_path):
        with pytest.raises(ReplicaStartupError, match="warm start") as info:
            spawn("doomed", tmp_path / "no-such-artifact")
        err = info.value
        # the worker's dying words ride along for diagnosis
        assert any("artifact" in line for line in err.stderr_tail)

    def test_startup_timeout_is_enforced(self, artifact_dir):
        # a latency fault on the worker's artifact reads stalls its warm
        # start well past the startup budget
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="artifact.read",
                    kind="latency",
                    seconds=30.0,
                    times=1,
                ),
            )
        )
        started = time.perf_counter()
        with pytest.raises(ReplicaStartupError, match="not ready within"):
            spawn(
                "stalled",
                artifact_dir,
                startup_timeout_seconds=1.0,
                extra_env={inject.ENV_PLAN: plan.to_json()},
            )
        assert time.perf_counter() - started < 20.0

    def test_bit_flipped_artifact_is_rejected_typed(
        self, artifact_dir, tmp_path
    ):
        corrupt = tmp_path / "corrupt-artifact"
        shutil.copytree(artifact_dir, corrupt)
        stage = max(
            corrupt.glob("stage-*.meta.jsonl"), key=lambda p: p.stat().st_size
        )
        payload = bytearray(stage.read_bytes())
        middle = len(payload) // 2
        payload[middle] ^= 0xFF  # one flipped bit-pattern mid-file
        stage.write_bytes(bytes(payload))

        # a restart factory pointed at it fails loud, not wrong: the
        # manifest checksum rejects the stage before anything decodes
        with pytest.raises(ArtifactError):
            ESharp.from_artifact(corrupt)
        with pytest.raises(ReplicaStartupError) as info:
            spawn("poisoned", corrupt)
        assert any(
            "artifact" in line.lower() for line in info.value.stderr_tail
        )


# -- chaos plans against live workers ------------------------------------------


class TestWorkerChaosPlans:
    def test_scheduled_worker_exit_fails_over_and_kills_no_answers(
        self, artifact_dir, queries, reference
    ):
        # the worker hard-exits on its second dispatched request — the
        # REPRO_CHAOS_PLAN env route subprocess workers install at boot
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="worker.dispatch",
                    kind="exit",
                    after_calls=1,
                    times=1,
                    exit_code=70,
                ),
            )
        )
        replicas = [
            spawn(
                "replica-0",
                artifact_dir,
                extra_env={inject.ENV_PLAN: plan.to_json()},
            ),
            spawn("replica-1", artifact_dir),
        ]
        router = FleetRouter.from_artifact(
            artifact_dir,
            replicas,
            sharding="hash",
            config=FleetConfig(hedging=False),
        )
        try:
            for query in queries:
                assert answer_key(router.query(query)) == reference[query]
            stats = router.stats()
            assert stats.failovers >= 1
            # the plan really did kill the worker mid-stream
            assert not router.replica("replica-0").is_alive()
        finally:
            router.close()

    def test_corrupted_reply_frame_is_detected_never_served(
        self, artifact_dir, queries, reference
    ):
        # corrupt the worker's first post-handshake reply frame: the
        # client must fail typed and fail over, never parse garbage
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="wire.worker.write",
                    kind="corrupt_frame",
                    after_calls=1,  # let the ready handshake through
                    times=1,
                ),
            )
        )
        replicas = [
            spawn(
                "replica-0",
                artifact_dir,
                extra_env={inject.ENV_PLAN: plan.to_json()},
            ),
            spawn("replica-1", artifact_dir),
        ]
        router = FleetRouter.from_artifact(
            artifact_dir,
            replicas,
            sharding="hash",
            config=FleetConfig(hedging=False),
        )
        try:
            query = shard_query(router, 0, queries)
            assert answer_key(router.query(query)) == reference[query]
            assert router.stats().failovers == 1
        finally:
            router.close()

    def test_replica_whose_reader_stopped_fails_fast_and_is_restarted(
        self, artifact_dir, queries, reference
    ):
        # one corrupted reply ends the client's reader thread while the
        # worker process lives on: the handle must stop taking requests
        # (nobody could resolve them) and report itself dead
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="wire.worker.write",
                    kind="corrupt_frame",
                    after_calls=1,  # let the ready handshake through
                    times=1,
                ),
            )
        )
        victim = spawn(
            "replica-0",
            artifact_dir,
            extra_env={inject.ENV_PLAN: plan.to_json()},
        )
        router = FleetRouter.from_artifact(
            artifact_dir,
            [victim, spawn("replica-1", artifact_dir)],
            sharding="hash",
            config=FleetConfig(hedging=False),
        )
        supervisor = ReplicaSupervisor(
            router,
            {"replica-0": lambda: spawn("replica-0", artifact_dir)},
            SupervisorConfig(
                probe_timeout_seconds=2.0, backoff_initial_seconds=0.0
            ),
        )
        try:
            with pytest.raises(WorkerProtocolError, match="undecodable"):
                victim.health()
            assert victim._process.poll() is None  # the process is fine
            assert not victim.is_alive()
            started = time.perf_counter()
            with pytest.raises(WorkerProtocolError, match="no longer reading"):
                victim.health()
            assert not victim.ping(timeout=5.0)
            assert time.perf_counter() - started < 1.0  # not the 30 s timeout

            outcomes = supervisor.check_now()
            assert [o.ok for o in outcomes] == [True]
            fresh = router.replica("replica-0")
            assert fresh is not victim and fresh.is_alive()
            for query in queries:
                assert answer_key(router.query(query)) == reference[query]
        finally:
            router.close()
            victim.close()

    def test_dropped_request_frame_times_out_typed_and_fails_over(
        self, system, artifact_dir
    ):
        # swallow the client's first query frame entirely; the bounded
        # reply timeout turns the silence into a typed failover
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site="wire.client.write",
                    kind="drop_frame",
                    times=1,
                    match=(("op", "query"),),
                ),
            )
        )
        replicas = [
            spawn(f"replica-{i}", artifact_dir, request_timeout_seconds=2.0)
            for i in range(2)
        ]
        router = FleetRouter.from_artifact(
            artifact_dir,
            replicas,
            sharding="hash",
            config=FleetConfig(hedging=False),
        )
        try:
            # an unmatched phrase expands to itself: exactly one shard,
            # one 'query' frame — the one the plan swallows
            query = shard_query(
                router, 0, (f"unmatched probe {i}" for i in range(64))
            )
            with ExpertService(system) as service:
                expected = answer_key(service.query(query))
            with inject.installed(plan):
                started = time.perf_counter()
                assert answer_key(router.query(query)) == expected
                assert time.perf_counter() - started < 25.0
            assert router.stats().failovers == 1
        finally:
            inject.uninstall()
            router.close()
