"""Serving-tier building blocks: single-flight, admission, workers."""

import threading
import time

import pytest

from repro.serving.errors import (
    AdmissionProtocolError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
    TenantOverloadedError,
)
from repro.serving.quotas import FairAdmissionController, TenantQuota
from repro.serving.service import DEFAULT_TENANT, ServingRuntime, ServiceConfig
from repro.serving.singleflight import SingleFlight
from repro.serving.workers import MicroBatchScheduler, WorkerPool


class TestSingleFlight:
    def test_sequential_calls_each_lead(self):
        flight = SingleFlight()
        value, leader = flight.do("k", lambda: 41)
        assert (value, leader) == (41, True)
        value, leader = flight.do("k", lambda: 42)
        assert (value, leader) == (42, True)   # no longer in flight → new leader
        assert flight.leaders == 2
        assert flight.coalesced == 0

    def test_concurrent_duplicates_coalesce(self):
        flight = SingleFlight()
        release = threading.Event()
        calls = []
        results = []

        def compute():
            calls.append(1)
            release.wait(timeout=5)
            return "expensive"

        def leader():
            results.append(flight.do("k", compute))

        def follower():
            results.append(flight.do("k", lambda: "wrong"))

        lead = threading.Thread(target=leader)
        lead.start()
        # wait until the leader has registered its flight
        deadline = time.monotonic() + 5
        while flight.in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        followers = [threading.Thread(target=follower) for _ in range(4)]
        for thread in followers:
            thread.start()
        # give followers a moment to attach to the in-flight future
        time.sleep(0.05)
        release.set()
        lead.join(timeout=5)
        for thread in followers:
            thread.join(timeout=5)

        assert len(calls) == 1                      # computed exactly once
        assert len(results) == 5
        assert all(value == "expensive" for value, _ in results)
        assert sum(1 for _, led in results if led) == 1
        assert flight.coalesced == 4
        assert flight.in_flight == 0

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()

        def boom():
            raise ValueError("scoring failed")

        with pytest.raises(ValueError):
            flight.do("k", boom)
        # flight retired: the key is free again
        value, leader = flight.do("k", lambda: 1)
        assert (value, leader) == (1, True)


def one_tenant_controller(
    max_in_flight=16, max_queue_depth=64, timeout_seconds=5.0
):
    """The controller a standalone service gets: every request is tenant
    ``default``'s, whose quota is the whole envelope (exactly how
    :class:`ServingRuntime` sizes it)."""
    return FairAdmissionController(
        max_in_flight=max_in_flight,
        timeout_seconds=timeout_seconds,
        default_quota=TenantQuota(
            max_in_flight=max_in_flight, max_queue_depth=max_queue_depth
        ),
    )


TENANT = DEFAULT_TENANT


class TestAdmissionController:
    """The single-tenant admission contract, on the one controller."""

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            one_tenant_controller(max_in_flight=0)
        with pytest.raises(ValueError):
            one_tenant_controller(max_queue_depth=-1)
        with pytest.raises(ValueError):
            one_tenant_controller(timeout_seconds=0)

    def test_runtime_sizes_the_default_quota_from_the_config(self):
        runtime = ServingRuntime(
            ServiceConfig(
                max_in_flight=3,
                max_queue_depth=5,
                admission_timeout_seconds=0.25,
            )
        )
        try:
            control = runtime.admission
            assert control.max_in_flight == 3
            assert control.timeout_seconds == 0.25
            assert control.default_quota == TenantQuota(
                max_in_flight=3, max_queue_depth=5
            )
        finally:
            assert runtime.close()

    def test_rejects_when_queue_full(self):
        control = one_tenant_controller(
            max_in_flight=1, max_queue_depth=0, timeout_seconds=1.0
        )
        control.acquire(TENANT)
        with pytest.raises(ServiceOverloadedError) as caught:
            control.acquire(TENANT)
        # the one tenant is, by construction, the noisy one
        assert isinstance(caught.value, TenantOverloadedError)
        assert caught.value.tenant == TENANT
        assert "queue full" in caught.value.reason
        assert isinstance(caught.value, ServingError)
        control.release(TENANT)
        stats = control.stats()
        assert stats.admitted == 1
        assert stats.rejected_queue_full == 1

    def test_times_out_waiting_for_a_slot(self):
        control = one_tenant_controller(
            max_in_flight=1, max_queue_depth=4, timeout_seconds=0.05
        )
        control.acquire(TENANT)
        started = time.monotonic()
        with pytest.raises(ServiceOverloadedError) as caught:
            control.acquire(TENANT)
        assert "admission timeout" in caught.value.reason
        assert time.monotonic() - started < 2.0
        assert control.stats().rejected_timeout == 1
        control.release(TENANT)

    def test_release_unblocks_waiter(self):
        control = one_tenant_controller(
            max_in_flight=1, max_queue_depth=4, timeout_seconds=5.0
        )
        control.acquire(TENANT)
        admitted = threading.Event()

        def waiter():
            with control.slot(TENANT):
                admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        assert not admitted.is_set()
        control.release(TENANT)
        thread.join(timeout=5)
        assert admitted.is_set()
        assert control.in_flight == 0
        assert control.stats().admitted == 2

    def test_release_without_acquire_is_an_error(self):
        with pytest.raises(RuntimeError):
            one_tenant_controller().release(TENANT)
        control = one_tenant_controller()
        control.acquire(TENANT)
        control.release(TENANT)
        with pytest.raises(AdmissionProtocolError):
            control.release(TENANT)

    def test_wakeup_landing_on_a_timing_out_waiter_is_not_lost(self):
        """Regression: the lost wakeup on the timeout path.

        ``release()`` wakes exactly one waiter.  If that waiter's
        deadline has just expired, a bare notify would be consumed by a
        thread that is about to raise — leaving the freed slot idle
        while every remaining waiter ran out its own deadline.  The
        controller hands slots over as *reserved grants*: the timing-out
        waiter finds the grant and takes the slot instead of raising, so
        the slot is used and the next release reaches the bystander.

        The interleaving (wakeup landing on a waiter that is timing
        out) is a microsecond window in the wild, so the test forces it
        deterministically: the victim thread's ``wait`` blocks until it
        is really notified and then *reports* a timeout.
        """

        class LostWakeupCondition:
            """Delegates to the real condition; for the victim thread,
            ``wait`` consumes a genuine notify but claims it timed out."""

            def __init__(self, inner):
                self._inner = inner
                self.victim = None

            def wait(self, timeout=None):
                if threading.get_ident() == self.victim:
                    self._inner.wait()
                    return False
                return self._inner.wait(timeout)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        control = one_tenant_controller(
            max_in_flight=1, max_queue_depth=4, timeout_seconds=1.5
        )
        control.acquire(TENANT)  # occupy the only slot (creates the gate)
        gate = control._gates[TENANT]
        proxy = LostWakeupCondition(gate.condition)
        gate.condition = proxy

        outcomes = {}
        hold = threading.Event()

        def victim():
            proxy.victim = threading.get_ident()
            try:
                control.acquire(TENANT)
                outcomes["victim"] = "admitted"
                hold.wait(timeout=5)
                control.release(TENANT)
            except ServiceOverloadedError:
                outcomes["victim"] = "timeout"

        def bystander():
            try:
                control.acquire(TENANT)
                outcomes["bystander"] = "admitted"
                control.release(TENANT)
            except ServiceOverloadedError:
                outcomes["bystander"] = "timeout"

        victim_thread = threading.Thread(target=victim, daemon=True)
        victim_thread.start()
        deadline = time.monotonic() + 5
        while control.waiting < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        bystander_thread = threading.Thread(target=bystander, daemon=True)
        bystander_thread.start()
        while control.waiting < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert control.waiting == 2

        control.release(TENANT)  # wakes the victim, which is "timing out"
        while "victim" not in outcomes and time.monotonic() < deadline:
            time.sleep(0.001)
        # the reserved grant survived the bogus timeout: the slot is in
        # use, not idle, and nothing was rejected
        assert outcomes == {"victim": "admitted"}
        assert control.in_flight == 1
        assert control.stats().rejected_timeout == 0
        hold.set()
        victim_thread.join(timeout=5)
        # ... and the next release reaches the bystander well before ITS
        # 1.5 s deadline
        bystander_thread.join(timeout=1.0)
        assert not bystander_thread.is_alive(), (
            "bystander still waiting: the wakeup was swallowed"
        )
        assert outcomes == {"victim": "admitted", "bystander": "admitted"}

    def test_drain_waits_for_in_flight_and_waiters(self):
        control = one_tenant_controller(
            max_in_flight=1, max_queue_depth=4, timeout_seconds=5.0
        )
        control.acquire(TENANT)
        admitted = threading.Event()

        def waiter():
            with control.slot(TENANT):
                admitted.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5
        while control.waiting < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        # the straggler count: one executing, one queued
        assert control.drain(timeout=0.05) == 2
        control.release(TENANT)
        assert control.drain(timeout=5.0) == 0
        thread.join(timeout=5)
        assert admitted.is_set()
        assert control.in_flight == 0 and control.waiting == 0

    def test_closed_controller_rejects_typed(self):
        control = one_tenant_controller(max_in_flight=1)
        control.close()
        with pytest.raises(ServiceClosedError):
            control.acquire(TENANT)

    def test_close_wakes_queued_waiters(self):
        """A waiter queued behind a full controller does not sit out
        its deadline once the controller closes: it fails typed, now."""
        control = one_tenant_controller(
            max_in_flight=1, max_queue_depth=4, timeout_seconds=30.0
        )
        control.acquire(TENANT)
        outcome = {}

        def waiter():
            try:
                control.acquire(TENANT)
                outcome["result"] = "admitted"
            except ServiceClosedError:
                outcome["result"] = "closed"

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5
        while control.waiting < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        started = time.monotonic()
        control.close()
        thread.join(timeout=5)
        assert outcome == {"result": "closed"}
        assert time.monotonic() - started < 2.0
        # the admitted request is still counted until it releases
        assert control.drain(timeout=0.05) == 1
        control.release(TENANT)
        assert control.drain(timeout=1.0) == 0


class TestWorkerPool:
    def test_map_ordered_preserves_input_order(self):
        pool = WorkerPool(4)
        try:
            assert pool.map_ordered(lambda x: x * x, range(10)) == [
                x * x for x in range(10)
            ]
        finally:
            pool.shutdown()

    def test_map_ordered_raises_first_failure_after_settling(self):
        pool = WorkerPool(2)
        try:
            def maybe(x):
                if x == 3:
                    raise KeyError(x)
                return x

            with pytest.raises(KeyError):
                pool.map_ordered(maybe, range(6))
            stats = pool.stats()
            assert stats.submitted == 6
            assert stats.failed == 1
        finally:
            pool.shutdown()

    def test_submit_after_shutdown_raises_typed_error(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(ServiceClosedError):
            pool.submit(lambda: 1)

    def test_accounting_settles(self):
        pool = WorkerPool(2)
        try:
            futures = [pool.submit(lambda i=i: i) for i in range(8)]
            assert [f.result() for f in futures] == list(range(8))
            deadline = time.monotonic() + 5
            while pool.stats().outstanding and time.monotonic() < deadline:
                time.sleep(0.005)
            stats = pool.stats()
            assert stats.completed == 8 and stats.failed == 0
        finally:
            pool.shutdown()


class TestMicroBatchScheduler:
    def test_duplicate_keys_in_one_window_execute_once(self):
        pool = WorkerPool(2)
        # a 5 s window parks the dispatcher, so flush() drains deterministically
        scheduler = MicroBatchScheduler(pool, window_seconds=5.0)
        executions = []
        lock = threading.Lock()

        def job(tag):
            def run():
                with lock:
                    executions.append(tag)
                return tag

            return run

        try:
            futures = [scheduler.submit("a", job("a")) for _ in range(3)]
            futures.append(scheduler.submit("b", job("b")))
            scheduler.flush()
            assert [f.result(timeout=5) for f in futures] == ["a", "a", "a", "b"]
            assert sorted(executions) == ["a", "b"]   # one run per distinct key
            assert scheduler.coalesced == 2
            assert scheduler.batches_dispatched == 1
        finally:
            scheduler.close()
            pool.shutdown()

    def test_dispatcher_drains_without_manual_flush(self):
        pool = WorkerPool(2)
        scheduler = MicroBatchScheduler(pool, window_seconds=0.005)
        try:
            future = scheduler.submit("k", lambda: 99)
            assert future.result(timeout=5) == 99
        finally:
            scheduler.close()
            pool.shutdown()

    def test_full_batch_dispatches_before_the_window_closes(self):
        pool = WorkerPool(2)
        # a 60 s window would park the futures for a minute if max_batch
        # didn't force an early dispatch
        scheduler = MicroBatchScheduler(pool, window_seconds=60.0, max_batch=4)
        try:
            futures = [
                scheduler.submit(f"k{i}", lambda i=i: i) for i in range(4)
            ]
            assert [f.result(timeout=5) for f in futures] == [0, 1, 2, 3]
            assert scheduler.batches_dispatched == 1
        finally:
            scheduler.close()
            pool.shutdown()

    def test_job_failure_reaches_every_submitter(self):
        pool = WorkerPool(2)
        scheduler = MicroBatchScheduler(pool, window_seconds=5.0)

        def boom():
            raise RuntimeError("batch job failed")

        try:
            futures = [scheduler.submit("k", boom) for _ in range(2)]
            scheduler.flush()
            for future in futures:
                with pytest.raises(RuntimeError):
                    future.result(timeout=5)
        finally:
            scheduler.close()
            pool.shutdown()

    def test_submit_after_close_raises(self):
        pool = WorkerPool(1)
        scheduler = MicroBatchScheduler(pool, window_seconds=0.005)
        scheduler.close()
        with pytest.raises(ServiceClosedError):
            scheduler.submit("k", lambda: 1)
        pool.shutdown()
