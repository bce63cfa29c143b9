"""Admission control: bounded concurrency, backpressure, per-tenant quotas.

An interactive service protects its latency target by refusing work it
cannot start soon, instead of queueing unboundedly.  One shared
execution capacity (``max_in_flight``) is split across tenants, each
bounded by its own :class:`TenantQuota` (concurrency cap, wait-queue
depth, fair-share weight).  A tenant saturating its quota — or waiting
longer than ``timeout_seconds`` at its own cap — is rejected with the
*tenant-typed* :class:`~repro.serving.errors.TenantOverloadedError` (a
:class:`~repro.serving.errors.ServiceOverloadedError`, so clients back
off deliberately either way); tenants under their quota keep being
admitted, and when the shared capacity itself is contended, freed slots
are granted to the eligible waiting tenant with the lowest
``in_flight / weight`` load — weighted fair sharing, so no tenant
starves behind another's backlog.

A standalone :class:`~repro.serving.service.ExpertService` is the
one-tenant registration: tenant ``default`` with a quota as wide as the
whole envelope.

Grants are counters, not bare notifies: a freed slot is *reserved* for
the chosen tenant (``granted``) before its waiter wakes, so a wakeup
lost to a timing race cannot leak capacity — the next waiter of that
tenant consumes the grant instead.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.serving.errors import (
    AdmissionProtocolError,
    ServiceClosedError,
    ServiceOverloadedError,
    TenantOverloadedError,
)


@dataclass(frozen=True)
class AdmissionStats:
    """Counters for the ops surface (rejections are split by cause)."""

    admitted: int
    rejected_queue_full: int
    rejected_timeout: int
    in_flight: int
    waiting: int

    @property
    def rejected(self) -> int:
        return self.rejected_queue_full + self.rejected_timeout


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission envelope.

    ``max_in_flight`` caps the tenant's concurrent execution,
    ``max_queue_depth`` bounds how many of its requests may wait, and
    ``weight`` sets its share when freed capacity is contended (a
    weight-2 tenant is granted slots twice as readily as a weight-1
    tenant at equal load).
    """

    max_in_flight: int = 8
    max_queue_depth: int = 32
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class TenantAdmissionStats:
    """Per-tenant admission counters (the ops surface)."""

    tenant: str
    quota: TenantQuota
    admitted: int
    rejected_queue_full: int
    rejected_timeout: int
    in_flight: int
    waiting: int

    @property
    def rejected(self) -> int:
        return self.rejected_queue_full + self.rejected_timeout


class _TenantGate:
    """Mutable per-tenant admission state (all of it owned by the
    controller's single lock; the per-tenant ``condition`` is built over
    that same lock so waiters of one tenant wake independently)."""

    __slots__ = (
        "name",
        "quota",
        "condition",
        "in_flight",
        "waiting",
        "granted",
        "admitted",
        "rejected_queue_full",
        "rejected_timeout",
    )

    def __init__(
        self, name: str, quota: TenantQuota, lock: threading.Lock
    ) -> None:
        self.name = name
        self.quota = quota  # guarded-by: condition
        self.condition = threading.Condition(lock)
        self.in_flight = 0  # guarded-by: condition
        self.waiting = 0  # guarded-by: condition
        #: slots reserved for this tenant's waiters but not yet consumed
        self.granted = 0  # guarded-by: condition
        self.admitted = 0  # guarded-by: condition
        self.rejected_queue_full = 0  # guarded-by: condition
        self.rejected_timeout = 0  # guarded-by: condition

    def load(self) -> float:  # holds: condition
        """Weighted occupancy — the fair-share comparison key."""
        return (self.in_flight + self.granted) / self.quota.weight

    def busy(self) -> int:  # holds: condition
        return self.in_flight + self.waiting + self.granted


class FairAdmissionController:
    """Shared-capacity admission split into per-tenant quotas.

    :meth:`slot`/:meth:`acquire`/:meth:`release` take the tenant name;
    an unregistered tenant gets ``default_quota`` on first use.
    """

    def __init__(
        self,
        max_in_flight: int = 32,
        timeout_seconds: float = 5.0,
        default_quota: TenantQuota | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {timeout_seconds}"
            )
        self.max_in_flight = max_in_flight
        self.timeout_seconds = timeout_seconds
        self.default_quota = default_quota or TenantQuota()
        self._lock = threading.Lock()
        #: signalled on every completion so drains re-check their tenant
        self._idle = threading.Condition(self._lock)
        self._gates: Dict[str, _TenantGate] = {}  # guarded-by: _idle
        self._in_flight = 0  # guarded-by: _idle
        #: reserved-but-unconsumed grants across all tenants
        self._granted = 0  # guarded-by: _idle
        self._admitted = 0  # guarded-by: _idle
        self._rejected_queue_full = 0  # guarded-by: _idle
        self._rejected_timeout = 0  # guarded-by: _idle
        self._closed = False  # guarded-by: _idle

    # -- registration ------------------------------------------------------------

    def register(self, tenant: str, quota: TenantQuota | None = None) -> None:
        """Declare a tenant's quota (first use auto-registers the default)."""
        with self._idle:
            gate = self._gates.get(tenant)
            if gate is None:
                self._gates[tenant] = _TenantGate(
                    tenant, quota or self.default_quota, self._lock
                )
            elif quota is not None:
                gate.quota = quota
                self._issue_grants()

    def _gate(self, tenant: str) -> _TenantGate:  # holds: _idle
        gate = self._gates.get(tenant)
        if gate is None:
            gate = _TenantGate(tenant, self.default_quota, self._lock)
            self._gates[tenant] = gate
        return gate

    # -- the admission protocol ---------------------------------------------------

    @contextmanager
    def slot(self, tenant: str) -> Iterator[None]:
        """Hold one of ``tenant``'s execution slots for the ``with`` body."""
        self.acquire(tenant)
        try:
            yield
        finally:
            self.release(tenant)

    def acquire(self, tenant: str) -> None:
        """Block until the tenant gets a slot, or reject typed.

        Rejection typing is the contract: a tenant at *its own*
        concurrency or queue cap fails with
        :class:`TenantOverloadedError`; a tenant under its quota that
        times out purely on global saturation fails with the plain
        :class:`ServiceOverloadedError` — so callers can tell "you are
        the noisy one" from "the box is full".
        """
        deadline = time.monotonic() + self.timeout_seconds
        with self._idle:
            if self._closed:
                raise ServiceClosedError("admission controller is closed")
            gate = self._gate(tenant)
            if (
                gate.waiting == 0
                and gate.granted == 0
                and gate.in_flight < gate.quota.max_in_flight
                and self._in_flight + self._granted < self.max_in_flight
            ):
                gate.in_flight += 1
                gate.admitted += 1
                self._in_flight += 1
                self._admitted += 1
                return
            if gate.waiting >= gate.quota.max_queue_depth:
                gate.rejected_queue_full += 1
                self._rejected_queue_full += 1
                raise TenantOverloadedError(
                    tenant,
                    "queue full",
                    in_flight=gate.in_flight,
                    waiting=gate.waiting,
                )
            gate.waiting += 1
            try:
                while True:
                    if gate.granted > 0:
                        gate.granted -= 1
                        self._granted -= 1
                        gate.in_flight += 1
                        gate.admitted += 1
                        self._in_flight += 1
                        self._admitted += 1
                        return
                    if self._closed:
                        raise ServiceClosedError(
                            "admission controller is closed"
                        )
                    remaining = deadline - time.monotonic()
                    # gate.condition wraps the held lock: wait() releases it
                    if remaining <= 0 or not gate.condition.wait(remaining):  # analysis: ignore[LOCK002]
                        if gate.granted > 0:
                            # a grant landed in the same instant the wait
                            # timed out — consume it instead of leaking
                            # the reserved slot
                            continue
                        gate.rejected_timeout += 1
                        self._rejected_timeout += 1
                        if (
                            gate.in_flight + gate.granted
                            >= gate.quota.max_in_flight
                        ):
                            raise TenantOverloadedError(
                                tenant,
                                "admission timeout",
                                in_flight=gate.in_flight,
                                waiting=gate.waiting,
                            )
                        raise ServiceOverloadedError(
                            "admission timeout",
                            in_flight=self._in_flight,
                            waiting=gate.waiting,
                        )
            finally:
                gate.waiting -= 1
                # a departing waiter can unblock a grant decision (its
                # tenant may no longer be the fair-share argmin)
                self._issue_grants()
                self._idle.notify_all()

    def release(self, tenant: str) -> None:
        with self._idle:
            gate = self._gates.get(tenant)
            if gate is None or gate.in_flight <= 0:
                raise AdmissionProtocolError(
                    f"release({tenant!r}) without a matching acquire()"
                )
            gate.in_flight -= 1
            self._in_flight -= 1
            self._issue_grants()
            self._idle.notify_all()

    def _issue_grants(self) -> None:  # holds: _idle
        """Hand freed capacity to waiters, weighted-fair.

        While shared capacity remains, pick the tenant with an ungranted
        waiter, headroom under its own cap, and the lowest weighted
        occupancy ``(in_flight + granted) / weight`` (ties to the
        lexicographically first name, for determinism); reserve the slot
        and wake exactly one of its waiters.
        """
        while self._in_flight + self._granted < self.max_in_flight:
            best: Optional[_TenantGate] = None
            for gate in self._gates.values():
                if gate.waiting <= gate.granted:
                    continue  # no waiter without a pending grant
                if gate.in_flight + gate.granted >= gate.quota.max_in_flight:
                    continue  # tenant at its own cap
                if (
                    best is None
                    or gate.load() < best.load()
                    or (gate.load() == best.load() and gate.name < best.name)
                ):
                    best = gate
            if best is None:
                return
            best.granted += 1
            self._granted += 1
            best.condition.notify()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Refuse all further admissions (typed); idempotent.

        Waiters holding a reserved grant still proceed into their slot;
        ungranted waiters fail with :class:`ServiceClosedError` on the
        next wakeup instead of running out their deadlines.
        """
        with self._idle:
            self._closed = True
            for gate in self._gates.values():
                gate.condition.notify_all()
            self._idle.notify_all()

    def drain(self, timeout: float | None = None) -> int:
        """Block until no tenant has work executing or waiting.

        The serving tier's graceful shutdown: the caller first stops
        admitting new work (:meth:`close`), then drains, then tears down
        the pools the in-flight requests are still using.  Returns the
        number of requests still admitted or queued when the call gave
        up — ``0`` means the controller went fully idle, a positive
        count means the timeout expired with that many stragglers (a
        stuck worker therefore bounds shutdown instead of blocking it
        forever, and the caller knows exactly how much work it orphaned).
        """
        return self._drain(None, timeout)

    def drain_tenant(self, tenant: str, timeout: float | None = None) -> int:
        """:meth:`drain` scoped to one tenant: a tenant being closed or
        evicted waits out only *its own* in-flight work, leaving every
        other tenant serving."""
        return self._drain(tenant, timeout)

    def _drain(self, tenant: Optional[str], timeout: float | None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while True:
                busy = sum(
                    gate.busy()
                    for gate in self._gates.values()
                    if tenant is None or gate.name == tenant
                )
                if busy == 0:
                    return 0
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return busy
                self._idle.wait(remaining)

    # -- observability -----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._idle:
            return self._in_flight

    @property
    def waiting(self) -> int:
        with self._idle:
            return sum(gate.waiting for gate in self._gates.values())

    def stats(self) -> AdmissionStats:
        """Aggregate counters across every tenant."""
        with self._idle:
            return AdmissionStats(
                admitted=self._admitted,
                rejected_queue_full=self._rejected_queue_full,
                rejected_timeout=self._rejected_timeout,
                in_flight=self._in_flight,
                waiting=sum(g.waiting for g in self._gates.values()),
            )

    def tenant_stats(self) -> Tuple[TenantAdmissionStats, ...]:
        with self._idle:
            return tuple(
                TenantAdmissionStats(
                    tenant=gate.name,
                    quota=gate.quota,
                    admitted=gate.admitted,
                    rejected_queue_full=gate.rejected_queue_full,
                    rejected_timeout=gate.rejected_timeout,
                    in_flight=gate.in_flight,
                    waiting=gate.waiting,
                )
                for gate in sorted(
                    self._gates.values(), key=lambda g: g.name
                )
            )
