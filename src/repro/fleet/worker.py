"""The ``python -m repro fleet-worker`` main loop.

A worker is one warm-started replica speaking the JSON-lines protocol of
:mod:`repro.fleet.wire` on stdio: open its tenants, announce
``{"op": "ready", "version": V, "tenants": [...]}``, then serve requests
until ``shutdown``.  Requests run on a small thread pool so a health probe (or
a hedged duplicate) is answered while a slow query is still scoring;
``cancel`` marks a request id so a not-yet-started request is dropped
instead of computed.  A ``partial`` request must carry the router's
``limit`` and is answered with the slice's top ``limit`` only; request
lines are read through :func:`~repro.fleet.wire.read_frame`, so an
oversize line is refused typed instead of buffered.

Resilience hooks: a request carrying ``budget`` (seconds, stamped when
the frame is read off stdin) has its queue time subtracted before the
service runs — a request that waited out its budget fails typed
(:class:`~repro.serving.errors.DeadlineExceededError`) over the wire.
:func:`serve_worker` installs any ``REPRO_CHAOS_PLAN`` fault plan
*before* loading the artifact, so injected faults cover warm start
(artifact reads) as well as serving (dispatch, reply frames).

Tenancy: the worker always serves through a
:class:`~repro.serving.tenancy.MultiTenantService` and every request's
``tenant`` field (``"default"`` when absent) routes it to the right
corpus.  ``--tenant NAME=DIR`` flags name the tenants;
``--from-artifact DIR`` is ``--tenant default=DIR``.  ``V`` in the ready
frame is the default tenant's version (0 when this worker does not
serve it, or has not loaded it yet).
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import IO, Mapping, Optional

from repro.chaos.inject import fire
from repro.core.esharp import ESharp
from repro.fleet.errors import PromotionError, WorkerProtocolError
from repro.fleet.wire import (
    answer_to_wire,
    error_to_wire,
    limit_from_wire,
    parse_message,
    partial_to_wire,
    read_frame,
    write_message,
)
from repro.serving.errors import DeadlineExceededError, TenantStageError
from repro.serving.service import DEFAULT_TENANT, ServiceConfig
from repro.serving.tenancy import TenantSpec, open_host

#: request threads per worker — enough for overlapping scatter legs plus
#: a health probe; the service's own admission control bounds real work
WORKER_THREADS = 4


class FleetWorker:
    """One replica process: a tenant host behind a wire loop."""

    def __init__(
        self,
        artifact_dir: Optional[str] = None,
        *,
        tenants: Optional[Mapping[str, str]] = None,
        detection_workers: int = 2,
        cache_capacity: Optional[int] = None,
        score_cache_capacity: Optional[int] = None,
        reader: Optional[IO[str]] = None,
        writer: Optional[IO[str]] = None,
        name: str = "worker",
    ) -> None:
        if (artifact_dir is None) == (tenants is None):
            raise ValueError(
                "pass exactly one of artifact_dir or tenants"
            )
        if tenants is None:
            tenants = {DEFAULT_TENANT: artifact_dir}
        self.name = name
        self._reader = reader if reader is not None else sys.stdin
        self._writer = writer if writer is not None else sys.stdout
        self._write_lock = threading.Lock()
        config = ServiceConfig(detection_workers=detection_workers)
        if cache_capacity is not None:
            config = replace(config, cache_capacity=cache_capacity)

        def load(spec: TenantSpec) -> ESharp:
            system = ESharp.from_artifact(spec.artifact_dir)
            if score_cache_capacity is not None:
                system.detector.configure_score_cache(
                    cache_capacity=score_cache_capacity
                )
            return system

        self.service = open_host(
            tuple(
                TenantSpec(tenant, tenants[tenant])
                for tenant in sorted(tenants)
            ),
            config,
            loader=load,
        )
        self.tenants = self.service.tenants()
        self._cancel_lock = threading.Lock()
        #: ids handed to the pool that no thread has picked up yet; a
        #: cancel is recorded only for one of these, so both sets drain
        #: as requests start and neither outlives the work it names
        self._queued: set = set()  # guarded-by: _cancel_lock
        self._cancelled: set = set()  # guarded-by: _cancel_lock

    # -- wire I/O ---------------------------------------------------------------

    def _write(self, message: dict) -> None:
        with self._write_lock:
            write_message(
                self._writer,
                message,
                chaos_site="wire.worker.write",
                chaos_context={"worker": self.name},
            )

    def _reply_ok(self, request_id, payload) -> None:
        self._write({"id": request_id, "ok": payload})

    def _reply_error(self, request_id, exc: BaseException) -> None:
        self._write({"id": request_id, "error": error_to_wire(exc)})

    # -- request handling -------------------------------------------------------

    def _handle(self, message: dict, received_at: float) -> None:
        request_id = message.get("id")
        with self._cancel_lock:
            self._queued.discard(request_id)
            cancelled = request_id in self._cancelled
            self._cancelled.discard(request_id)
        if cancelled:
            self._reply_error(
                request_id, RuntimeError("cancelled before start")
            )
            return
        try:
            # the reply sits inside the try: a payload too large for one
            # frame is refused by write_message and reported typed
            self._reply_ok(request_id, self._dispatch(message, received_at))
        except BaseException as exc:  # noqa: BLE001 - typed over the wire
            self._reply_error(request_id, exc)

    def _budget_remaining(
        self, message: dict, received_at: Optional[float]
    ) -> Optional[float]:
        """The request's surviving budget after its queue wait, typed-fatal
        when the wait already spent it."""
        budget = message.get("budget")
        if budget is None:
            return None
        budget = float(budget)
        queued = (
            0.0
            if received_at is None
            else time.perf_counter() - received_at
        )
        remaining = budget - queued
        if remaining <= 0:
            raise DeadlineExceededError(
                f"worker {self.name}: budget {budget:.3f}s spent in queue "
                f"({queued:.3f}s) before dispatch",
                budget_seconds=budget,
                elapsed_seconds=queued,
            )
        return remaining

    def _dispatch(self, message: dict, received_at: Optional[float] = None):
        op = message.get("op")
        tenant = str(message.get("tenant", DEFAULT_TENANT))
        fire(
            "worker.dispatch",
            op=op or "",
            worker=getattr(self, "name", ""),
            tenant=tenant,
        )
        if op == "ping":
            return "pong"
        if op == "query":
            answer = self.service.query(
                tenant,
                message["query"],
                message.get("min_zscore"),
                budget_seconds=self._budget_remaining(message, received_at),
            )
            return answer_to_wire(answer)
        if op == "partial":
            limit = limit_from_wire(message)
            pool = self.service.score_partial(
                tenant,
                message["query"],
                [(index, term) for index, term in message["terms"]],
                limit=limit,
                budget_seconds=self._budget_remaining(message, received_at),
            )
            return partial_to_wire(pool)
        if op == "health":
            return self.service.health().to_dict()
        if op == "preload":
            return self.service.stage(tenant, message["path"])
        if op == "promote":
            try:
                return self.service.promote(
                    tenant, expected_version=message.get("expected_version")
                )
            except TenantStageError as exc:
                raise PromotionError("promote before preload") from exc
        raise WorkerProtocolError(f"unknown op {op!r}")

    # -- the main loop ----------------------------------------------------------

    def _accept(self, line: str, executor: ThreadPoolExecutor) -> bool:
        """Route one request line; ``False`` once the peer said shutdown."""
        received_at = time.perf_counter()
        message = parse_message(line)
        op = message.get("op")
        if op == "shutdown":
            self._reply_ok(message.get("id"), "bye")
            return False
        if op == "cancel":
            # too late for a request that already started (or finished):
            # there is nothing left to drop
            target = message.get("target")
            with self._cancel_lock:
                if target in self._queued:
                    self._cancelled.add(target)
            return True
        with self._cancel_lock:
            self._queued.add(message.get("id"))
        executor.submit(self._handle, message, received_at)
        return True

    def run(self) -> int:
        executor = ThreadPoolExecutor(
            max_workers=WORKER_THREADS, thread_name_prefix="fleet-worker"
        )
        self._write(
            {
                "op": "ready",
                "version": self.service.default_version(),
                "tenants": list(self.tenants),
            }
        )
        try:
            while True:
                try:
                    line = read_frame(self._reader)
                    if line is None:
                        break
                    if line.strip() and not self._accept(line, executor):
                        break
                except (WorkerProtocolError, TypeError) as exc:
                    # a bad frame (oversize, undecodable, unhashable id)
                    # is reported and skipped; a broken stream ends the loop
                    self._write({"id": None, "error": error_to_wire(exc)})
        finally:
            executor.shutdown(wait=True)
            self.service.close()
        return 0


def serve_worker(
    artifact_dir: Optional[str] = None,
    *,
    tenants: Optional[Mapping[str, str]] = None,
    detection_workers: int = 2,
    cache_capacity: Optional[int] = None,
    score_cache_capacity: Optional[int] = None,
    name: str = "worker",
) -> int:
    """CLI entry point for ``python -m repro fleet-worker``."""
    from repro.chaos import inject

    # before the artifact loads, so a plan can fault warm start too
    inject.install_from_env()
    worker = FleetWorker(
        artifact_dir,
        tenants=tenants,
        detection_workers=detection_workers,
        cache_capacity=cache_capacity,
        score_cache_capacity=score_cache_capacity,
        name=name,
    )
    return worker.run()
