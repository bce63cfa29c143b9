"""Replica handles: the router's uniform view of a serving worker.

Two transports behind one duck type, one host behind both — every
replica serves through a
:class:`~repro.serving.tenancy.MultiTenantService`:

* :class:`InProcessReplica` — the host lives in this process; calls are
  plain method calls.  Given ``tenant_specs`` it serves those corpora;
  given one loaded :class:`~repro.core.esharp.ESharp` it serves that
  system as tenant ``default``.
* :class:`SubprocessReplica` — a ``python -m repro fleet-worker`` child
  warm-started from artifact directories (``tenants={name: dir}``, or
  one ``artifact_dir`` as tenant ``default``), spoken to over the
  JSON-lines protocol of :mod:`repro.fleet.wire`; a reader thread
  resolves pending futures by request id, so many requests overlap on
  one worker.

Both expose the same surface: ``query`` / ``score_partial`` (the scatter
unit: a term slice's top ``limit``, ``limit`` required) / ``health`` /
``preload`` + ``promote`` (the two promotion phases) / ``close``, each
serving call taking a ``tenant`` keyword (``"default"`` when omitted),
plus the resilience hooks the supervisor leans on: ``is_alive`` (cheap
liveness), ``ping(timeout=...)`` (bounded responsiveness probe),
``tenants`` (what the replica serves — the supervisor records it on
restart so a healed replica provably recovered every corpus), and the
``supports_budget`` / ``supports_tenants`` markers (the router only
passes ``budget_seconds`` / ``tenant`` to replicas that declare them, so
simpler duck-typed test doubles keep working).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Iterable, Optional, Tuple

from repro.chaos.inject import fire
from repro.fleet.errors import (
    PromotionError,
    ReplicaStartupError,
    WorkerProtocolError,
)
from repro.fleet.wire import (
    answer_from_wire,
    error_from_wire,
    health_from_wire,
    parse_message,
    partial_from_wire,
    read_frame,
    write_message,
)
from repro.serving.errors import DeadlineExceededError, TenantStageError
from repro.serving.service import (
    DEFAULT_TENANT,
    PartialPool,
    ReplicaHealthReport,
    ServedAnswer,
)
from repro.serving.tenancy import TenantSpec, open_host

#: stderr lines a subprocess replica retains for startup diagnostics
STDERR_TAIL_LINES = 50

#: slack past a request's budget before the client gives up on the reply
BUDGET_GRACE_SECONDS = 0.25


class InProcessReplica:
    """A replica living in the router's process (one thread pool each).

    ``InProcessReplica(name, system)`` serves one loaded system as
    tenant ``default``; ``InProcessReplica(name, tenant_specs=...)``
    serves the named corpora from their artifact directories.
    """

    kind = "thread"
    supports_budget = True
    supports_tenants = True

    def __init__(
        self,
        name: str,
        system=None,
        service_config=None,
        *,
        tenant_specs=None,
        max_resident: Optional[int] = None,
    ) -> None:
        if (system is None) == (tenant_specs is None):
            raise ValueError(
                "pass exactly one of a system or tenant_specs, not both"
            )
        self.name = name
        adopted = system is not None
        if adopted:
            tenant_specs = (TenantSpec(DEFAULT_TENANT, "<adopted>"),)
        self.service = open_host(
            tenant_specs,
            service_config,
            max_resident=max_resident,
            loader=(lambda _spec: system) if adopted else None,
        )
        if adopted:
            # no directory to reload it from: never evicted
            self.service.registry.mark_dirty(DEFAULT_TENANT)
        self.tenants: Tuple[str, ...] = self.service.tenants()
        self._closed = False

    def query(
        self,
        query: str,
        min_zscore: Optional[float] = None,
        *,
        budget_seconds: Optional[float] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> ServedAnswer:
        fire("replica.call", replica=self.name, op="query", tenant=tenant)
        return self.service.query(
            tenant, query, min_zscore, budget_seconds=budget_seconds
        )

    def score_partial(
        self,
        query: str,
        indexed_terms: Iterable[Tuple[int, str]],
        *,
        limit: int,
        budget_seconds: Optional[float] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> PartialPool:
        fire("replica.call", replica=self.name, op="partial", tenant=tenant)
        return self.service.score_partial(
            tenant,
            query,
            indexed_terms,
            limit=limit,
            budget_seconds=budget_seconds,
        )

    def health(self) -> ReplicaHealthReport:
        return self.service.health()

    def is_alive(self) -> bool:
        return not self._closed

    def ping(self, timeout: Optional[float] = None) -> bool:
        return not self._closed

    @property
    def snapshot_version(self) -> int:
        return self.service.default_version()

    def preload(
        self, artifact_dir, *, tenant: str = DEFAULT_TENANT
    ) -> int:
        """Phase one: load the artifact fully, publish nothing."""
        return self.service.stage(tenant, artifact_dir)

    def promote(
        self,
        expected_version: Optional[int] = None,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> int:
        """Phase two: CAS-flip the preloaded generation into serving."""
        try:
            return self.service.promote(
                tenant, expected_version=expected_version
            )
        except TenantStageError as exc:
            raise PromotionError(
                f"replica {self.name}: promote() before preload()"
            ) from exc

    def close(self) -> None:
        self._closed = True
        self.service.close()


class SubprocessReplica:
    """A replica in its own process, warm-started from artifacts.

    ``tenants={name: artifact_dir}`` names the corpora (repeated
    ``--tenant NAME=DIR`` flags); a lone ``artifact_dir`` is
    ``{"default": artifact_dir}`` (``--from-artifact DIR``).  The ready
    handshake reports back which tenants the worker serves.
    """

    kind = "process"
    supports_budget = True
    supports_tenants = True

    def __init__(
        self,
        name: str,
        artifact_dir=None,
        *,
        tenants: Optional[dict] = None,
        detection_workers: int = 2,
        cache_capacity: Optional[int] = None,
        startup_timeout_seconds: float = 60.0,
        request_timeout_seconds: float = 300.0,
        python: Optional[str] = None,
        extra_env: Optional[dict] = None,
    ) -> None:
        if (artifact_dir is None) == (tenants is None):
            raise ValueError(
                "pass exactly one of artifact_dir or tenants"
            )
        if tenants is None:
            tenants = {DEFAULT_TENANT: artifact_dir}
        self.name = name
        self._timeout = request_timeout_seconds
        command = [
            python or sys.executable,
            "-m",
            "repro",
            "fleet-worker",
        ]
        for tenant_name in sorted(tenants):
            command += ["--tenant", f"{tenant_name}={tenants[tenant_name]}"]
        command += [
            "--detection-workers",
            str(detection_workers),
            "--name",
            name,
        ]
        if cache_capacity is not None:
            command += ["--cache-capacity", str(cache_capacity)]
        env = dict(os.environ)
        src_root = str(pathlib.Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        if extra_env:
            # e.g. REPRO_CHAOS_PLAN: a fault plan scoped to this worker
            env.update({str(k): str(v) for k, v in extra_env.items()})
        self._process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            # captured so a warm-start crash reports *why* (stderr tail
            # rides on ReplicaStartupError) instead of scrolling away
            stderr=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            env=env,
        )
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, Future] = {}  # guarded-by: _pending_lock
        self._next_id = 0  # guarded-by: _pending_lock
        #: why the reader thread stopped (None while it runs); nothing
        #: can resolve a reply after that, so no request is accepted
        self._reader_error: Optional[WorkerProtocolError] = None  # guarded-by: _pending_lock
        self._stderr_lock = threading.Lock()
        self._stderr_tail: deque = deque(  # guarded-by: _stderr_lock
            maxlen=STDERR_TAIL_LINES
        )
        self._ready: Future = Future()
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name=f"fleet-{name}-reader", daemon=True
        )
        self._reader.start()
        self._stderr_reader = threading.Thread(
            target=self._drain_stderr,
            name=f"fleet-{name}-stderr",
            daemon=True,
        )
        self._stderr_reader.start()
        try:
            ready = self._ready.result(timeout=startup_timeout_seconds)
        except FuturesTimeout:
            self.close()
            raise ReplicaStartupError(
                f"replica {name}: worker not ready within "
                f"{startup_timeout_seconds}s",
                stderr_tail=self.stderr_tail(),
                exit_code=self._process.poll(),
            ) from None
        except WorkerProtocolError as exc:
            self.close()
            raise ReplicaStartupError(
                f"replica {name}: worker died during warm start: {exc}",
                stderr_tail=self.stderr_tail(),
                exit_code=self._process.poll(),
            ) from exc
        except BaseException:
            self.close()
            raise
        self.snapshot_version = int(ready.get("version", 0))
        self.tenants: Tuple[str, ...] = tuple(ready.get("tenants", ()))

    # -- the uniform replica surface -----------------------------------------

    def query(
        self,
        query: str,
        min_zscore: Optional[float] = None,
        *,
        budget_seconds: Optional[float] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> ServedAnswer:
        payload = {"query": query, "min_zscore": min_zscore, "tenant": tenant}
        if budget_seconds is not None:
            payload["budget"] = budget_seconds
        raw = self._call("query", payload, budget=budget_seconds)
        return answer_from_wire(raw)

    def score_partial(
        self,
        query: str,
        indexed_terms: Iterable[Tuple[int, str]],
        *,
        limit: int,
        budget_seconds: Optional[float] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> PartialPool:
        payload = {
            "query": query,
            "terms": [[int(i), str(t)] for i, t in indexed_terms],
            "limit": limit,
            "tenant": tenant,
        }
        if budget_seconds is not None:
            payload["budget"] = budget_seconds
        raw = self._call("partial", payload, budget=budget_seconds)
        return partial_from_wire(raw)

    def health(self) -> ReplicaHealthReport:
        report = health_from_wire(self._call("health", {}))
        self.snapshot_version = report.snapshot_version
        return report

    @property
    def pid(self) -> int:
        return self._process.pid

    def is_alive(self) -> bool:
        """Cheap liveness: we still own the child, it exists, and the
        reader thread that resolves its replies is still running."""
        with self._pending_lock:
            reading = self._reader_error is None
        return reading and not self._closed and self._process.poll() is None

    def ping(self, timeout: Optional[float] = None) -> bool:
        """Bounded responsiveness probe; never raises."""
        if not self.is_alive():
            return False
        try:
            _, future = self.submit("ping", {})
            return (
                future.result(
                    timeout=self._timeout if timeout is None else timeout
                )
                == "pong"
            )
        except Exception:  # noqa: BLE001 - a probe reports, never raises
            return False

    def preload(self, artifact_dir, *, tenant: str = DEFAULT_TENANT) -> int:
        return int(
            self._call(
                "preload", {"path": str(artifact_dir), "tenant": tenant}
            )
        )

    def promote(
        self,
        expected_version: Optional[int] = None,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> int:
        version = int(
            self._call(
                "promote",
                {"expected_version": expected_version, "tenant": tenant},
            )
        )
        if tenant == DEFAULT_TENANT:
            self.snapshot_version = version
        return version

    def cancel(self, request_id: int) -> None:
        """Best-effort: a not-yet-started request on the worker is dropped."""
        try:
            self._send({"op": "cancel", "target": request_id})
        except WorkerProtocolError:
            pass

    def stderr_tail(self) -> Tuple[str, ...]:
        """The worker's most recent stderr lines (crash diagnostics)."""
        with self._stderr_lock:
            return tuple(self._stderr_tail)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        process = self._process
        if process.poll() is None:
            try:
                self._send({"op": "shutdown", "id": -1})
            except WorkerProtocolError:
                pass
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        self._fail_pending(WorkerProtocolError("worker closed"))

    # -- plumbing --------------------------------------------------------------

    def _send(self, message: dict) -> None:
        stdin = self._process.stdin
        if stdin is None or self._process.poll() is not None:
            raise WorkerProtocolError(
                f"replica {self.name}: worker process is gone"
            )
        try:
            with self._write_lock:
                write_message(
                    stdin,
                    message,
                    chaos_site="wire.client.write",
                    chaos_context={
                        "replica": self.name,
                        "op": message.get("op", ""),
                        "tenant": message.get("tenant", DEFAULT_TENANT),
                    },
                )
        except (BrokenPipeError, ValueError) as exc:
            raise WorkerProtocolError(
                f"replica {self.name}: worker pipe broke"
            ) from exc

    def submit(self, op: str, payload: dict) -> Tuple[int, Future]:
        """Send one request; returns ``(request id, future of raw payload)``."""
        with self._pending_lock:
            if self._closed:
                raise WorkerProtocolError(
                    f"replica {self.name}: already closed"
                )
            if self._reader_error is not None:
                raise WorkerProtocolError(
                    f"replica {self.name}: no longer reading replies "
                    f"({self._reader_error})"
                )
            self._next_id += 1
            request_id = self._next_id
            future: Future = Future()
            self._pending[request_id] = future
        message = {"op": op, "id": request_id}
        message.update(payload)
        try:
            self._send(message)
        except WorkerProtocolError:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise
        return request_id, future

    def _call(self, op: str, payload: dict, budget: Optional[float] = None):
        """One round trip, bounded: the reply must land within the request
        timeout — or, when the call carries a deadline budget, within the
        budget plus a small grace (the worker's own typed deadline reply
        normally arrives first; the bound covers lost frames)."""
        timeout = self._timeout
        if budget is not None:
            timeout = min(timeout, max(0.0, budget) + BUDGET_GRACE_SECONDS)
        request_id, future = self.submit(op, payload)
        try:
            return future.result(timeout=timeout)
        except FuturesTimeout:
            self.cancel(request_id)
            if budget is not None and timeout < self._timeout:
                raise DeadlineExceededError(
                    f"replica {self.name}: no reply to {op!r} within the "
                    f"{budget:.3f}s budget",
                    budget_seconds=budget,
                ) from None
            raise WorkerProtocolError(
                f"replica {self.name}: no reply to {op!r} within {timeout}s"
            ) from None

    def _read_loop(self) -> None:
        stdout = self._process.stdout
        assert stdout is not None
        stopped: Optional[WorkerProtocolError] = None
        try:
            while True:
                line = read_frame(stdout)
                if line is None:
                    break
                if not line.strip():
                    continue
                message = parse_message(line)
                if message.get("op") == "ready":
                    if not self._ready.done():
                        self._ready.set_result(message)
                    continue
                self._resolve(message)
        except WorkerProtocolError as exc:
            # an oversize or undecodable reply: the stream cannot be
            # trusted past it, so this replica is done
            stopped = exc
        finally:
            if stopped is None:
                stopped = WorkerProtocolError(
                    f"replica {self.name}: worker exited "
                    f"(code {self._process.poll()})"
                )
            with self._pending_lock:
                self._reader_error = stopped
            if not self._ready.done():
                self._ready.set_exception(stopped)
            self._fail_pending(stopped)

    def _drain_stderr(self) -> None:
        stderr = self._process.stderr
        if stderr is None:  # pragma: no cover - always piped
            return
        for line in stderr:
            with self._stderr_lock:
                self._stderr_tail.append(line.rstrip("\n"))

    def _resolve(self, message: dict) -> None:
        request_id = message.get("id")
        with self._pending_lock:
            future = self._pending.pop(request_id, None)
        if future is None:  # late reply to a cancelled/abandoned request
            return
        if "error" in message:
            future.set_exception(error_from_wire(message["error"]))
        else:
            future.set_result(message.get("ok"))

    def _fail_pending(self, exc: Exception) -> None:
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)
