"""S12 — The serving tier: e# under concurrent traffic.

The paper's production deployment answers interactive queries (Table 9)
while the offline stage rebuilds the domain collection weekly.  This
package supplies the machinery between those two facts:

* :mod:`repro.serving.snapshot` — atomically hot-swappable serving state
  (zero-downtime weekly refresh)
* :mod:`repro.serving.cache` — bounded LRU+TTL result cache with counters
* :mod:`repro.serving.singleflight` — duplicate in-flight coalescing
* :mod:`repro.serving.workers` — worker pool + micro-batch scheduler
* :mod:`repro.serving.quotas` — admission control: backpressure, per-tenant
  quotas, weighted-fair grants (the one controller)
* :mod:`repro.serving.service` — the :class:`ExpertService` facade and the
  :class:`ServingRuntime` bundle it serves on
* :mod:`repro.serving.tenancy` — many corpora behind one shared runtime
* :mod:`repro.serving.loadgen` — Zipf workload replay + latency harness

Exports resolve lazily, so importing one light piece (say, the errors)
never drags in the whole service stack and its thread machinery.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "AdmissionStats": "repro.serving.quotas",
    "CacheInfo": "repro.serving.cache",
    "LRUCache": "repro.serving.cache",
    "DEFAULT_TENANT": "repro.serving.service",
    "ExpertService": "repro.serving.service",
    "PartialPool": "repro.serving.service",
    "ReplicaHealthReport": "repro.serving.service",
    "ServiceConfig": "repro.serving.service",
    "ServiceStats": "repro.serving.service",
    "ServedAnswer": "repro.serving.service",
    "ServingRuntime": "repro.serving.service",
    "TenantHealth": "repro.serving.service",
    "FairAdmissionController": "repro.serving.quotas",
    "TenantAdmissionStats": "repro.serving.quotas",
    "TenantQuota": "repro.serving.quotas",
    "MultiTenantService": "repro.serving.tenancy",
    "TenantClient": "repro.serving.tenancy",
    "TenantRegistry": "repro.serving.tenancy",
    "TenantSpec": "repro.serving.tenancy",
    "ServiceClosedError": "repro.serving.errors",
    "ServiceOverloadedError": "repro.serving.errors",
    "ServingError": "repro.serving.errors",
    "TenantOverloadedError": "repro.serving.errors",
    "TenantStageError": "repro.serving.errors",
    "UnknownTenantError": "repro.serving.errors",
    "ServiceSnapshot": "repro.serving.snapshot",
    "SnapshotHolder": "repro.serving.snapshot",
    "SingleFlight": "repro.serving.singleflight",
    "MicroBatchScheduler": "repro.serving.workers",
    "PoolStats": "repro.serving.workers",
    "WorkerPool": "repro.serving.workers",
    "LatencyReport": "repro.serving.loadgen",
    "LoadGenerator": "repro.serving.loadgen",
    "WorkloadConfig": "repro.serving.loadgen",
    "build_workload": "repro.serving.loadgen",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
