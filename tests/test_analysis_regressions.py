"""Regression tests for the violations the analyzer surfaced (PR 7).

Each test pins one concrete fix: typed errors where bare builtins used
to escape, stats reads that now take their lock, and the artifact
serialization that used to run inside the swap lock.
"""

from __future__ import annotations

import io

import pytest

from repro.analysis.lockwatch import LockWatch, install, uninstall
from repro.artifact.errors import ArtifactError, ArtifactVersionError
from repro.artifact.store import ArtifactBuilder
from repro.fleet.errors import (
    FleetError,
    PromotionError,
    WorkerProtocolError,
)
from repro.fleet.merge import merge_partials
from repro.fleet.worker import FleetWorker
from repro.serving.quotas import FairAdmissionController
from repro.serving.errors import AdmissionProtocolError, ServingError
from repro.serving.snapshot import StaleSnapshotError


class TestTypedErrors:
    def test_admission_release_without_acquire(self):
        with pytest.raises(AdmissionProtocolError):
            FairAdmissionController().release("default")
        # still a RuntimeError for pre-hierarchy callers
        assert issubclass(AdmissionProtocolError, RuntimeError)

    def test_worker_promote_before_preload(self, tenant_artifacts):
        pipe = io.StringIO()
        worker = FleetWorker(
            str(tenant_artifacts["a"]), reader=pipe, writer=pipe
        )
        try:
            with pytest.raises(PromotionError):
                FleetWorker._dispatch(worker, {"op": "promote"})
        finally:
            worker.service.close()

    def test_worker_unknown_op(self):
        worker = FleetWorker.__new__(FleetWorker)
        with pytest.raises(WorkerProtocolError):
            FleetWorker._dispatch(worker, {"op": "definitely-not-an-op"})

    def test_merge_with_no_pools(self):
        with pytest.raises(FleetError):
            merge_partials([], threshold=0.0, max_results=10)

    def test_finalize_rejects_bad_version_typed(self):
        builder = ArtifactBuilder.__new__(ArtifactBuilder)
        with pytest.raises(ArtifactVersionError):
            builder.finalize(0)
        assert issubclass(ArtifactVersionError, ArtifactError)

    def test_stale_snapshot_error_joined_the_hierarchy(self):
        assert issubclass(StaleSnapshotError, ServingError)
        # the re-parenting must not break RuntimeError handlers
        assert issubclass(StaleSnapshotError, RuntimeError)


class TestStatsReadsTakeTheirLock:
    """The counter properties used to read shared state without the lock;
    under the sanitizer, each read must now acquire it."""

    def test_singleflight_properties_acquire(self):
        watch = install(LockWatch())
        try:
            from repro.serving.singleflight import SingleFlight

            flight = SingleFlight()
            before = watch.acquisitions
            assert flight.leaders == 0
            assert flight.coalesced == 0
            assert watch.acquisitions >= before + 2
        finally:
            uninstall()

    def test_scheduler_properties_acquire(self):
        watch = install(LockWatch())
        try:
            from repro.serving.workers import MicroBatchScheduler, WorkerPool

            pool = WorkerPool(1, name="t-an-reg")
            scheduler = MicroBatchScheduler(pool)
            try:
                before = watch.acquisitions
                assert scheduler.batches_dispatched == 0
                assert scheduler.coalesced == 0
                assert watch.acquisitions >= before + 2
            finally:
                scheduler.close()
                pool.shutdown()
        finally:
            uninstall()


class TestSaveArtifactOutsideSwapLock:
    def test_serialization_runs_with_the_lock_released(
        self, system, tmp_path, monkeypatch
    ):
        """save_artifact() collects under _swap_lock but must write
        outside it — the disk I/O used to stall refresh/promote."""
        import repro.artifact as artifact_pkg

        observed = {}
        real = artifact_pkg.save_artifact

        def spying_save(path, **kwargs):
            observed["locked_during_write"] = system._swap_lock.locked()
            return real(path, **kwargs)

        monkeypatch.setattr(artifact_pkg, "save_artifact", spying_save)
        manifest = system.save_artifact(tmp_path / "artifact")
        assert observed["locked_during_write"] is False
        assert manifest.snapshot_version == system.snapshots.version
