"""System-level artifact behaviour: build/serve separation end to end.

The contract under test is the round-trip exactness acceptance
criterion: for a fixed config/seed, a warm start from an artifact
answers queries *identically* to the in-process build that saved it —
same experts, same scores, same snapshot semantics — plus the staged
checkpoint/resume behaviour of the offline dataflow and the
cross-process persistence of the incremental refresher.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest

from repro.artifact import (
    ArtifactBuilder,
    ArtifactCorruptError,
    ArtifactError,
    ArtifactIncompleteError,
    ArtifactMismatchError,
    ArtifactVersionError,
    load_artifact,
    read_manifest,
)
from repro.core.config import ESharpConfig
from repro.core.esharp import ESharp
from repro.core.offline import OFFLINE_STAGES, OfflinePipeline
from repro.querylog.generator import QueryLogGenerator
from repro.querylog.store import QueryLogStore
from repro.serving.snapshot import SnapshotHolder, StaleSnapshotError


@pytest.fixture(scope="module")
def artifact_dir(system, tmp_path_factory):
    root = tmp_path_factory.mktemp("artifact") / "generation-1"
    system.save_artifact(root)
    return root


def sample_queries(system) -> list[str]:
    world = system.offline.world
    topics = sorted(world.topics, key=lambda t: -t.popularity)[:5]
    return [t.canonical.text for t in topics] + ["no such phrase"]


def _tiny_config(seed: int = 4242) -> ESharpConfig:
    small = ESharpConfig.small(seed=seed)
    return replace(
        small,
        querylog=replace(small.querylog, impressions=15_000, min_support=10),
        microblog=replace(small.microblog, tweets=4_000),
    )


class TestWarmStartExactness:
    def test_answers_are_identical_to_the_builder(self, system, artifact_dir):
        loaded = ESharp.from_artifact(artifact_dir)
        for query in sample_queries(system):
            assert system.find_experts(query) == loaded.find_experts(query)
            assert system.find_experts_baseline(
                query
            ) == loaded.find_experts_baseline(query)
            assert system.expansion_terms(query) == loaded.expansion_terms(
                query
            )

    def test_snapshot_version_is_stamped_from_the_manifest(
        self, system, artifact_dir
    ):
        manifest = read_manifest(artifact_dir)
        assert manifest.snapshot_version == system.snapshots.version
        loaded = ESharp.from_artifact(artifact_dir)
        assert loaded.snapshots.version == manifest.snapshot_version

    def test_offline_state_is_byte_identical(self, system, artifact_dir):
        loaded = load_artifact(artifact_dir)
        ours = system.offline
        assert list(loaded.offline.store.iter_clicks()) == list(
            ours.store.iter_clicks()
        )
        assert list(loaded.offline.weighted_graph.edges()) == list(
            ours.weighted_graph.edges()
        )
        assert (
            loaded.offline.multigraph.sorted_edges()
            == ours.multigraph.sorted_edges()
        )
        assert (
            loaded.offline.partition.assignment == ours.partition.assignment
        )
        assert loaded.offline.domain_store.domains() == ours.domain_store.domains()
        assert loaded.offline.clustering_history == ours.clustering_history

    def test_build_accounting_survives_the_round_trip(
        self, system, artifact_dir
    ):
        loaded = load_artifact(artifact_dir)
        ours = {r.name: r for r in system.offline.clock.reports}
        theirs = {r.name: r for r in loaded.offline.clock.reports}
        assert set(theirs) == set(ours)
        for name, report in ours.items():
            assert theirs[name].workers == report.workers
            assert theirs[name].bytes_read == report.bytes_read
            assert theirs[name].bytes_written == report.bytes_written

    def test_loaded_system_serves(self, system, artifact_dir):
        loaded = ESharp.from_artifact(artifact_dir)
        query = sample_queries(system)[0]
        with loaded.serve() as service:
            answer = service.query(query)
        assert answer.snapshot_version == system.snapshots.version
        assert list(answer.experts) == system.find_experts(query)

    def test_expected_config_guard(self, artifact_dir):
        with pytest.raises(ArtifactMismatchError):
            ESharp.from_artifact(
                artifact_dir, expected_config=ESharpConfig.small(seed=999)
            )


class TestCorruptionHandling:
    @pytest.fixture
    def copy(self, artifact_dir, tmp_path):
        target = tmp_path / "copy"
        shutil.copytree(artifact_dir, target)
        return target

    def test_truncated_stage_file_is_typed(self, copy):
        # a torn sidecar write is caught structurally (size vs manifest)
        # before any column decodes
        manifest = read_manifest(copy)
        files = manifest.stages["domains"].files
        bin_path = copy / files["domain_store.bin"].filename
        bin_path.write_bytes(bin_path.read_bytes()[:-20])
        with pytest.raises(ArtifactCorruptError):
            load_artifact(copy)

    def test_bit_flip_is_typed(self, copy):
        # flip the checksummed meta file (a payload flip inside the .bin
        # is detected by verify_payload, which is on-demand by design —
        # see sidecar.py)
        manifest = read_manifest(copy)
        entry = manifest.stages["log"].files["store.meta"]
        path = copy / entry.filename
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(ArtifactCorruptError):
            load_artifact(copy)

    def test_missing_stage_file_is_typed(self, copy):
        manifest = read_manifest(copy)
        files = manifest.stages["corpus"].files
        (copy / files["corpus.bin"].filename).unlink()
        with pytest.raises(ArtifactCorruptError):
            load_artifact(copy)

    def test_incomplete_build_refuses_to_load(self, copy):
        data = json.loads((copy / "manifest.json").read_text())
        data["complete"] = False
        (copy / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(ArtifactIncompleteError):
            load_artifact(copy)

    def test_missing_manifest_is_typed(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path)

    def test_pre_sidecar_directory_asks_for_a_rebuild(self, system, copy):
        # a dual-form directory (bare-name entry beside the sidecar pair)
        # keeps loading: the reader never looks at the bare entry
        data = json.loads((copy / "manifest.json").read_text())
        files = data["stages"]["log"]["files"]
        files["store"] = dict(files["store.meta"], filename="stage-store.jsonl")
        (copy / "manifest.json").write_text(json.dumps(data))
        assert load_artifact(copy).offline.store.impressions == (
            system.offline.store.impressions
        )
        # what a pre-sidecar build left behind — a complete manifest whose
        # query-log stage is listed only under its bare output name — is
        # a version problem
        del files["store.meta"], files["store.bin"]
        (copy / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(ArtifactVersionError, match="rebuild"):
            load_artifact(copy)
        # and a checkpointed rebuild treats that stage as absent
        builder = ArtifactBuilder(copy, system.config)
        assert not builder.has_stage("log", ("store",))
        assert builder.has_stage("domains", ("domain_store",))

    def test_save_artifact_refuses_the_removed_encoding(self, system, tmp_path):
        with pytest.raises(ValueError):
            system.save_artifact(tmp_path / "out", legacy_columns=True)
        assert not (tmp_path / "out").exists()


class TestCheckpointedBuilds:
    def test_resume_skips_completed_stages(self, tmp_path, monkeypatch):
        config = _tiny_config()
        out = tmp_path / "artifact"
        first = ESharp(config).build(artifact_dir=out)

        # a second build must load every stage instead of recomputing:
        # make recomputation impossible and assert byte-equal results
        def forbidden(self, context, clock):  # pragma: no cover - guard
            raise AssertionError("stage recomputed despite valid checkpoint")

        for stage in ("log", "extract", "cluster", "domains"):
            monkeypatch.setattr(OfflinePipeline, f"_stage_{stage}", forbidden)
        resumed = ESharp(config).build(artifact_dir=out)
        assert (
            resumed.offline.domain_store.domains()
            == first.offline.domain_store.domains()
        )
        assert resumed.find_experts(
            "no such phrase"
        ) == first.find_experts("no such phrase")

    def test_resume_recomputes_from_the_damaged_stage_on(self, tmp_path):
        config = _tiny_config()
        out = tmp_path / "artifact"
        first = ESharp(config).build(artifact_dir=out)
        manifest = read_manifest(out)

        # wreck the clustering checkpoint: resume must keep the extract
        # prefix, recompute cluster + domains, and still match exactly
        entry = manifest.stages["cluster"].files["partition.bin"]
        (out / entry.filename).write_bytes(b"garbage")
        resumed = ESharp(config).build(artifact_dir=out)
        assert (
            resumed.offline.partition.assignment
            == first.offline.partition.assignment
        )
        assert (
            resumed.offline.domain_store.domains()
            == first.offline.domain_store.domains()
        )
        # and the repaired artifact is loadable again
        loaded = ESharp.from_artifact(out)
        assert (
            loaded.offline.partition.assignment
            == first.offline.partition.assignment
        )

    def test_builder_refuses_a_foreign_directory(self, tmp_path):
        config = _tiny_config()
        out = tmp_path / "artifact"
        ArtifactBuilder(out, config)
        with pytest.raises(ArtifactMismatchError):
            ArtifactBuilder(out, _tiny_config(seed=1))

    def test_unfinished_checkpoint_is_not_loadable(self, tmp_path):
        config = _tiny_config()
        out = tmp_path / "artifact"
        builder = ArtifactBuilder(out, config)
        OfflinePipeline(config).run(checkpoint=builder)
        # stages exist, but finalize() never ran (no corpus, no version)
        with pytest.raises(ArtifactIncompleteError):
            load_artifact(out)

    def test_injected_inputs_bypass_the_checkpoint_entirely(self, tmp_path):
        config = _tiny_config()
        out = tmp_path / "artifact"
        builder = ArtifactBuilder(out, config)
        configured = OfflinePipeline(config).run(checkpoint=builder)
        files_before = {
            path.name: path.read_bytes() for path in out.glob("stage-*")
        }

        # a run on an injected store must neither reuse the checkpointed
        # stages (they describe the configured log, not this one) nor
        # overwrite them (stages derived from the injected log next to
        # the configured log file would poison future resumes)
        store = QueryLogStore(min_support=1)
        artifacts = OfflinePipeline(config).run(
            world=None, store=store, checkpoint=builder
        )
        assert artifacts.store is store
        assert artifacts.multigraph.vertex_count == 0
        files_after = {
            path.name: path.read_bytes() for path in out.glob("stage-*")
        }
        assert files_after == files_before

        # and a later configured resume still matches the configured run
        resumed = OfflinePipeline(config).run(
            checkpoint=ArtifactBuilder(out, config)
        )
        assert (
            resumed.domain_store.domains() == configured.domain_store.domains()
        )


class TestRefresherPersistence:
    def _delta_batches(self, system, count=2, size=600):
        """Fresh impression batches the built system has never seen."""
        config = system.config
        generator = QueryLogGenerator(
            system.offline.world,
            replace(config.querylog, seed=config.querylog.seed + 1),
        )
        stream = generator.impressions(count * size)
        batches = []
        rows = list(stream)
        for index in range(count):
            store = QueryLogStore(min_support=config.querylog.min_support)
            store.extend(rows[index * size : (index + 1) * size])
            batches.append(store)
        return batches

    def test_refresh_resumes_across_processes(self, tmp_path):
        """The missing half of PR 4: a delta refresh, a save, a load in a
        'new process', and the next delta — byte-identical to the same
        two deltas applied in one process."""
        config = _tiny_config()
        stayed = ESharp(config).build()
        batch1, batch2 = self._delta_batches(stayed)

        stayed.refresh_domains_delta(batch1.copy())
        moved_dir = tmp_path / "after-delta-1"
        stayed.save_artifact(moved_dir)

        manifest = read_manifest(moved_dir)
        assert "refresher" in manifest.stages  # join state persisted

        moved = ESharp.from_artifact(moved_dir)
        assert moved._delta_refresher is not None  # resumes, not re-seeds
        assert moved.snapshots.version == stayed.snapshots.version

        stats_stayed = stayed.refresh_domains_delta(batch2.copy())
        stats_moved = moved.refresh_domains_delta(batch2.copy())

        assert stats_moved.dirty_queries == stats_stayed.dirty_queries
        assert stats_moved.edges_added == stats_stayed.edges_added
        assert stats_moved.edges_changed == stats_stayed.edges_changed
        assert stats_moved.edges_removed == stats_stayed.edges_removed
        assert stats_moved.cluster_mode == stats_stayed.cluster_mode

        ours, theirs = stayed.offline, moved.offline
        assert list(theirs.weighted_graph.edges()) == list(
            ours.weighted_graph.edges()
        )
        assert theirs.partition.assignment == ours.partition.assignment
        assert theirs.domain_store.domains() == ours.domain_store.domains()
        assert moved.snapshots.version == stayed.snapshots.version

    def test_resaving_without_a_refresher_drops_the_stale_stage(
        self, tmp_path
    ):
        """A reused artifact directory must not resurrect an earlier
        save's refresher stage: seeding a new generation's delta path
        with another generation's join state would silently break the
        delta ≡ full-rebuild equivalence."""
        config = _tiny_config()
        first = ESharp(config).build()
        (batch,) = self._delta_batches(first, count=1)
        first.refresh_domains_delta(batch)
        out = tmp_path / "reused"
        first.save_artifact(out)
        assert "refresher" in read_manifest(out).stages

        second = ESharp(config).build()  # same config, no refresher
        second.save_artifact(out)
        manifest = read_manifest(out)
        assert "refresher" not in manifest.stages
        loaded = ESharp.from_artifact(out)
        assert loaded._delta_refresher is None
        assert loaded.offline.store.impressions == second.offline.store.impressions

    def test_checkpointed_rebuild_drops_a_stale_refresher(self, tmp_path):
        config = _tiny_config()
        first = ESharp(config).build()
        (batch,) = self._delta_batches(first, count=1)
        first.refresh_domains_delta(batch)
        out = tmp_path / "reused"
        first.save_artifact(out)

        rebuilt = ESharp(config).build(artifact_dir=out)
        assert rebuilt.is_built
        manifest = read_manifest(out)
        assert "refresher" not in manifest.stages
        assert ESharp.from_artifact(out)._delta_refresher is None

    def test_artifact_without_refresher_reseeds_from_published(
        self, tmp_path
    ):
        config = _tiny_config()
        system = ESharp(config).build()
        out = tmp_path / "plain"
        system.save_artifact(out)
        manifest = read_manifest(out)
        assert "refresher" not in manifest.stages
        loaded = ESharp.from_artifact(out)
        assert loaded._delta_refresher is None
        # the delta path still works — it seeds from the loaded artifacts
        (batch,) = self._delta_batches(loaded, count=1)
        stats = loaded.refresh_domains_delta(batch)
        assert stats.impressions == batch.impressions


class TestVersionedPublish:
    def test_publish_at_explicit_version(self, system):
        holder = SnapshotHolder()
        snapshot = system.snapshots.get()
        published = holder.publish(
            snapshot.offline, snapshot.pipeline, version=41
        )
        assert published.version == 41
        assert holder.version == 41
        next_snapshot = holder.publish(snapshot.offline, snapshot.pipeline)
        assert next_snapshot.version == 42

    def test_publish_below_current_version_is_stale(self, system):
        holder = SnapshotHolder()
        snapshot = system.snapshots.get()
        holder.publish(snapshot.offline, snapshot.pipeline, version=5)
        with pytest.raises(StaleSnapshotError):
            holder.publish(snapshot.offline, snapshot.pipeline, version=5)
        with pytest.raises(StaleSnapshotError):
            holder.publish(snapshot.offline, snapshot.pipeline, version=3)
        assert holder.version == 5

    def test_stage_table_matches_the_manifest(self, artifact_dir):
        manifest = read_manifest(artifact_dir)
        for spec in OFFLINE_STAGES:
            if not spec.checkpointable:
                continue
            entry = manifest.stages[spec.name]
            # every output is exactly its paired <output>.bin/.meta files
            assert set(entry.files) == {
                f"{output}.{suffix}"
                for output in spec.outputs
                for suffix in ("bin", "meta")
            }
