"""The e# facade — the library's main entry point.

>>> from repro import ESharp, ESharpConfig
>>> system = ESharp(ESharpConfig.small())   # doctest: +SKIP
>>> system.build()                          # doctest: +SKIP
>>> experts = system.find_experts("columbus bears")  # doctest: +SKIP

``build()`` runs the offline stage (and generates the microblog corpus);
``find_experts`` / ``find_experts_baseline`` answer queries with and
without expansion, which is precisely the comparison of §6.2.

Serving state lives in one atomically hot-swappable
:class:`~repro.serving.snapshot.ServiceSnapshot` — offline artifacts and
online pipeline always change together, so a concurrent reader can never
observe a fresh domain store paired with a stale pipeline (or vice
versa).  ``serve()`` wraps the built system in the concurrent
:class:`~repro.serving.service.ExpertService`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import ESharpConfig
from repro.core.offline import OfflineArtifacts, OfflinePipeline
from repro.core.online import OnlinePipeline, TimedAnswer
from repro.detector.palcounts import PalCountsDetector
from repro.detector.ranking import RankedExpert
from repro.microblog.generator import generate_platform
from repro.microblog.platform import MicroblogPlatform
from repro.serving.snapshot import ServiceSnapshot, SnapshotHolder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.expansion.domainstore import DomainStore
    from repro.serving.service import ExpertService, ServiceConfig


@dataclass(frozen=True)
class StagedGeneration:
    """A fully-loaded serving generation that has NOT been published.

    The prepare half of two-phase promotion: :meth:`ESharp.stage_artifact`
    pays the whole load (artifact decode, corpus restore, candidate-index
    rebuild) without touching the published snapshot, and
    :meth:`ESharp.promote_staged` later flips it in with one CAS.  A
    fleet coordinator stages on every replica first and promotes only
    when all of them succeeded, so readers never observe a mixed-version
    fleet because one replica's disk was slow or its artifact corrupt.
    """

    version: int
    config: ESharpConfig
    offline: OfflineArtifacts
    pipeline: OnlinePipeline
    platform: MicroblogPlatform
    detector: PalCountsDetector


class NotBuiltError(RuntimeError):
    """Raised when the online API is used before :meth:`ESharp.build`."""


class ESharp:
    """End-to-end e# over simulated substrates."""

    def __init__(self, config: ESharpConfig | None = None) -> None:
        self.config = config or ESharpConfig()
        #: the single publish/read point for all swappable serving state
        self.snapshots = SnapshotHolder()
        #: serialises build/refresh (readers never take this lock)
        self._swap_lock = threading.Lock()
        self._platform: MicroblogPlatform | None = None
        self._detector: PalCountsDetector | None = None
        #: incremental-refresh state, pinned to the generation it follows
        self._delta_refresher = None
        #: snapshot version the refresher's state is synced to; any other
        #: writer (build, full refresh) moves the version and forces a
        #: re-seed from the published artifacts
        self._delta_refresher_version = 0

    # -- lifecycle --------------------------------------------------------------

    def build(self, artifact_dir=None) -> "ESharp":
        """Run the offline stage and materialise the microblog corpus.

        ``artifact_dir`` checkpoints the build: every completed stage is
        persisted there as a versioned artifact, a re-run resumes from
        the last completed stage, and the finished directory is loadable
        with :meth:`from_artifact` (warm start — no rebuild).
        """
        builder = None
        with self._swap_lock:
            if artifact_dir is None:
                offline = OfflinePipeline(self.config).run()
                platform = generate_platform(
                    offline.world, self.config.microblog
                )
            else:
                from repro.artifact import ArtifactBuilder

                builder = ArtifactBuilder(artifact_dir, self.config)
                offline = OfflinePipeline(self.config).run(checkpoint=builder)
                platform = builder.load_corpus()
                if platform is None:
                    platform = generate_platform(
                        offline.world, self.config.microblog
                    )
                    builder.save_corpus(platform)
            detector = PalCountsDetector(
                platform,
                ranking=self.config.ranking,
                normalization=self.config.normalization,
            )
            # aggregate the columnar candidate index now, as part of the
            # offline stage, so the first query never pays the build;
            # a checkpointed index (same platform mutation count) is
            # restored instead of re-aggregated
            if detector.engine is not None:
                restored = False
                if builder is not None:
                    packed = builder.load_engine()
                    if packed is not None:
                        restored = detector.engine.restore_packed(*packed)
                if not restored:
                    detector.engine.refresh()
                    if builder is not None:
                        builder.save_engine(detector.engine.export_packed())
            self._platform = platform
            self._detector = detector
            self.snapshots.publish(
                offline, OnlinePipeline(offline.domain_store, detector)
            )
            if builder is not None:
                # a fresh build has no incremental-refresh state: drop any
                # stale stage a previous save left in the reused directory
                builder.drop_stage("refresher")
                if detector.engine is None:
                    builder.drop_stage("engine")
                builder.finalize(snapshot_version=self.snapshots.version)
        return self

    @classmethod
    def from_artifact(
        cls, path, expected_config: ESharpConfig | None = None
    ) -> "ESharp":
        """Warm-start a system from an artifact directory (no rebuild).

        The offline artifacts, microblog corpus and (when present) the
        incremental refresher's join state are loaded byte-identically
        to the build that saved them; only the deterministic world model
        and the detector's derived candidate index are recomputed.  The
        snapshot is published at the version stamped in the manifest, so
        every replica loading the same artifact serves — and cache-keys
        — the same generation.  ``expected_config`` guards against
        loading an artifact built from a different config/seed
        (:class:`~repro.artifact.ArtifactMismatchError`).
        """
        from repro.artifact import load_artifact
        from repro.core.incremental import DeltaRefresh

        loaded = load_artifact(path, expected_config)
        system = cls(loaded.config)
        with system._swap_lock:
            detector = PalCountsDetector(
                loaded.platform,
                ranking=loaded.config.ranking,
                normalization=loaded.config.normalization,
            )
            if detector.engine is not None:
                restored = False
                if loaded.engine is not None:
                    restored = detector.engine.restore_packed(*loaded.engine)
                if not restored:
                    detector.engine.refresh()
            system._platform = loaded.platform
            system._detector = detector
            snapshot = system.snapshots.publish(
                loaded.offline,
                OnlinePipeline(loaded.offline.domain_store, detector),
                version=loaded.manifest.snapshot_version,
            )
            if loaded.refresher is not None:
                system._delta_refresher = DeltaRefresh(
                    loaded.config,
                    loaded.offline,
                    maintained_store=loaded.refresher.store,
                    maintained_edges=loaded.refresher.edges,
                )
                system._delta_refresher_version = snapshot.version
        return system

    def stage_artifact(
        self, path, expected_config: ESharpConfig | None = None
    ) -> StagedGeneration:
        """Load an artifact into memory WITHOUT publishing it (phase one).

        Does everything :meth:`from_artifact` does — decode, corpus
        restore, candidate-index restore-or-rebuild — but returns the
        generation as a :class:`StagedGeneration` instead of swapping it
        in, so the expensive load happens while the current snapshot
        keeps serving.  By default the artifact must match *this*
        system's config (the staged generation will share result-cache
        keyspace and ranking semantics with the running one); pass
        ``expected_config`` to override the expectation.
        """
        from repro.artifact import load_artifact

        if expected_config is None:
            expected_config = self.config
        loaded = load_artifact(path, expected_config)
        detector = PalCountsDetector(
            loaded.platform,
            ranking=loaded.config.ranking,
            normalization=loaded.config.normalization,
        )
        if detector.engine is not None:
            restored = False
            if loaded.engine is not None:
                restored = detector.engine.restore_packed(*loaded.engine)
            if not restored:
                detector.engine.refresh()
        return StagedGeneration(
            version=loaded.manifest.snapshot_version,
            config=loaded.config,
            offline=loaded.offline,
            pipeline=OnlinePipeline(loaded.offline.domain_store, detector),
            platform=loaded.platform,
            detector=detector,
        )

    def promote_staged(
        self, staged: StagedGeneration, expected_version: int | None = None
    ) -> ServiceSnapshot:
        """Atomically flip a staged generation into serving (phase two).

        One CAS under the swap lock: with ``expected_version`` given,
        the flip succeeds only if the published snapshot is still at
        that version (:class:`~repro.serving.snapshot.StaleSnapshotError`
        otherwise), and the staged manifest version must move the
        snapshot version strictly forward.  Queries in flight keep their
        pinned snapshot; new queries see the staged generation.  Any
        maintained incremental-refresh state is dropped — it followed
        the previous generation.
        """
        with self._swap_lock:
            snapshot = self.snapshots.publish(
                staged.offline,
                staged.pipeline,
                expected_version=expected_version,
                version=staged.version,
            )
            self.config = staged.config
            self._platform = staged.platform
            self._detector = staged.detector
            self._delta_refresher = None
            self._delta_refresher_version = 0
        return snapshot

    def export_domain_shard(self, policy, shard: int) -> "DomainStore":
        """The subset of the domain collection a fleet shard owns.

        ``policy`` is a sharding policy with ``shard_of_domain(domain_id)``
        (see :mod:`repro.fleet.sharding`); the result is a standalone
        :class:`~repro.expansion.domainstore.DomainStore` containing
        exactly the domains routed to ``shard``, suitable for a
        shard-local expansion tier.  Keyword→domain ownership is
        preserved because every keyword of a domain maps to the same
        shard under both built-in policies.
        """
        from repro.expansion.domainstore import DomainStore

        store = self._require_snapshot().offline.domain_store
        owned = [
            domain
            for domain in store.domains()
            if policy.shard_of_domain(domain.domain_id) == shard
        ]
        return DomainStore(owned)

    def save_artifact(self, path, *, legacy_columns: bool = False):
        """Persist the current serving generation as an artifact directory.

        Includes the incremental refresher's maintained join state when
        it is synced to the published snapshot, so
        :meth:`refresh_domains_delta` resumes across processes — the
        missing half of in-process incremental refresh.  Returns the
        written :class:`~repro.artifact.Manifest`.
        """
        from repro.artifact import RefresherState, save_artifact

        # shim: the frozen benchmarks/e2e/build_child.py still passes
        # legacy_columns=False; the next benchmark PR drops it and this
        if legacy_columns:
            raise ValueError(
                "the pre-sidecar column encoding was removed; artifacts "
                "are always written as binary sidecars"
            )

        # Collect one consistent generation's references under the swap
        # lock, then write it outside: the captured objects (snapshot,
        # refresher state, exported index) are immutable once referenced,
        # so the serialization — seconds of disk I/O — must not stall
        # every concurrent refresh/promote behind it.
        with self._swap_lock:
            snapshot = self._require_snapshot()
            if self._platform is None:
                raise NotBuiltError("platform exists only after build()")
            platform = self._platform
            refresher = self._delta_refresher
            state = None
            if (
                refresher is not None
                and self._delta_refresher_version == snapshot.version
            ):
                state = RefresherState(
                    store=refresher.maintained_store,
                    edges=refresher.maintained_edges,
                )
            engine = None
            detector = self._detector
            if detector is not None and detector.engine is not None:
                packed_index, built_at = detector.engine.export_packed()
                if built_at == platform.mutation_count:
                    engine = (packed_index, built_at)
        return save_artifact(
            path,
            config=self.config,
            offline=snapshot.offline,
            platform=platform,
            snapshot_version=snapshot.version,
            refresher=state,
            engine=engine,
        )

    @property
    def is_built(self) -> bool:
        return self.snapshots.get() is not None

    def _require_snapshot(self) -> ServiceSnapshot:
        snapshot = self.snapshots.get()
        if snapshot is None:
            raise NotBuiltError(
                "call ESharp.build() before querying; the offline stage has "
                "not produced a domain collection yet"
            )
        return snapshot

    def _require_built(self) -> OnlinePipeline:
        return self._require_snapshot().pipeline

    # -- artifacts -----------------------------------------------------------------

    @property
    def snapshot(self) -> ServiceSnapshot:
        """The current serving generation (pin it for consistent reads)."""
        return self._require_snapshot()

    @property
    def offline(self) -> OfflineArtifacts:
        return self._require_snapshot().offline

    @property
    def platform(self) -> MicroblogPlatform:
        if self._platform is None:
            raise NotBuiltError("platform exists only after build()")
        return self._platform

    @property
    def detector(self) -> PalCountsDetector:
        if self._detector is None:
            raise NotBuiltError("detector exists only after build()")
        return self._detector

    @property
    def online(self) -> OnlinePipeline:
        return self._require_built()

    # -- the §6.2 comparison ----------------------------------------------------

    def find_experts(
        self, query: str, min_zscore: float | None = None
    ) -> list[RankedExpert]:
        """e#: expansion + detection (the paper's contribution)."""
        return self._require_built().answer(query, min_zscore).experts

    def find_experts_baseline(
        self, query: str, min_zscore: float | None = None
    ) -> list[RankedExpert]:
        """Baseline: Pal & Counts on the raw query (no expansion)."""
        detector = self.detector
        return detector.detect(query, min_zscore)

    def answer(self, query: str, min_zscore: float | None = None) -> TimedAnswer:
        """Full timed online answer (used by the Table 9 bench)."""
        return self._require_built().answer(query, min_zscore)

    def expansion_terms(self, query: str) -> list[str]:
        """The §5 expansion for ``query`` (query itself when unmatched)."""
        terms, _ = self._require_built().expander.expand_terms(query)
        return terms

    # -- serving ------------------------------------------------------------------

    def serve(self, config: "ServiceConfig | None" = None) -> "ExpertService":
        """Wrap the built system in a concurrent :class:`ExpertService`."""
        from repro.serving.service import ExpertService

        self._require_snapshot()
        return ExpertService(self, config)

    # -- §6.3: "The offline part of our system runs weekly" -----------------

    def refresh_domains(self, querylog_config=None) -> "ESharp":
        """Re-run the offline stage against a fresh search log.

        The production system rebuilds its domain collection weekly from
        the latest month of logs while the online serving path keeps
        running.  This re-executes extraction + clustering (optionally
        under a new :class:`~repro.querylog.QueryLogConfig`, e.g. a new
        seed standing in for a new week of traffic) and publishes the
        result as one new :class:`ServiceSnapshot` — a single atomic
        swap, so concurrent readers see either the old generation or the
        new one, never a mixture.  The microblog corpus and detector
        caches are untouched.
        """
        from dataclasses import replace

        self._require_snapshot()
        config = self.config
        if querylog_config is not None:
            config = replace(config, querylog=querylog_config)
        with self._swap_lock:
            # re-read the generation inside the lock: a concurrent build()
            # may have republished, and pairing its detector with a world
            # pinned outside the lock would mix generations
            snapshot = self._require_snapshot()
            offline = OfflinePipeline(config).run(world=snapshot.offline.world)
            self.snapshots.publish(
                offline, OnlinePipeline(offline.domain_store, self._detector)
            )
        return self

    def refresh_domains_delta(self, delta, delta_config=None):
        """Incrementally fold a delta batch of impressions into serving.

        The batch :meth:`refresh_domains` regenerates and re-clusters
        the entire log even when only a sliver of new traffic arrived;
        this path hands the new impressions (a
        :class:`~repro.querylog.store.QueryLogStore` or an iterable of
        :class:`~repro.querylog.records.Impression`) to a maintained
        :class:`~repro.core.incremental.DeltaRefresh` and publishes the
        delta-sized rebuild as one atomic snapshot swap.  The refresher
        is synced to the published version — a full rebuild (or build)
        in between moves the version and re-seeds it from the published
        artifacts.

        A delta that changes nothing serving-visible — no similarity
        edge added, reweighted or removed, and no partition change —
        is folded into the maintained log **without publishing**: a
        version bump would rotate every ``(version, query, threshold)``
        result-cache key over byte-identical serving state, collapsing
        a warm cache for zero data change.

        Returns the :class:`~repro.core.incremental.DeltaRefreshStats`
        of the absorbed batch.
        """
        from repro.core.incremental import DeltaRefresh

        self._require_snapshot()
        with self._swap_lock:
            snapshot = self._require_snapshot()
            refresher = self._delta_refresher
            synced = (
                refresher is not None
                and self._delta_refresher_version == snapshot.version
            )
            if not synced or (
                delta_config is not None
                and refresher.delta_config != delta_config
            ):
                # a synced refresher may hold serving-invisible ingest
                # that was never published; re-seeding from its own
                # artifacts (rather than the snapshot's) keeps those
                # impressions in the maintained log window
                base_artifacts = (
                    refresher.artifacts if synced else snapshot.offline
                )
                refresher = DeltaRefresh(
                    self.config, base_artifacts, delta_config
                )
                self._delta_refresher = refresher
            try:
                outcome = refresher.refresh(delta)
            except BaseException:
                # a partially-applied refresh (store merged, join not
                # repaired, ...) must never be resumed: drop the state so
                # the next call re-seeds from the published artifacts
                self._delta_refresher = None
                raise
            stats = outcome.stats
            changed = (
                stats.edges_added
                or stats.edges_changed
                or stats.edges_removed
                or stats.cluster_mode != "unchanged"
            )
            if changed:
                self.snapshots.publish(
                    outcome.artifacts,
                    OnlinePipeline(
                        outcome.artifacts.domain_store, self._detector
                    ),
                    expected_version=snapshot.version,
                )
            self._delta_refresher_version = self.snapshots.version
        return outcome.stats
