"""Artifact directories: staged checkpoint writing and warm-start loading.

An artifact directory is one serving generation on disk::

    out/
      manifest.json                 # root of trust: codecs, checksums, config
      stage-store.bin               # aggregated query log: mmap'd columns
      stage-store.meta.jsonl        #   ... and its non-columnar remainder
      stage-weighted_graph.{bin,meta.jsonl}
      stage-multigraph.{bin,meta.jsonl}
      stage-partition.{bin,meta.jsonl}
      stage-clustering_history.{bin,meta.jsonl}
      stage-domain_store.{bin,meta.jsonl}
      stage-corpus.{bin,meta.jsonl} # microblog users + tweets, ingestion order
      stage-engine_index.{bin,meta.jsonl}  # optional: packed detection index
      stage-refresher_*.{bin,meta.jsonl}   # optional: resumable join state

:class:`ArtifactBuilder` is the write side, designed for *checkpointed*
builds: :class:`~repro.core.offline.OfflinePipeline` hands it each
stage's outputs as the stage completes, the manifest is rewritten after
every stage (``complete: false``), and a re-run build resumes from the
longest valid prefix instead of recomputing the world.  Only
:meth:`ArtifactBuilder.finalize` marks the artifact loadable.

:func:`load_artifact` is the read side: verify the manifest, check the
config fingerprint, verify every stage checksum, decode — and hand back
the same :class:`~repro.core.offline.OfflineArtifacts` a fresh build
would have produced, byte-identically, plus the corpus platform and any
persisted incremental-refresh state.
"""

from __future__ import annotations

import os
import pathlib
import shutil
from dataclasses import dataclass

from repro.artifact.codecs import CODECS, read_stage_records, write_stage_file
from repro.artifact.sidecar import SidecarWriter, open_sidecar, sidecar_filename
from repro.artifact.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactIncompleteError,
    ArtifactMismatchError,
    ArtifactVersionError,
)
from repro.artifact.manifest import (
    MANIFEST_FORMAT_VERSION,
    FileEntry,
    Manifest,
    StageEntry,
    config_fingerprint,
    config_from_jsonable,
    config_to_jsonable,
    read_manifest,
    write_manifest,
)
from repro.chaos.inject import fire
from repro.core.config import ESharpConfig
from repro.core.offline import OFFLINE_STAGES, OfflineArtifacts
from repro.microblog.platform import MicroblogPlatform
from repro.querylog.store import QueryLogStore
from repro.utils.timing import StageClock, StageReport
from repro.worldmodel.builder import build_world


def _report_to_jsonable(report: StageReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "name": report.name,
        "workers": report.workers,
        "seconds": report.seconds,
        "bytes_read": report.bytes_read,
        "bytes_written": report.bytes_written,
    }


def _report_from_jsonable(data: dict | None) -> StageReport | None:
    if data is None:
        return None
    try:
        return StageReport(
            name=str(data["name"]),
            workers=int(data["workers"]),
            seconds=float(data["seconds"]),
            bytes_read=int(data["bytes_read"]),
            bytes_written=int(data["bytes_written"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(
            f"malformed stage report in manifest: {data!r}"
        ) from exc


class ArtifactBuilder:
    """Incremental, resumable writer for one artifact directory.

    Opening a directory that already holds (partial) stages for the
    *same* config fingerprint resumes it; a fingerprint mismatch raises
    :class:`ArtifactMismatchError` rather than silently clobbering
    someone else's artifact — delete the directory or pick another.
    """

    def __init__(self, root, config: ESharpConfig) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.fingerprint = config_fingerprint(config)
        try:
            existing = read_manifest(self.root)
        except ArtifactError:
            existing = None
        if existing is not None:
            if existing.config_fingerprint != self.fingerprint:
                raise ArtifactMismatchError(
                    f"{self.root} holds an artifact built from a different "
                    "config/seed; delete it or choose another directory"
                )
            self.manifest = existing
            # reopened for writing: not loadable until finalised again
            self.manifest.complete = False
        else:
            self.manifest = Manifest(
                format_version=MANIFEST_FORMAT_VERSION,
                config_fingerprint=self.fingerprint,
                seed=config.seed,
                snapshot_version=0,
                complete=False,
                config=config_to_jsonable(config),
                stages={},
            )
        write_manifest(self.root, self.manifest)

    # -- checkpoint protocol (consumed by OfflinePipeline.run) -------------

    def has_stage(self, name: str, outputs: tuple[str, ...]) -> bool:
        entry = self.manifest.stages.get(name)
        return entry is not None and all(
            _has_output(entry.files, output) for output in outputs
        )

    def load_stage(
        self, name: str, outputs: tuple[str, ...]
    ) -> tuple[dict[str, object], StageReport | None]:
        """Decode one checkpointed stage; raises :class:`ArtifactError`."""
        entry = self.manifest.stages.get(name)
        if entry is None:
            raise ArtifactCorruptError(f"stage {name!r} is not checkpointed")
        values = {
            output: _decode_output(self.root, entry.files, output)
            for output in outputs
        }
        return values, _report_from_jsonable(entry.report)

    def save_stage(
        self,
        name: str,
        values: dict[str, object],
        report: StageReport | None = None,
    ) -> None:
        """Persist one stage's outputs and re-write the manifest.

        Each output is written as its binary sidecar
        (``stage-<output>.bin``) plus the ``stage-<output>.meta.jsonl``
        remainder, under the manifest keys ``<output>.bin`` /
        ``<output>.meta``.
        """
        fire("artifact.save_stage", stage=name)
        files: dict[str, FileEntry] = {}
        for output, value in values.items():
            kind, version, encode, _decode = CODECS[output]
            bin_name = sidecar_filename(output)
            writer = SidecarWriter(self.root / bin_name, kind, version)
            meta_records = list(encode(value, writer))
            bin_sha, bin_size = writer.finish()
            files[f"{output}.bin"] = FileEntry(
                filename=bin_name,
                kind=kind,
                codec_version=version,
                sha256=bin_sha,
                size_bytes=bin_size,
            )
            meta_name = f"stage-{output}.meta.jsonl"
            meta_sha, meta_size = write_stage_file(
                self.root / meta_name, kind, version, meta_records
            )
            files[f"{output}.meta"] = FileEntry(
                filename=meta_name,
                kind=kind,
                codec_version=version,
                sha256=meta_sha,
                size_bytes=meta_size,
            )
        self.manifest.stages[name] = StageEntry(
            files=files, report=_report_to_jsonable(report)
        )
        write_manifest(self.root, self.manifest)

    def drop_stage(self, name: str) -> None:
        """Remove a stage and its files from a reused directory.

        Writers that re-save into an existing artifact directory must
        drop the optional stages they are *not* re-saving ('refresher',
        'engine'): the builder keeps existing stage entries for resume,
        so a stale entry from an earlier save would otherwise be
        finalised into the new manifest and silently resurrected at
        load — e.g. an outdated refresher join state from a different
        generation than the published artifacts.
        """
        entry = self.manifest.stages.pop(name, None)
        if entry is None:
            return
        for file_entry in entry.files.values():
            (self.root / file_entry.filename).unlink(missing_ok=True)
        write_manifest(self.root, self.manifest)

    # -- corpus + refresher (the ESharp-level stages) -----------------------

    def load_corpus(self) -> MicroblogPlatform | None:
        """The checkpointed corpus, or ``None`` when absent/invalid."""
        if not self.has_stage("corpus", ("corpus",)):
            return None
        try:
            values, _report = self.load_stage("corpus", ("corpus",))
        except ArtifactError:
            return None
        platform = values["corpus"]
        assert isinstance(platform, MicroblogPlatform)
        return platform

    def save_corpus(self, platform: MicroblogPlatform) -> None:
        self.save_stage("corpus", {"corpus": platform})

    def load_engine(self) -> tuple[dict, int] | None:
        """The checkpointed packed detection index, or ``None``."""
        if not self.has_stage("engine", ("engine_index",)):
            return None
        try:
            values, _report = self.load_stage("engine", ("engine_index",))
        except ArtifactError:
            return None
        return values["engine_index"]

    def save_engine(self, packed: tuple[dict, int]) -> None:
        self.save_stage("engine", {"engine_index": packed})

    def save_refresher(
        self, store: QueryLogStore, edges: dict[tuple[str, str], float]
    ) -> None:
        """Persist the incremental refresher's maintained join state."""
        self.save_stage(
            "refresher",
            {"refresher_store": store, "refresher_edges": edges},
        )

    def finalize(self, snapshot_version: int) -> Manifest:
        """Stamp the serving version and mark the artifact loadable."""
        fire("artifact.finalize")
        if snapshot_version < 1:
            raise ArtifactVersionError(
                f"snapshot_version must be >= 1, got {snapshot_version}"
            )
        self.manifest.snapshot_version = snapshot_version
        self.manifest.complete = True
        write_manifest(self.root, self.manifest)
        return self.manifest


#: offline outputs handed to OfflineArtifacts as lazy factories — pure
#: serving never dereferences them, so a warm start skips their decode
_LAZY_OUTPUTS = frozenset({"store", "weighted_graph", "multigraph"})


def _has_output(files: dict[str, FileEntry], output: str) -> bool:
    """Whether ``files`` carries ``output``'s sidecar and meta entries."""
    return f"{output}.meta" in files and f"{output}.bin" in files


def _prepare_output(
    root: pathlib.Path, files: dict[str, FileEntry], output: str
):
    """Verify one output's stage files now; return its decode as a thunk.

    Integrity stays load-time — the checksummed ``.meta`` read and the
    structural sidecar open happen eagerly, so a corrupted or torn stage
    raises its typed error from ``load_artifact`` itself.  Only the
    value construction is deferred, which lets the loader hand
    rarely-dereferenced outputs (the query log, the similarity graphs)
    to :class:`OfflineArtifacts` as lazy factories.

    An output the manifest lists only under its bare name was written in
    the pre-sidecar JSON-lines column encoding this build no longer
    reads: that is a version problem (rebuild), not damage.
    """
    if not _has_output(files, output):
        if output in files:
            raise ArtifactVersionError(
                f"{root}: output {output!r} is stored in the retired "
                "pre-sidecar column encoding; rebuild the artifact with "
                "`python -m repro build --out`"
            )
        raise ArtifactCorruptError(
            f"{root}: no stage file provides output {output!r}"
        )
    meta_entry, bin_entry = files[f"{output}.meta"], files[f"{output}.bin"]
    kind, version, _encode, decode = CODECS[output]
    records = read_stage_records(
        root / meta_entry.filename,
        kind=kind,
        version=version,
        sha256=meta_entry.sha256,
        size_bytes=meta_entry.size_bytes,
    )
    view = open_sidecar(
        root / bin_entry.filename,
        kind=kind,
        codec_version=version,
        size_bytes=bin_entry.size_bytes,
    )
    return lambda: decode(records, view)


def _decode_output(root: pathlib.Path, files: dict[str, FileEntry], output: str):
    """Decode one output now (see :func:`_prepare_output`)."""
    return _prepare_output(root, files, output)()


# -- the read side -----------------------------------------------------------


@dataclass(frozen=True)
class RefresherState:
    """Persisted :class:`~repro.core.incremental.DeltaRefresh` join state."""

    store: QueryLogStore
    edges: dict[tuple[str, str], float]


@dataclass(frozen=True)
class LoadedArtifact:
    """Everything a process needs to serve without rebuilding."""

    config: ESharpConfig
    manifest: Manifest
    offline: OfflineArtifacts
    platform: MicroblogPlatform
    refresher: RefresherState | None
    #: packed detection index ``(token → TokenCandidates, built_at)``;
    #: None for artifacts saved without one (the loader rebuilds it)
    engine: tuple[dict, int] | None = None


def _publish_directory(scratch: pathlib.Path, root: pathlib.Path) -> None:
    """Swap a finished scratch directory into place, crash-atomically.

    ``os.replace`` is atomic for a rename onto a free name, so either
    the new generation is fully published or the previous one is still
    there — never a half-written root.  When ``root`` already exists it
    is moved aside first (a directory rename cannot clobber a non-empty
    directory), and moved *back* if publishing the scratch fails, so the
    previous generation survives every failure mode short of losing the
    filesystem.
    """
    if not root.exists():
        os.replace(scratch, root)
        return
    previous = root.parent / f"{root.name}.previous.{os.getpid()}"
    if previous.exists():
        shutil.rmtree(previous)
    os.replace(root, previous)
    try:
        os.replace(scratch, root)
    except OSError:
        os.replace(previous, root)  # roll the old generation back in
        raise
    shutil.rmtree(previous, ignore_errors=True)


def save_artifact(
    root,
    *,
    config: ESharpConfig,
    offline: OfflineArtifacts,
    platform: MicroblogPlatform,
    snapshot_version: int,
    refresher: RefresherState | None = None,
    engine: tuple[dict, int] | None = None,
) -> Manifest:
    """Write a complete artifact for an already-built system in one call.

    Crash-atomic: every stage file and the manifest are written into a
    temporary sibling directory and swapped into ``root`` only after
    :meth:`ArtifactBuilder.finalize` succeeds.  A crash mid-save (torn
    write, injected fault, power loss) leaves either the previous
    complete generation or nothing — never a directory that
    half-validates.  (The checkpointed-resume path used by
    ``ESharp.build(artifact_dir=...)`` intentionally still writes in
    place — partial stages are its whole point, and an unfinished
    manifest is not loadable.)
    """
    root = pathlib.Path(root)
    try:
        existing = read_manifest(root)
    except ArtifactError:
        existing = None
    if existing is not None and (
        existing.config_fingerprint != config_fingerprint(config)
    ):
        raise ArtifactMismatchError(
            f"{root} holds an artifact built from a different "
            "config/seed; delete it or choose another directory"
        )
    root.parent.mkdir(parents=True, exist_ok=True)
    scratch = root.parent / f"{root.name}.saving.{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    try:
        builder = ArtifactBuilder(scratch, config)
        reports = {report.name: report for report in offline.clock.reports}
        builder.save_stage("log", {"store": offline.store})
        builder.save_stage(
            "extract",
            {
                "weighted_graph": offline.weighted_graph,
                "multigraph": offline.multigraph,
            },
            reports.get("Extraction"),
        )
        builder.save_stage(
            "cluster",
            {
                "partition": offline.partition,
                "clustering_history": offline.clustering_history,
            },
            reports.get("Clustering"),
        )
        builder.save_stage("domains", {"domain_store": offline.domain_store})
        builder.save_corpus(platform)
        if engine is not None:
            builder.save_engine(engine)
        if refresher is not None:
            builder.save_refresher(refresher.store, refresher.edges)
        manifest = builder.finalize(snapshot_version)
        _publish_directory(scratch, root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return manifest


def _verified_manifest(
    root: pathlib.Path, expected_config: ESharpConfig | None
) -> tuple[Manifest, ESharpConfig]:
    """Read + verify a manifest: completeness, fingerprint, expectation."""
    manifest = read_manifest(root)
    if not manifest.complete:
        raise ArtifactIncompleteError(
            f"{root} holds an unfinished build; re-run "
            "`python -m repro build --out` to complete it"
        )
    config = config_from_jsonable(ESharpConfig, manifest.config)
    if config_fingerprint(config) != manifest.config_fingerprint:
        raise ArtifactCorruptError(
            f"{root}: embedded config does not match its own fingerprint"
        )
    if expected_config is not None and (
        config_fingerprint(expected_config) != manifest.config_fingerprint
    ):
        raise ArtifactMismatchError(
            f"{root} was built from a different config/seed than requested"
        )
    return manifest, config


@dataclass(frozen=True)
class PartialArtifact:
    """A verified subset of one artifact's stage outputs.

    The scoped counterpart of :class:`LoadedArtifact`: the manifest is
    fully verified (completeness, fingerprint, per-file checksums of the
    requested stages) but only the named outputs are decoded.  A fleet
    router warm-starts its routing state this way — the domain store is
    a few percent of the directory, so the front-end comes up in
    milliseconds while replicas pay the full corpus load.
    """

    config: ESharpConfig
    manifest: Manifest
    #: output name → decoded value, exactly the outputs requested
    values: dict[str, object]


def load_artifact_stages(
    root,
    outputs: tuple[str, ...],
    expected_config: ESharpConfig | None = None,
) -> PartialArtifact:
    """Decode only the named stage ``outputs`` of a complete artifact.

    ``outputs`` uses the same names the codecs register (for example
    ``("domain_store",)`` or ``("store", "domain_store")``).  Every
    requested output is located across the manifest's stages, its file
    checksum-verified, and decoded with the stage codec; an output the
    manifest does not carry raises :class:`ArtifactCorruptError` (the
    manifest is complete, so absence means the artifact genuinely lacks
    that stage).
    """
    root = pathlib.Path(root)
    manifest, config = _verified_manifest(root, expected_config)
    by_output: dict[str, FileEntry] = {}
    for entry in manifest.stages.values():
        by_output.update(entry.files)
    values = {
        output: _decode_output(root, by_output, output) for output in outputs
    }
    return PartialArtifact(config=config, manifest=manifest, values=values)


def load_artifact(
    root, expected_config: ESharpConfig | None = None
) -> LoadedArtifact:
    """Load a complete artifact directory, verifying everything.

    Every stage loads zero-copy off its mmap'd ``.bin`` sidecar.  Raises
    :class:`ArtifactError` subclasses on any problem: missing or
    unfinished manifest, unsupported format versions (including a
    directory written only in the retired pre-sidecar encoding — rebuild
    it), checksum failures, malformed stages, or (when
    ``expected_config`` is given) an artifact built from a different
    configuration.
    """
    root = pathlib.Path(root)
    manifest, config = _verified_manifest(root, expected_config)

    values: dict[str, object] = {}
    clock = StageClock()
    for spec in OFFLINE_STAGES:
        if not spec.checkpointable:
            continue
        entry = manifest.stages.get(spec.name)
        if entry is None:
            raise ArtifactCorruptError(
                f"{root} is marked complete but stage {spec.name!r} is missing"
            )
        for output in spec.outputs:
            # verified now (typed errors at load); the lazy outputs are
            # decoded on first dereference — pure serving never touches
            # them
            thunk = _prepare_output(root, entry.files, output)
            values[output] = thunk if output in _LAZY_OUTPUTS else thunk()
        report = _report_from_jsonable(entry.report)
        if report is not None:
            # replay the build's Table 9 accounting: a warm start did not
            # re-pay extraction/clustering, but the artifact remembers them
            clock.record(report)

    corpus_entry = manifest.stages.get("corpus")
    if corpus_entry is None:
        raise ArtifactCorruptError(f"{root}: corpus stage is missing")
    platform = _decode_output(root, corpus_entry.files, "corpus")

    engine = None
    engine_entry = manifest.stages.get("engine")
    if engine_entry is not None and _has_output(
        engine_entry.files, "engine_index"
    ):
        engine = _decode_output(root, engine_entry.files, "engine_index")

    refresher = None
    refresher_entry = manifest.stages.get("refresher")
    if refresher_entry is not None:
        refresher = RefresherState(
            store=_decode_output(
                root, refresher_entry.files, "refresher_store"
            ),
            edges=_decode_output(
                root, refresher_entry.files, "refresher_edges"
            ),
        )

    offline = OfflineArtifacts(
        # deferred: the deterministic world rebuild (~60 ms at standard
        # scale) and the query-log/graph decodes are paid only if
        # something dereferences the attribute; their stage files were
        # already verified above
        world_factory=lambda: build_world(config.world),
        store_factory=values["store"],
        weighted_graph_factory=values["weighted_graph"],
        multigraph_factory=values["multigraph"],
        partition=values["partition"],
        domain_store=values["domain_store"],
        clustering_history=values["clustering_history"],
        clock=clock,
    )
    return LoadedArtifact(
        config=config,
        manifest=manifest,
        offline=offline,
        platform=platform,
        refresher=refresher,
        engine=engine,
    )
