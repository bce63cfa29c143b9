"""The binary sidecar layer and its zero-copy consumers, property-tested.

Four contracts from the sidecar design:

* the codec round-trips arbitrary typed columns byte-exactly, and every
  structural corruption (endianness, itemsize, offset table, torn
  write) raises a *typed* artifact error before any decode;
* a torn write never damages the published generation — the scratch
  sibling takes the damage, the previous generation keeps loading;
* copy-on-first-mutation sealing is safe under concurrent readers: a
  reader holding mmap views keeps reading valid bytes while a writer
  seals and mutates;
* delta refresh on an mmap-backed warm start is byte-identical to the
  same refresh on a freshly built (owned-array) system — the
  vectorized/zero-copy plumbing never leaks into results.

The vectorized scoring tail (``detector/vectorized.py``) is likewise
property-tested bit-identical to the scalar ``normalize → score → rank``
pipeline over random feature pools.
"""

from __future__ import annotations

import json
import struct
import sys
import threading
from array import array
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifact import load_artifact
from repro.artifact.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactVersionError,
)
from repro.artifact.sidecar import (
    ALIGN,
    MAGIC,
    SidecarWriter,
    open_sidecar,
)
from repro.core.esharp import ESharp
from repro.detector.features import FeatureVector
from repro.detector.normalize import NormalizationConfig, normalize_features
from repro.detector.ranking import RankingConfig, score_candidates
from repro.detector.vectorized import exact_tail_available, score_vectors_exact
from repro.microblog.tweets import Tweet
from repro.querylog.generator import QueryLogGenerator

SETTINGS = settings(max_examples=25, deadline=None)

_FIXED = struct.Struct("<8sI")


@pytest.fixture(scope="module")
def artifact_dir(system, tmp_path_factory):
    root = tmp_path_factory.mktemp("sidecar-artifact") / "generation-1"
    system.save_artifact(root)
    return root


def _write_sidecar(path, columns, blobs=(), kind="test", version=1):
    writer = SidecarWriter(path, kind, version)
    for name, typecode, values in columns:
        writer.add_column(name, array(typecode, values))
    for name, data in blobs:
        writer.add_blob(name, data)
    return writer.finish()


def _rewrite_header(path, mutate):
    """Parse a sidecar's header, apply ``mutate``, and rewrite the file.

    The payload is carried over untouched; only the header (and the
    padding that realigns the payload) changes.  This is how the tests
    forge structurally-corrupt-but-parseable sidecars.
    """
    blob = path.read_bytes()
    magic, header_len = _FIXED.unpack(blob[: _FIXED.size])
    assert magic == MAGIC
    prefix = _FIXED.size + header_len
    header = json.loads(blob[_FIXED.size : prefix].decode("ascii"))
    payload_start = (prefix + ALIGN - 1) // ALIGN * ALIGN
    payload = blob[payload_start:]
    mutate(header)
    header_bytes = json.dumps(
        header, ensure_ascii=True, separators=(",", ":")
    ).encode("ascii")
    new_prefix = _FIXED.size + len(header_bytes)
    padding = b"\x00" * ((new_prefix + ALIGN - 1) // ALIGN * ALIGN - new_prefix)
    path.write_bytes(
        _FIXED.pack(MAGIC, len(header_bytes)) + header_bytes + padding + payload
    )


# -- codec round-trip --------------------------------------------------------


_COLUMN_VALUES = {
    "q": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "l": st.integers(min_value=-(2**31), max_value=2**31 - 1),
    "d": st.floats(allow_nan=False, width=64),
}


@st.composite
def _column_sets(draw):
    typecodes = draw(
        st.lists(
            st.sampled_from(sorted(_COLUMN_VALUES)), min_size=1, max_size=4
        )
    )
    columns = []
    for i, typecode in enumerate(typecodes):
        values = draw(
            st.lists(_COLUMN_VALUES[typecode], min_size=0, max_size=32)
        )
        columns.append((f"col{i}", typecode, values))
    return columns


class TestSidecarRoundTrip:
    @SETTINGS
    @given(columns=_column_sets(), blob=st.binary(max_size=64))
    def test_columns_and_blobs_survive_byte_exactly(
        self, tmp_path_factory, columns, blob
    ):
        path = tmp_path_factory.mktemp("rt") / "stage-x.bin"
        sha, size = _write_sidecar(path, columns, blobs=[("raw", blob)])
        assert path.stat().st_size == size
        view = open_sidecar(path, "test", 1, size_bytes=size)
        for name, typecode, values in columns:
            column = view.column(name)
            assert column.format == typecode
            assert column.tobytes() == array(typecode, values).tobytes()
            assert column.tolist() == array(typecode, values).tolist()
        assert bytes(view.column("raw")) == blob
        view.verify_payload()  # embedded hash matches what was written

    def test_columns_are_aligned_and_read_only(self, tmp_path):
        path = tmp_path / "stage-x.bin"
        _write_sidecar(
            path,
            [("a", "q", [1, 2, 3]), ("b", "d", [0.5])],
        )
        view = open_sidecar(path, "test", 1)
        for name in ("a", "b"):
            column = view.column(name)
            assert column.readonly
        with pytest.raises(TypeError):
            view.column("a")[0] = 99

    def test_missing_column_is_typed(self, tmp_path):
        path = tmp_path / "stage-x.bin"
        _write_sidecar(path, [("a", "q", [1])])
        view = open_sidecar(path, "test", 1)
        with pytest.raises(ArtifactCorruptError):
            view.column("ghost")

    def test_duplicate_column_is_refused_at_write(self, tmp_path):
        writer = SidecarWriter(tmp_path / "stage-x.bin", "test", 1)
        writer.add_column("a", array("q", [1]))
        with pytest.raises(ArtifactError):
            writer.add_column("a", array("q", [2]))


# -- structural corruption → typed errors ------------------------------------


class TestSidecarCorruption:
    @pytest.fixture
    def sidecar(self, tmp_path):
        path = tmp_path / "stage-x.bin"
        _write_sidecar(
            path, [("ids", "q", [1, 2, 3]), ("w", "d", [0.25, 0.5])]
        )
        return path

    def test_foreign_endianness_is_typed(self, sidecar):
        other = "big" if sys.byteorder == "little" else "little"
        _rewrite_header(sidecar, lambda h: h.update(byteorder=other))
        with pytest.raises(ArtifactError):
            open_sidecar(sidecar, "test", 1)

    def test_itemsize_mismatch_is_typed(self, sidecar):
        # a "q" column claiming 4-byte items: the cross-platform-width
        # guard must reject it before any cast happens
        def shrink(header):
            header["columns"][0][2] = 4

        _rewrite_header(sidecar, shrink)
        with pytest.raises(ArtifactCorruptError):
            open_sidecar(sidecar, "test", 1)

    def test_offset_overrun_is_typed(self, sidecar):
        def overrun(header):
            header["columns"][1][3] = header["payload_bytes"]

        _rewrite_header(sidecar, overrun)
        with pytest.raises(ArtifactCorruptError):
            open_sidecar(sidecar, "test", 1)

    def test_negative_offset_is_typed(self, sidecar):
        def negate(header):
            header["columns"][0][3] = -ALIGN

        _rewrite_header(sidecar, negate)
        with pytest.raises(ArtifactCorruptError):
            open_sidecar(sidecar, "test", 1)

    def test_duplicate_table_entry_is_typed(self, sidecar):
        def duplicate(header):
            header["columns"].append(list(header["columns"][0]))

        _rewrite_header(sidecar, duplicate)
        with pytest.raises(ArtifactCorruptError):
            open_sidecar(sidecar, "test", 1)

    def test_malformed_table_row_is_typed(self, sidecar):
        def mangle(header):
            header["columns"][0] = ["ids", "q"]

        _rewrite_header(sidecar, mangle)
        with pytest.raises(ArtifactCorruptError):
            open_sidecar(sidecar, "test", 1)

    def test_wrong_kind_is_typed(self, sidecar):
        with pytest.raises(ArtifactCorruptError):
            open_sidecar(sidecar, "other-kind", 1)

    def test_unsupported_version_is_typed(self, sidecar):
        with pytest.raises(ArtifactVersionError):
            open_sidecar(sidecar, "test", 2)

    def test_bad_magic_is_typed(self, sidecar):
        blob = sidecar.read_bytes()
        sidecar.write_bytes(b"NOTMAGIC" + blob[8:])
        with pytest.raises(ArtifactCorruptError):
            open_sidecar(sidecar, "test", 1)

    def test_payload_bit_flip_fails_on_demand_verify(self, sidecar):
        # structural open succeeds by design (no hash at open — that
        # would fault every page); verify_payload is where content
        # corruption surfaces
        blob = bytearray(sidecar.read_bytes())
        blob[-5] ^= 0x40
        sidecar.write_bytes(bytes(blob))
        view = open_sidecar(sidecar, "test", 1)
        with pytest.raises(ArtifactCorruptError):
            view.verify_payload()


# -- torn writes and generations ---------------------------------------------


class TestTornWrites:
    def test_truncation_is_typed_before_decode(self, tmp_path):
        path = tmp_path / "stage-x.bin"
        _, size = _write_sidecar(path, [("ids", "q", list(range(64)))])
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ArtifactCorruptError):
            open_sidecar(path, "test", 1, size_bytes=size)

    def test_crash_leftover_scratch_never_damages_the_published_file(
        self, tmp_path
    ):
        path = tmp_path / "stage-x.bin"
        _, size = _write_sidecar(path, [("ids", "q", [7, 8, 9])])
        # a rewrite that died before os.replace leaves only the scratch
        scratch = path.with_name(path.name + ".tmp")
        scratch.write_bytes(b"half a header and then noth")
        view = open_sidecar(path, "test", 1, size_bytes=size)
        assert view.column("ids").tolist() == [7, 8, 9]

    def test_previous_generation_loads_after_a_torn_write(
        self, system, artifact_dir, tmp_path
    ):
        # generation 2 tears mid-write; it must fail typed, and
        # generation 1 — untouched on disk — must still serve
        gen2 = tmp_path / "generation-2"
        system.save_artifact(gen2)
        victim = max(gen2.glob("stage-*.bin"), key=lambda p: p.stat().st_size)
        victim.write_bytes(victim.read_bytes()[:-64])
        with pytest.raises(ArtifactError):
            load_artifact(gen2)
        previous = ESharp.from_artifact(artifact_dir)
        keyword = previous.offline.domain_store.known_keywords()[0]
        assert isinstance(previous.find_experts(keyword), list)


# -- sealing under concurrent readers ----------------------------------------


class TestSealingUnderConcurrentReaders:
    def test_readers_survive_a_concurrent_seal(self, artifact_dir):
        loaded = ESharp.from_artifact(artifact_dir)
        platform = loaded.platform
        assert platform._buffer_backed  # zero-copy load took the mmap path

        authors_view = platform._col_authors  # a view over the mapping
        baseline = bytes(authors_view)
        rows = len(platform._col_tweet_ids)
        author = next(iter(platform.users())).user_id
        next_id = max(platform._col_tweet_ids) + 1

        stop = threading.Event()
        failures: list[BaseException] = []

        def read_loop():
            try:
                while not stop.is_set():
                    # whatever container is installed right now — view or
                    # owned copy — its first `rows` entries must hold the
                    # original bytes
                    column = platform._col_authors
                    assert bytes(column)[: len(baseline)] == baseline
                    platform.totals(author)
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        for reader in readers:
            reader.start()
        try:
            for i in range(8):
                platform.add_tweet(
                    Tweet(
                        tweet_id=next_id + i,
                        author_id=author,
                        text=f"concurrent seal probe {i}",
                    )
                )
        finally:
            stop.set()
            for reader in readers:
                reader.join()

        assert not failures
        assert not platform._buffer_backed  # sealed into owned containers
        assert platform.tweet_count == rows + 8
        # the pre-seal view stays valid: memoryviews pin the mapping
        assert bytes(authors_view) == baseline

    def test_seal_is_idempotent_and_preserves_bytes(self, artifact_dir):
        loaded = ESharp.from_artifact(artifact_dir)
        platform = loaded.platform
        before = platform.export_state()
        platform._seal_columns()
        assert not platform._buffer_backed
        platform._seal_columns()  # second call is a no-op
        after = platform.export_state()
        assert after["tweet_ids"].tobytes() == before["tweet_ids"].tobytes()
        assert after["authors"].tobytes() == before["authors"].tobytes()


# -- delta refresh parity: mmap-backed vs owned ------------------------------


class TestDeltaRefreshParity:
    def test_mmap_load_and_owned_build_refresh_identically(
        self, small_config, artifact_dir
    ):
        mapped = ESharp.from_artifact(artifact_dir)
        # the owned side is a build of its own (the shared ``system``
        # fixture must not be refreshed under other tests' feet)
        owned = ESharp(small_config).build()
        assert mapped.platform._buffer_backed
        assert not owned.platform._buffer_backed

        generator = QueryLogGenerator(
            mapped.offline.world,
            replace(
                small_config.querylog, seed=small_config.querylog.seed + 17
            ),
        )
        batch = list(generator.impressions(600))
        stats_mapped = mapped.refresh_domains_delta(list(batch))
        stats_owned = owned.refresh_domains_delta(list(batch))

        assert stats_mapped.cluster_mode == stats_owned.cluster_mode
        assert (
            mapped.offline.domain_store.domains()
            == owned.offline.domain_store.domains()
        )
        mapped_edges = dict(
            ((u, v), w) for u, v, w in mapped.offline.weighted_graph.edges()
        )
        owned_edges = dict(
            ((u, v), w) for u, v, w in owned.offline.weighted_graph.edges()
        )
        assert mapped_edges == owned_edges
        for keyword in mapped.offline.domain_store.known_keywords()[:5]:
            left = mapped.find_experts(keyword)
            right = owned.find_experts(keyword)
            assert left == right
            assert [
                struct.pack("<d", e.score) for e in left
            ] == [struct.pack("<d", e.score) for e in right]


# -- vectorized tail ≡ scalar tail -------------------------------------------


_FEATURE = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@st.composite
def _feature_pools(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    column = st.lists(_FEATURE, min_size=n, max_size=n)
    ts, mi, ri = draw(column), draw(column), draw(column)
    return [
        FeatureVector(uid, a, b, c) for uid, a, b, c in zip(ids, ts, mi, ri)
    ]


class _StubPlatform:
    """Just enough platform for ``score_candidates``: a user lookup."""

    def __init__(self, vectors):
        self._users = {
            v.user_id: SimpleNamespace(
                user_id=v.user_id,
                screen_name=f"user{v.user_id}",
                description="",
                verified=bool(v.user_id % 2),
                followers=v.user_id % 97,
            )
            for v in vectors
        }

    def user(self, user_id):
        return self._users[user_id]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.skipif(
    not exact_tail_available(), reason="numpy-free deployment"
)
class TestVectorizedTailByteIdentity:
    @SETTINGS
    @given(vectors=_feature_pools(), apply_log=st.booleans())
    def test_bit_identical_to_the_scalar_pipeline(self, vectors, apply_log):
        platform = _StubPlatform(vectors)
        normalization = NormalizationConfig(apply_log=apply_log)
        ranking = RankingConfig()

        normalized = normalize_features(vectors, normalization)
        scalar = score_candidates(platform, vectors, normalized, ranking)
        vector = score_vectors_exact(
            platform, vectors, normalization, ranking
        )

        assert [e.user_id for e in vector] == [e.user_id for e in scalar]
        for left, right in zip(vector, scalar):
            assert _bits(left.score) == _bits(right.score)
            assert _bits(left.zscores.z_topical_signal) == _bits(
                right.zscores.z_topical_signal
            )
            assert _bits(left.zscores.z_mention_impact) == _bits(
                right.zscores.z_mention_impact
            )
            assert _bits(left.zscores.z_retweet_impact) == _bits(
                right.zscores.z_retweet_impact
            )
            assert left.features == right.features

    def test_empty_pool(self):
        platform = _StubPlatform([])
        assert (
            score_vectors_exact(
                platform, [], NormalizationConfig(), RankingConfig()
            )
            == []
        )

    def test_constant_columns_take_the_zero_branch_together(self):
        vectors = [FeatureVector(i, 3.5, 3.5, 3.5) for i in range(5)]
        platform = _StubPlatform(vectors)
        normalization = NormalizationConfig(apply_log=False)
        ranking = RankingConfig()
        normalized = normalize_features(vectors, normalization)
        scalar = score_candidates(platform, vectors, normalized, ranking)
        vector = score_vectors_exact(
            platform, vectors, normalization, ranking
        )
        assert [e.user_id for e in vector] == [e.user_id for e in scalar]
        assert all(_bits(e.score) == _bits(0.0) for e in vector)
