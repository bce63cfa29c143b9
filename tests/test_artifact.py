"""Codec-level artifact properties.

Every codec must satisfy, for arbitrary inputs:

* **exact round-trip** — decode(encode(x)) reproduces the object's
  state, including floats to the byte and insertion order where it is
  semantically load-bearing;
* **re-encode stability** — save → load → save produces byte-identical
  stage files (the ``.bin`` sidecar and its ``.meta`` remainder);
* **typed failure** — a truncated, bit-flipped, mis-headed or
  structurally damaged file raises an :class:`ArtifactError` subclass,
  never returns a half-decoded object (and nothing is ever unpickled).
"""

from __future__ import annotations

import hashlib
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifact.codecs import (
    CODECS,
    MAGIC,
    read_stage_records,
    write_stage_file,
)
from repro.artifact.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactVersionError,
)
from repro.artifact.sidecar import SidecarWriter, open_sidecar
from repro.artifact.manifest import (
    Manifest,
    config_fingerprint,
    config_from_jsonable,
    config_to_jsonable,
    read_manifest,
)
from repro.community.parallel import IterationTrace
from repro.community.partition import Partition
from repro.core.config import ESharpConfig
from repro.detector.engine import IndexedDetectionEngine
from repro.expansion.domainstore import DomainStore
from repro.microblog.platform import MicroblogPlatform
from repro.microblog.tweets import Tweet
from repro.microblog.users import UserProfile
from repro.querylog.records import Impression
from repro.querylog.store import QueryLogStore
from repro.simgraph.graph import MultiGraph, WeightedGraph

SETTINGS = settings(max_examples=25, deadline=None)

names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
weights = st.floats(
    min_value=1e-6, max_value=100.0, allow_nan=False, allow_infinity=False
)


def write_stage(tmp_path, stem: str, name: str, value, tamper=None):
    """Encode ``value`` through its codec into ``<stem>.bin`` + ``.meta``.

    ``tamper`` maps a column name to replacement contents, applied as
    the encoder hands the column to the writer — how the corruption
    tests forge a structurally valid sidecar with damaged values.
    Returns ``(bin_path, meta_path, load)`` where ``load()`` verifies,
    maps and decodes the pair exactly as the artifact loader does.
    """
    kind, version, encode, decode = CODECS[name]
    bin_path = tmp_path / f"{stem}.bin"
    meta_path = tmp_path / f"{stem}.meta.jsonl"
    writer = SidecarWriter(bin_path, kind, version)
    if tamper:
        add_column = writer.add_column
        writer.add_column = lambda column_name, column: add_column(
            column_name, tamper.get(column_name, column)
        )
    records = list(encode(value, writer))
    _bin_sha, bin_size = writer.finish()
    meta_sha, meta_size = write_stage_file(meta_path, kind, version, records)

    def load():
        return decode(
            read_stage_records(meta_path, kind, version, meta_sha, meta_size),
            open_sidecar(bin_path, kind, version, size_bytes=bin_size),
        )

    return bin_path, meta_path, load


def roundtrip(tmp_path, name: str, value):
    """Encode → decode → re-encode one artifact through its codec.

    Returns the decoded object after asserting the two encodings are
    byte-identical on disk.
    """
    first_bin, first_meta, load = write_stage(tmp_path, "first", name, value)
    decoded = load()
    second_bin, second_meta, _load = write_stage(
        tmp_path, "second", name, decoded
    )
    assert first_bin.read_bytes() == second_bin.read_bytes()
    assert first_meta.read_bytes() == second_meta.read_bytes()
    return decoded


# -- stage file mechanics ----------------------------------------------------


class TestStageFiles:
    def write(self, tmp_path, records=({"a": 1},), kind="edge-dict"):
        path = tmp_path / "stage.jsonl"
        sha, size = write_stage_file(path, kind, 1, iter(records))
        return path, sha, size

    def test_truncation_is_detected_before_parsing(self, tmp_path):
        path, sha, size = self.write(tmp_path)
        path.write_bytes(path.read_bytes()[: size - 3])
        with pytest.raises(ArtifactCorruptError, match="truncated"):
            read_stage_records(path, "edge-dict", 1, sha, size)

    def test_bit_flip_fails_the_checksum(self, tmp_path):
        path, sha, size = self.write(tmp_path)
        payload = bytearray(path.read_bytes())
        payload[size // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            read_stage_records(path, "edge-dict", 1, sha, size)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactCorruptError, match="missing"):
            read_stage_records(tmp_path / "nope", "edge-dict", 1, "0" * 64, 4)

    def _craft(self, tmp_path, text: str):
        path = tmp_path / "crafted.jsonl"
        payload = text.encode("utf-8")
        path.write_bytes(payload)
        return path, hashlib.sha256(payload).hexdigest(), len(payload)

    def test_unsupported_codec_version_is_typed(self, tmp_path):
        path, sha, size = self._craft(tmp_path, f"{MAGIC} edge-dict 99\n")
        with pytest.raises(ArtifactVersionError, match="version 99"):
            read_stage_records(path, "edge-dict", 1, sha, size)

    def test_wrong_kind_is_rejected(self, tmp_path):
        path, sha, size = self._craft(tmp_path, f"{MAGIC} partition 1\n")
        with pytest.raises(ArtifactCorruptError, match="expected 'edge-dict'"):
            read_stage_records(path, "edge-dict", 1, sha, size)

    def test_missing_header_is_rejected(self, tmp_path):
        path, sha, size = self._craft(tmp_path, '{"a": 1}\n')
        with pytest.raises(ArtifactCorruptError, match="header"):
            read_stage_records(path, "edge-dict", 1, sha, size)

    def test_malformed_record_is_rejected(self, tmp_path):
        path, sha, size = self._craft(
            tmp_path, f"{MAGIC} edge-dict 1\nnot json at all\n"
        )
        with pytest.raises(ArtifactCorruptError, match="malformed record"):
            read_stage_records(path, "edge-dict", 1, sha, size)


# -- per-structure round-trips -----------------------------------------------


class TestQueryLogCodec:
    @SETTINGS
    @given(
        rows=st.lists(
            st.tuples(names, st.lists(names, max_size=3)), max_size=40
        ),
        min_support=st.integers(1, 3),
    )
    def test_roundtrip(self, tmp_path_factory, rows, min_support):
        tmp_path = tmp_path_factory.mktemp("querylog")
        store = QueryLogStore(min_support=min_support)
        store.extend(
            Impression(query=query, clicked_urls=tuple(urls))
            for query, urls in rows
        )
        loaded = roundtrip(tmp_path, "store", store)
        assert loaded.min_support == store.min_support
        assert loaded.impressions == store.impressions
        assert loaded.raw_bytes == store.raw_bytes
        # exact content *and* insertion order (norm summation order)
        assert list(loaded.iter_query_counts()) == list(
            store.iter_query_counts()
        )
        assert list(loaded.iter_clicks()) == list(store.iter_clicks())

    @staticmethod
    def two_query_store() -> QueryLogStore:
        store = QueryLogStore(min_support=1)
        store.extend(
            [
                Impression(query="alpha", clicked_urls=("u1",)),
                Impression(query="beta", clicked_urls=("u2",)),
            ]
        )
        return store

    def test_negative_count_is_corrupt(self, tmp_path):
        _bin, _meta, load = write_stage(
            tmp_path,
            "bad",
            "store",
            self.two_query_store(),
            tamper={"query_counts": array("q", [1, -1])},
        )
        with pytest.raises(ArtifactCorruptError):
            load()

    @pytest.mark.parametrize("column", ["click_query", "click_url"])
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_click_index_out_of_bounds_is_corrupt(self, tmp_path, column, bad):
        """A negative index must not wrap to a real table entry: with
        ``click_query`` all ``-1`` the store used to decode to
        ``{('beta','u1'): 1, ('beta','u2'): 1}`` — a pair never logged."""
        _bin, _meta, load = write_stage(
            tmp_path,
            "bad",
            "store",
            self.two_query_store(),
            tamper={column: array("q", [bad, bad])},
        )
        with pytest.raises(ArtifactCorruptError, match="out of bounds"):
            load()


class TestGraphCodecs:
    @SETTINGS
    @given(
        edges=st.dictionaries(
            st.tuples(names, names).filter(lambda p: p[0] != p[1]),
            weights,
            max_size=30,
        ),
        isolated=st.sets(names, max_size=5),
    )
    def test_weighted_roundtrip(self, tmp_path_factory, edges, isolated):
        tmp_path = tmp_path_factory.mktemp("weighted")
        graph = WeightedGraph.from_edges(
            {(min(u, v), max(u, v)): w for (u, v), w in edges.items()}
        )
        for vertex in isolated:
            graph.add_vertex(vertex)
        loaded = roundtrip(tmp_path, "weighted_graph", graph)
        assert list(loaded.edges()) == list(graph.edges())  # exact floats
        assert loaded.sorted_vertices() == graph.sorted_vertices()

    @SETTINGS
    @given(
        edges=st.dictionaries(
            st.tuples(names, names).filter(lambda p: p[0] != p[1]),
            st.integers(1, 9),
            max_size=30,
        ),
        isolated=st.sets(names, max_size=5),
    )
    def test_multigraph_roundtrip(self, tmp_path_factory, edges, isolated):
        tmp_path = tmp_path_factory.mktemp("multi")
        graph = MultiGraph()
        for (u, v), multiplicity in sorted(edges.items()):
            graph.add_edge(u, v, multiplicity)
        for vertex in isolated:
            graph.add_vertex(vertex)
        loaded = roundtrip(tmp_path, "multigraph", graph)
        assert loaded.sorted_edges() == graph.sorted_edges()
        assert loaded.sorted_vertices() == graph.sorted_vertices()
        assert loaded.total_edges == graph.total_edges

    @SETTINGS
    @given(
        edges=st.dictionaries(
            st.tuples(names, names).filter(lambda p: p[0] != p[1]),
            weights,
            max_size=30,
        )
    )
    def test_edge_dict_preserves_insertion_order(
        self, tmp_path_factory, edges
    ):
        tmp_path = tmp_path_factory.mktemp("edges")
        loaded = roundtrip(tmp_path, "refresher_edges", edges)
        assert list(loaded.items()) == list(edges.items())


class TestPartitionAndDomainCodecs:
    @SETTINGS
    @given(assignment=st.dictionaries(names, names, max_size=40))
    def test_partition_roundtrip(self, tmp_path_factory, assignment):
        tmp_path = tmp_path_factory.mktemp("partition")
        partition = Partition(dict(assignment))
        loaded = roundtrip(tmp_path, "partition", partition)
        assert loaded.assignment == partition.assignment
        assert list(loaded.assignment) == list(partition.assignment)

    @SETTINGS
    @given(assignment=st.dictionaries(names, names, min_size=1, max_size=40))
    def test_domain_store_roundtrip(self, tmp_path_factory, assignment):
        tmp_path = tmp_path_factory.mktemp("domains")
        store = DomainStore.from_partition(Partition(dict(assignment)))
        loaded = roundtrip(tmp_path, "domain_store", store)
        assert loaded.domains() == store.domains()

    @SETTINGS
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 50),
                st.integers(0, 500),
                st.integers(0, 500),
                weights,
            ),
            max_size=20,
        )
    )
    def test_history_roundtrip(self, tmp_path_factory, rows):
        tmp_path = tmp_path_factory.mktemp("history")
        history = [
            IterationTrace(
                iteration=i, communities=c, merges=m, modularity_gain=g
            )
            for i, c, m, g in rows
        ]
        loaded = roundtrip(tmp_path, "clustering_history", history)
        assert loaded == history


# -- corpus + engine ---------------------------------------------------------


WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


@st.composite
def platforms(draw) -> MicroblogPlatform:
    """A platform built through the real ingestion path, with users
    registering mid-stream, out-of-order retweets, mentions of unknown
    users, and duplicate screen names."""
    n_users = draw(st.integers(1, 5))
    n_tweets = draw(st.integers(0, 25))
    platform = MicroblogPlatform()

    def profile(user_id: int) -> UserProfile:
        return UserProfile(
            user_id=user_id,
            screen_name=draw(st.sampled_from(["dup", f"u{user_id}"])),
            description=f"user {user_id}",
            persona=draw(st.sampled_from(["casual", "focused_expert"])),
            expert_topics=(),
        )

    registered = [0]
    platform.add_user(profile(0))
    pending_users = list(range(1, n_users))
    for tweet_id in range(n_tweets):
        if pending_users and draw(st.booleans()):
            platform.add_user(profile(pending_users.pop(0)))
            registered.append(len(registered))
        author = draw(st.sampled_from(registered))
        text = " ".join(
            draw(
                st.lists(
                    st.sampled_from(WORDS), min_size=1, max_size=4
                )
            )
        )
        mentions = tuple(
            draw(st.lists(st.integers(0, n_users + 1), max_size=2))
        )
        retweet_of = draw(
            st.one_of(st.none(), st.integers(0, n_tweets + 1))
        )
        if retweet_of == tweet_id:
            retweet_of = None  # a tweet cannot retweet itself
        platform.add_tweet(
            Tweet(
                tweet_id=tweet_id,
                author_id=author,
                text=text,
                mentions=mentions,
                retweet_of=retweet_of,
                topic_id=draw(st.one_of(st.none(), st.integers(0, 3))),
            )
        )
    for user_id in pending_users:
        platform.add_user(profile(user_id))
    return platform


def _rows(mapping) -> dict:
    """A posting/by-author map with its row containers as plain lists, so
    an owned platform and one reading mmap'd views compare equal."""
    return {key: list(rows) for key, rows in mapping.items()}


def assert_platform_state_equal(
    actual: MicroblogPlatform, expected: MicroblogPlatform
) -> None:
    actual._ensure_tweets()
    expected._ensure_tweets()
    assert actual._tweets == expected._tweets
    assert list(actual._tweets) == list(expected._tweets)
    assert actual._row_of == expected._row_of
    assert actual._users == expected._users
    assert list(actual._users) == list(expected._users)
    assert actual._totals == expected._totals
    assert _rows(actual._by_author) == _rows(expected._by_author)
    assert actual._by_screen_name == expected._by_screen_name
    assert _rows(actual._postings) == _rows(expected._postings)
    assert list(actual._postings) == list(expected._postings)
    for column in (
        "_col_tweet_ids",
        "_col_authors",
        "_col_retweet_authors",
        "_mention_offsets",
        "_mention_ids",
    ):
        assert list(getattr(actual, column)) == list(getattr(expected, column))
    assert actual._pending_retweets == expected._pending_retweets
    assert actual._pending_mentions == expected._pending_mentions
    assert actual.mutation_count == expected.mutation_count


class TestCorpusCodec:
    @SETTINGS
    @given(platform=platforms())
    def test_roundtrip_restores_every_index(
        self, tmp_path_factory, platform
    ):
        tmp_path = tmp_path_factory.mktemp("corpus")
        loaded = roundtrip(tmp_path, "corpus", platform)
        assert_platform_state_equal(loaded, platform)

    @SETTINGS
    @given(platform=platforms())
    def test_deferred_save_is_byte_identical(
        self, tmp_path_factory, platform
    ):
        """Saving a warm-started (never hydrated) platform re-encodes the
        columnar payload without materialising tweets, byte-identically."""
        tmp_path = tmp_path_factory.mktemp("deferred")
        first_bin, first_meta, load = write_stage(
            tmp_path, "first", "corpus", platform
        )
        loaded = load()
        assert loaded._deferred is not None  # still columnar
        second_bin, second_meta, _load = write_stage(
            tmp_path, "second", "corpus", loaded
        )
        assert loaded._deferred is not None  # export did not hydrate
        assert first_bin.read_bytes() == second_bin.read_bytes()
        assert first_meta.read_bytes() == second_meta.read_bytes()

    @SETTINGS
    @given(platform=platforms())
    def test_ingestion_continues_after_restore(
        self, tmp_path_factory, platform
    ):
        """A restored platform accepts further add_* calls and ends in the
        same state as the original receiving the same calls — warm-started
        replicas stay first-class citizens for incremental ingest."""
        tmp_path = tmp_path_factory.mktemp("ingest")
        loaded = roundtrip(tmp_path, "corpus", platform)
        follow_up_user = UserProfile(
            user_id=9001,
            screen_name="late",
            description="late joiner",
            persona="casual",
            expert_topics=(),
        )
        follow_up = Tweet(
            tweet_id=9002,
            author_id=9001,
            text="alpha beta",
            mentions=(0,),
        )
        for target in (platform, loaded):
            target.add_user(follow_up_user)
            target.add_tweet(follow_up)
        assert_platform_state_equal(loaded, platform)


class TestEngineCodec:
    @SETTINGS
    @given(platform=platforms())
    def test_roundtrip(self, tmp_path_factory, platform):
        tmp_path = tmp_path_factory.mktemp("engine")
        engine = IndexedDetectionEngine(platform)
        engine.refresh()
        packed = engine.export_packed()
        index, built_at = roundtrip(tmp_path, "engine_index", packed)
        assert built_at == packed[1]
        assert list(index) == list(packed[0])
        for token, candidates in packed[0].items():
            restored = index[token]
            for field in (
                "user_ids",
                "on_topic_tweets",
                "on_topic_mentions",
                "on_topic_retweets_received",
                "topical_signal",
                "mention_impact",
                "retweet_impact",
            ):
                assert list(getattr(restored, field)) == list(
                    getattr(candidates, field)
                )

    def test_restore_refuses_a_stale_index(self, tmp_path):
        platform = MicroblogPlatform()
        platform.add_user(
            UserProfile(
                user_id=0,
                screen_name="a",
                description="",
                persona="casual",
                expert_topics=(),
            )
        )
        engine = IndexedDetectionEngine(platform)
        engine.refresh()
        index, built_at = engine.export_packed()
        platform.add_tweet(Tweet(tweet_id=0, author_id=0, text="alpha"))
        fresh = IndexedDetectionEngine(platform)
        assert not fresh.restore_packed(index, built_at)
        assert fresh.restore_packed(*engine.export_packed()) is False
        fresh.refresh()  # falls back to an honest rebuild
        assert fresh.stats().built_at_mutation == platform.mutation_count


# -- manifest + config -------------------------------------------------------


class TestManifestAndConfig:
    @pytest.mark.parametrize(
        "config",
        [ESharpConfig.small(seed=7), ESharpConfig.standard(seed=2016)],
    )
    def test_config_roundtrip_preserves_fingerprint(self, config):
        rebuilt = config_from_jsonable(
            ESharpConfig, config_to_jsonable(config)
        )
        assert rebuilt == config
        assert config_fingerprint(rebuilt) == config_fingerprint(config)

    def test_missing_manifest_is_typed(self, tmp_path):
        with pytest.raises(ArtifactError, match="not an artifact directory"):
            read_manifest(tmp_path)

    def test_invalid_json_manifest_is_corrupt(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(ArtifactCorruptError):
            read_manifest(tmp_path)

    def test_foreign_format_version_is_typed(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"format": "repro-artifact", "format_version": 999}'
        )
        with pytest.raises(ArtifactVersionError):
            read_manifest(tmp_path)

    def test_not_a_manifest_is_corrupt(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ArtifactCorruptError, match="format marker"):
            read_manifest(tmp_path)

    def test_manifest_jsonable_roundtrip(self):
        manifest = Manifest(
            format_version=1,
            config_fingerprint="ff",
            seed=7,
            snapshot_version=3,
            complete=True,
            config={"seed": 7},
        )
        assert Manifest.from_jsonable(manifest.to_jsonable()) == manifest
