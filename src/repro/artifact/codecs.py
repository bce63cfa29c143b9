"""Per-stage codecs: exact, self-describing binary-sidecar stage files.

Every pipeline structure is persisted as two files: the numeric columns
and string tables go raw into one aligned ``stage-<output>.bin`` sidecar
(see :mod:`repro.artifact.sidecar`), and a small
``stage-<output>.meta.jsonl`` JSON-lines file keeps the non-columnar
remainder (counters, user records, pending ledgers).  Loading opens the
sidecar with mmap and hands the columns to the consumers as zero-copy
views — no JSON parse of the bulk data, no array copies; the pages
fault in lazily as queries touch them.  Each codec gives three
guarantees:

* **Exactness** — the decoded object is byte-identical to the encoded
  one: floats travel as raw IEEE doubles, integer counters verbatim, and
  *insertion order is preserved wherever it is semantically
  load-bearing* (the query-log click ``Counter`` feeds ``SparseVector``
  norms whose float summation is order-dependent, so the codec replays
  pairs in the store's own order).
* **Self-description** — every ``.meta`` file starts with a one-line
  header ``repro-artifact <kind> <codec-version>`` and every sidecar
  carries the same pair in its binary header; a reader that does not
  speak the version refuses with :class:`ArtifactVersionError` instead
  of guessing.
* **No garbage on corruption** — the ``.meta`` file is verified against
  its manifest checksum before a line is parsed, the sidecar against its
  manifest size and offset table, and every structural surprise inside a
  codec (a length disagreement, an out-of-range index) raises
  :class:`ArtifactCorruptError`; nothing is ever unpickled.

Encoders take ``(obj, writer)``, add their columns to the
:class:`~repro.artifact.sidecar.SidecarWriter` and yield the meta
records; decoders take ``(records, view)``.  The :data:`CODECS` registry
maps each logical artifact name to its ``(kind, version, encode,
decode)`` quadruple — the only table the builder/loader need.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import sys
from array import array
from typing import Any, Callable, Iterable, Iterator

from repro.artifact.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactVersionError,
)
from repro.chaos.inject import fire
from repro.community.parallel import IterationTrace
from repro.community.partition import Partition
from repro.expansion.domainstore import DomainStore, ExpertiseDomain
from repro.microblog.platform import MicroblogPlatform
from repro.microblog.users import UserProfile
from repro.querylog.store import QueryLogStore
from repro.simgraph.graph import MultiGraph, WeightedGraph
from repro.utils.packed import pack_strings, unpack_strings

MAGIC = "repro-artifact"


# -- stage file I/O ----------------------------------------------------------


def write_stage_file(
    path: pathlib.Path, kind: str, version: int, records: Iterable[dict]
) -> tuple[str, int]:
    """Write one stage file atomically; returns ``(sha256, size_bytes)``."""
    lines = [f"{MAGIC} {kind} {version}"]
    for record in records:
        lines.append(
            json.dumps(record, ensure_ascii=False, separators=(",", ":"))
        )
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_bytes(payload)
    os.replace(scratch, path)
    return hashlib.sha256(payload).hexdigest(), len(payload)


def read_stage_records(
    path: pathlib.Path,
    kind: str,
    version: int,
    sha256: str,
    size_bytes: int,
) -> list[dict]:
    """Verify then parse one stage file.

    The checksum/length check runs against the raw bytes *first*, so a
    truncated or bit-flipped file is rejected before any payload line is
    parsed — a corrupted artifact can never produce a half-decoded
    object.
    """
    fire("artifact.read", path=str(path))
    try:
        payload = pathlib.Path(path).read_bytes()
    except FileNotFoundError:
        raise ArtifactCorruptError(f"stage file missing: {path}") from None
    except OSError as exc:
        raise ArtifactCorruptError(f"cannot read {path}: {exc}") from exc
    if len(payload) != size_bytes:
        raise ArtifactCorruptError(
            f"{path} is {len(payload)} bytes, manifest says {size_bytes} "
            "(truncated or overwritten)"
        )
    if hashlib.sha256(payload).hexdigest() != sha256:
        raise ArtifactCorruptError(f"{path} fails its manifest checksum")
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactCorruptError(f"{path} is not valid UTF-8") from exc
    lines = text.splitlines()
    if not lines:
        raise ArtifactCorruptError(f"{path} is empty")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != MAGIC:
        raise ArtifactCorruptError(
            f"{path} has no '{MAGIC} <kind> <version>' header"
        )
    if header[1] != kind:
        raise ArtifactCorruptError(
            f"{path} holds a {header[1]!r} stage, expected {kind!r}"
        )
    if header[2] != str(version):
        raise ArtifactVersionError(
            f"{path}: codec {kind!r} version {header[2]} is not supported "
            f"(this build reads version {version})"
        )
    records = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ArtifactCorruptError(
                f"{path}:{number}: malformed record: {exc}"
            ) from exc
    return records


def _require(record: dict, key: str) -> Any:
    try:
        return record[key]
    except (KeyError, TypeError):
        raise ArtifactCorruptError(
            f"record missing field {key!r}: {record!r}"
        ) from None


# -- chunking, bounds & byte-order helpers -----------------------------------

#: rows per JSON record; one big list parses ~30% faster than one record
#: per line, without producing unboundedly long lines
_CHUNK = 8192


def _chunks(rows: list) -> Iterator[list]:
    for start in range(0, len(rows), _CHUNK):
        yield rows[start : start + _CHUNK]


def _require_in_bounds(column, size: int, what: str) -> None:
    """Bulk-check an index column against the table it points into.

    A negative index would wrap to a real entry and decode to a value
    that was never written; the sidecar payload is not hashed at load,
    so this is the only guard.
    """
    if len(column) and not 0 <= min(column) <= max(column) < size:
        raise ArtifactCorruptError(f"{what} out of bounds")


def _byteorder_guard(meta: dict) -> None:
    order = meta.get("byteorder")
    if order != sys.byteorder:
        raise ArtifactError(
            f"artifact was written on a {order!r}-endian machine, this one "
            f"is {sys.byteorder!r}-endian; rebuild the artifact here"
        )


# -- microblog corpus --------------------------------------------------------
#
# The corpus is stored *columnar*: every numeric per-tweet/per-index
# column and the tweet texts go into the sidecar, only the user records
# and pending ledgers into the meta file.  Decoding therefore rebuilds
# the platform's indexes over mmap'd views and leaves Tweet
# materialisation deferred (see MicroblogPlatform.restore) — the
# difference between a multi-second and a millisecond warm start at
# standard scale.


def _parse_corpus_users(rows: list) -> list[UserProfile]:
    users: list[UserProfile] = []
    for row in rows:
        (
            user_id,
            screen_name,
            description,
            persona,
            expert_topics,
            preferred,
            verified,
            followers,
        ) = row
        users.append(
            UserProfile(
                user_id=int(user_id),
                screen_name=str(screen_name),
                description=str(description),
                persona=str(persona),
                expert_topics=tuple(int(t) for t in expert_topics),
                preferred_keywords={
                    int(topic_id): tuple(keywords)
                    for topic_id, keywords in preferred.items()
                },
                verified=bool(verified),
                followers=int(followers),
            )
        )
    return users


_CORPUS_LEDGER_COLUMNS = (
    "tweet_ids",
    "authors",
    "retweet_of",
    "retweet_authors",
    "topic_ids",
    "mention_offsets",
    "mention_ids",
)


def _flattened_map(packed_or_dict, row_typecode: str):
    """``(keys, offsets, flat_rows)`` of a posting/by-author style map."""
    parts = getattr(packed_or_dict, "packed_parts", None)
    if parts is not None:  # PackedSliceMap: already flat, stream it through
        return parts()
    offsets = array("l", [0])
    flat = array(row_typecode)
    for rows in packed_or_dict.values():
        flat.extend(rows)
        offsets.append(len(flat))
    return list(packed_or_dict.keys()), offsets, flat


def encode_corpus_sidecar(
    platform: MicroblogPlatform, writer
) -> Iterator[dict]:
    state = platform.export_state()
    totals = state["totals"]
    writer.add_column("total_tweets", array("q", [t[0] for t in totals]))
    writer.add_column("total_mentions", array("q", [t[1] for t in totals]))
    writer.add_column("total_retweets", array("q", [t[2] for t in totals]))
    for name in _CORPUS_LEDGER_COLUMNS:
        writer.add_column(name, state[name])
    text_byte_offsets, _char_offsets, text_blob = pack_strings(state["texts"])
    writer.add_column("text_byte_offsets", text_byte_offsets)
    writer.add_blob("text_blob", text_blob)
    tokens, posting_offsets, posting_rows = _flattened_map(
        state["postings"], "l"
    )
    _byte_offsets, ptok_char_offsets, ptok_blob = pack_strings(tokens)
    writer.add_column("ptok_char_offsets", ptok_char_offsets)
    writer.add_blob("ptok_blob", ptok_blob)
    writer.add_column("posting_offsets", posting_offsets)
    writer.add_column("posting_rows", posting_rows)
    author_ids, author_offsets, author_tweets = _flattened_map(
        state["by_author"], "q"
    )
    writer.add_column("author_ids", array("q", author_ids))
    writer.add_column("author_offsets", author_offsets)
    writer.add_column("author_tweets", author_tweets)
    yield {
        "meta": {
            "mutations": state["mutations"],
            "byteorder": sys.byteorder,
        }
    }
    user_rows = [
        [
            user.user_id,
            user.screen_name,
            user.description,
            user.persona,
            list(user.expert_topics),
            {
                str(topic_id): list(keywords)
                for topic_id, keywords in user.preferred_keywords.items()
            },
            user.verified,
            user.followers,
        ]
        for user in state["users"]
    ]
    for chunk in _chunks(user_rows):
        yield {"u": chunk}
    if state["pending_retweets"]:
        yield {
            "pr": [
                [original, rows]
                for original, rows in state["pending_retweets"].items()
            ]
        }
    if state["pending_mentions"]:
        yield {
            "pm": [
                [user_id, count]
                for user_id, count in state["pending_mentions"].items()
            ]
        }


def decode_corpus_sidecar(records: list[dict], view) -> MicroblogPlatform:
    from repro.utils.packed import LazyStrings, PackedSliceMap, unpack_strings

    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("corpus stage has no meta record")
    meta = records[0]["meta"]
    _byteorder_guard(meta)
    users: list[UserProfile] = []
    pending_retweets: dict[int, list[int]] = {}
    pending_mentions: dict[int, int] = {}
    try:
        for record in records[1:]:
            if "u" in record:
                users.extend(_parse_corpus_users(record["u"]))
            elif "pr" in record:
                pending_retweets = {
                    int(original): [int(row) for row in rows]
                    for original, rows in record["pr"]
                }
            elif "pm" in record:
                pending_mentions = {
                    int(user_id): int(count)
                    for user_id, count in record["pm"]
                }
            else:
                raise ArtifactCorruptError(
                    f"unknown corpus meta record: {record!r}"
                )
        totals = list(
            zip(
                view.column("total_tweets"),
                view.column("total_mentions"),
                view.column("total_retweets"),
            )
        )
        tokens = unpack_strings(
            view.column("ptok_char_offsets"), view.column("ptok_blob")
        )
        postings = PackedSliceMap(
            tokens,
            view.column("posting_offsets"),
            view.column("posting_rows"),
        )
        author_ids = view.column("author_ids")
        by_author = PackedSliceMap(
            author_ids.tolist(),
            view.column("author_offsets"),
            view.column("author_tweets"),
        )
        texts = LazyStrings(
            view.column("text_byte_offsets"), view.column("text_blob")
        )
        return MicroblogPlatform.restore(
            users=users,
            totals=totals,
            texts=texts,
            tweet_ids=view.column("tweet_ids"),
            authors=view.column("authors"),
            retweet_of=view.column("retweet_of"),
            retweet_authors=view.column("retweet_authors"),
            topic_ids=view.column("topic_ids"),
            mention_offsets=view.column("mention_offsets"),
            mention_ids=view.column("mention_ids"),
            postings=postings,
            by_author=by_author,
            pending_retweets=pending_retweets,
            pending_mentions=pending_mentions,
            mutations=int(_require(meta, "mutations")),
        )
    except (IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed corpus stage: {exc}") from exc


# -- detection-engine packed index -------------------------------------------
#
# The columnar candidate index is itself an offline-stage product (built
# eagerly by ESharp.build so the first query never pays it); persisting
# it means a warm start skips the whole corpus re-aggregation.  All
# per-token columns share one offsets array since they are parallel.

_ENGINE_COLUMNS: tuple[tuple[str, str], ...] = (
    ("user_ids", "q"),
    ("on_topic_tweets", "l"),
    ("on_topic_mentions", "l"),
    ("on_topic_retweets_received", "l"),
    ("topical_signal", "d"),
    ("mention_impact", "d"),
    ("retweet_impact", "d"),
)


def encode_engine_sidecar(packed: tuple, writer) -> Iterator[dict]:
    from repro.detector.engine import PACKED_LOG_EPSILON

    index, built_at = packed
    flat_parts = getattr(index, "flat_parts", None)
    logs = None
    if flat_parts is not None:  # PackedEngineIndex: stream the flat buffers
        tokens, offsets, columns, logs, log_epsilon = flat_parts()
        if log_epsilon != PACKED_LOG_EPSILON:
            logs = None
    else:
        tokens = list(index.keys())
        offsets = array("l", [0])
        total = 0
        for candidates in index.values():
            total += len(candidates)
            offsets.append(total)
        columns = {}
        for name, typecode in _ENGINE_COLUMNS:
            flat = array(typecode)
            for candidates in index.values():
                flat.extend(getattr(candidates, name))
            columns[name] = flat
    if logs is None:
        # log-transformed feature columns, computed once at save time so
        # every warm start (and the vectorized scoring tail) gets them
        # for free.  math.log, never numpy.log: the scalar log_transform
        # is the spec and the two libms differ in the last ulp.
        floor = math.log(PACKED_LOG_EPSILON)
        logs = {
            log_name: array(
                "d",
                [
                    math.log(value) if value > PACKED_LOG_EPSILON else floor
                    for value in columns[name]
                ],
            )
            for log_name, name in (
                ("log_topical_signal", "topical_signal"),
                ("log_mention_impact", "mention_impact"),
                ("log_retweet_impact", "retweet_impact"),
            )
        }
    _byte_offsets, tok_char_offsets, tok_blob = pack_strings(tokens)
    writer.add_column("tok_char_offsets", tok_char_offsets)
    writer.add_blob("tok_blob", tok_blob)
    writer.add_column("offsets", offsets)
    for name, _typecode in _ENGINE_COLUMNS:
        writer.add_column(name, columns[name])
    for name in ("log_topical_signal", "log_mention_impact", "log_retweet_impact"):
        writer.add_column(name, logs[name])
    yield {
        "meta": {
            "built_at": built_at,
            "byteorder": sys.byteorder,
            "log_epsilon": PACKED_LOG_EPSILON,
        }
    }


def decode_engine_sidecar(records: list[dict], view) -> tuple:
    from repro.detector.engine import PackedEngineIndex
    from repro.utils.packed import unpack_strings

    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("engine stage has no meta record")
    meta = records[0]["meta"]
    _byteorder_guard(meta)
    try:
        tokens = unpack_strings(
            view.column("tok_char_offsets"), view.column("tok_blob")
        )
        offsets = view.column("offsets")
        columns = {
            name: view.column(name) for name, _typecode in _ENGINE_COLUMNS
        }
        log_columns = {
            name: view.column(name)
            for name in PackedEngineIndex.LOG_FIELDS
            if name in view
        }
        index = PackedEngineIndex(
            tokens,
            offsets,
            columns,
            log_columns=log_columns or None,
            log_epsilon=float(_require(meta, "log_epsilon")),
        )
        total = index.candidate_rows()
        for name, column in columns.items():
            if len(column) != total:
                raise ArtifactCorruptError(
                    f"engine column {name!r} disagrees with the offsets"
                )
        for name, column in log_columns.items():
            if len(column) != total:
                raise ArtifactCorruptError(
                    f"engine column {name!r} disagrees with the offsets"
                )
        return index, int(_require(meta, "built_at"))
    except (IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed engine stage: {exc}") from exc


# -- query-log store ---------------------------------------------------------


def encode_querylog_sidecar(store: QueryLogStore, writer) -> Iterator[dict]:
    queries: list[str] = []
    counts = array("q")
    for query, count in store.iter_query_counts():
        queries.append(query)
        counts.append(count)
    counted = len(queries)
    query_position = {query: i for i, query in enumerate(queries)}
    urls: list[str] = []
    url_position: dict[str, int] = {}
    click_query = array("q")
    click_url = array("q")
    click_count = array("q")
    for (query, url), count in store.iter_clicks():
        position = query_position.get(query)
        if position is None:
            position = query_position[query] = len(queries)
            queries.append(query)
        click_query.append(position)
        position = url_position.get(url)
        if position is None:
            position = url_position[url] = len(urls)
            urls.append(url)
        click_url.append(position)
        click_count.append(count)
    _bytes_q, query_char_offsets, query_blob = pack_strings(queries)
    writer.add_column("query_char_offsets", query_char_offsets)
    writer.add_blob("query_blob", query_blob)
    _bytes_u, url_char_offsets, url_blob = pack_strings(urls)
    writer.add_column("url_char_offsets", url_char_offsets)
    writer.add_blob("url_blob", url_blob)
    writer.add_column("query_counts", counts)
    writer.add_column("click_query", click_query)
    writer.add_column("click_url", click_url)
    writer.add_column("click_count", click_count)
    yield {
        "meta": {
            "min_support": store.min_support,
            "impressions": store.impressions,
            "raw_bytes": store.raw_bytes,
            "counted_queries": counted,
        }
    }


def decode_querylog_sidecar(records: list[dict], view) -> QueryLogStore:
    from repro.utils.packed import unpack_strings

    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("query-log stage has no meta record")
    meta = records[0]["meta"]
    try:
        queries = unpack_strings(
            view.column("query_char_offsets"), view.column("query_blob")
        )
        urls = unpack_strings(
            view.column("url_char_offsets"), view.column("url_blob")
        )
        counts = view.column("query_counts")
        counted = int(_require(meta, "counted_queries"))
        if len(counts) != counted or counted > len(queries):
            raise ArtifactCorruptError(
                "query-log counts disagree with the query table"
            )
        # zip stops at the counted prefix: trailing queries exist only as
        # click keys.  All bulk C-level construction — this is what turns
        # the per-pair restore loop into a ~10 ms operation.
        query_counts = dict(zip(queries, counts.tolist()))
        click_query, click_url = view.column("click_query"), view.column("click_url")
        _require_in_bounds(click_query, len(queries), "query-log click index")
        _require_in_bounds(click_url, len(urls), "query-log click index")
        click_queries = list(map(queries.__getitem__, click_query))
        click_urls = list(map(urls.__getitem__, click_url))
        clicks = dict(
            zip(zip(click_queries, click_urls), view.column("click_count").tolist())
        )
        return QueryLogStore.restore_columnar(
            min_support=int(_require(meta, "min_support")),
            impressions=int(_require(meta, "impressions")),
            raw_bytes=int(_require(meta, "raw_bytes")),
            query_counts=query_counts,
            clicks=clicks,
        )
    except (IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed query-log stage: {exc}") from exc


# -- similarity graphs -------------------------------------------------------
#
# Both graphs are numeric once the vertex labels are interned: one string
# table plus (u, v, value) index columns.  The decoders hand the label
# pairs to the graph classes' bulk ``restore_sorted`` constructors, which
# build the adjacency dicts directly — at artifact scale the per-edge
# ``add_edge`` calls (and their cache invalidation) were the loader's
# single largest remaining cost.


def _write_vertex_table(writer, vertices) -> dict[str, int]:
    _byte_offsets, char_offsets, blob = pack_strings(list(vertices))
    writer.add_column("vertex_char_offsets", char_offsets)
    writer.add_blob("vertex_blob", blob)
    return {vertex: i for i, vertex in enumerate(vertices)}


def _read_edge_labels(view, vertices) -> tuple[list[str], list[str]]:
    """Decode edge endpoint columns into label lists (bounds-checked)."""
    edge_u, edge_v = view.column("edge_u"), view.column("edge_v")
    if len(edge_u) != len(edge_v):
        raise ArtifactCorruptError("graph edge columns disagree in length")
    for column in (edge_u, edge_v):
        _require_in_bounds(column, len(vertices), "graph edge endpoint")
    return (
        list(map(vertices.__getitem__, edge_u)),
        list(map(vertices.__getitem__, edge_v)),
    )


def encode_weighted_graph_sidecar(
    graph: WeightedGraph, writer
) -> Iterator[dict]:
    index = _write_vertex_table(writer, graph.sorted_vertices())
    edge_u, edge_v, edge_weight = array("l"), array("l"), array("d")
    for u, v, weight in graph.edges():
        edge_u.append(index[u])
        edge_v.append(index[v])
        edge_weight.append(weight)
    writer.add_column("edge_u", edge_u)
    writer.add_column("edge_v", edge_v)
    writer.add_column("edge_weight", edge_weight)
    yield {"meta": {"byteorder": sys.byteorder}}


def decode_weighted_graph_sidecar(records: list[dict], view) -> WeightedGraph:
    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("weighted-graph stage has no meta record")
    _byteorder_guard(records[0]["meta"])
    try:
        vertices = unpack_strings(
            view.column("vertex_char_offsets"), view.column("vertex_blob")
        )
        us, vs = _read_edge_labels(view, vertices)
        weights = view.column("edge_weight").tolist()
        if len(weights) != len(us):
            raise ArtifactCorruptError(
                "graph edge columns disagree in length"
            )
        return WeightedGraph.restore_sorted(vertices, zip(us, vs, weights))
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(
            f"malformed weighted-graph stage: {exc}"
        ) from exc


def encode_multigraph_sidecar(graph: MultiGraph, writer) -> Iterator[dict]:
    index = _write_vertex_table(writer, graph.sorted_vertices())
    edge_u, edge_v, edge_mult = array("l"), array("l"), array("q")
    for u, v, multiplicity in graph.sorted_edges():
        edge_u.append(index[u])
        edge_v.append(index[v])
        edge_mult.append(multiplicity)
    writer.add_column("edge_u", edge_u)
    writer.add_column("edge_v", edge_v)
    writer.add_column("edge_multiplicity", edge_mult)
    yield {"meta": {"byteorder": sys.byteorder}}


def decode_multigraph_sidecar(records: list[dict], view) -> MultiGraph:
    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("multigraph stage has no meta record")
    _byteorder_guard(records[0]["meta"])
    try:
        vertices = unpack_strings(
            view.column("vertex_char_offsets"), view.column("vertex_blob")
        )
        us, vs = _read_edge_labels(view, vertices)
        mults = view.column("edge_multiplicity").tolist()
        if len(mults) != len(us):
            raise ArtifactCorruptError(
                "graph edge columns disagree in length"
            )
        return MultiGraph.restore_sorted(vertices, zip(us, vs, mults))
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed multigraph stage: {exc}") from exc


def encode_partition_sidecar(partition: Partition, writer) -> Iterator[dict]:
    assignment = partition.assignment
    communities: dict[str, int] = {}
    assign = array("l")
    for community in assignment.values():
        assign.append(communities.setdefault(community, len(communities)))
    _byte_offsets, vertex_char_offsets, vertex_blob = pack_strings(
        list(assignment)
    )
    writer.add_column("vertex_char_offsets", vertex_char_offsets)
    writer.add_blob("vertex_blob", vertex_blob)
    _byte_offsets, community_char_offsets, community_blob = pack_strings(
        list(communities)
    )
    writer.add_column("community_char_offsets", community_char_offsets)
    writer.add_blob("community_blob", community_blob)
    writer.add_column("assignment", assign)
    yield {"meta": {"byteorder": sys.byteorder}}


def decode_partition_sidecar(records: list[dict], view) -> Partition:
    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("partition stage has no meta record")
    _byteorder_guard(records[0]["meta"])
    try:
        vertices = unpack_strings(
            view.column("vertex_char_offsets"), view.column("vertex_blob")
        )
        communities = unpack_strings(
            view.column("community_char_offsets"), view.column("community_blob")
        )
        assign = view.column("assignment")
        if len(assign) != len(vertices):
            raise ArtifactCorruptError(
                "partition assignment disagrees with the vertex table"
            )
        _require_in_bounds(
            assign, len(communities), "partition community index"
        )
        return Partition(
            dict(zip(vertices, map(communities.__getitem__, assign)))
        )
    except (IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed partition stage: {exc}") from exc


def encode_domain_store_sidecar(store: DomainStore, writer) -> Iterator[dict]:
    offsets = array("l", [0])
    keywords: list[str] = []
    for domain in store.domains():
        keywords.extend(domain.keywords)
        offsets.append(len(keywords))
    _byte_offsets, keyword_char_offsets, keyword_blob = pack_strings(keywords)
    writer.add_column("keyword_char_offsets", keyword_char_offsets)
    writer.add_blob("keyword_blob", keyword_blob)
    writer.add_column("domain_offsets", offsets)
    yield {"meta": {"byteorder": sys.byteorder}}


def decode_domain_store_sidecar(records: list[dict], view) -> DomainStore:
    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("domain-store stage has no meta record")
    _byteorder_guard(records[0]["meta"])
    try:
        keywords = unpack_strings(
            view.column("keyword_char_offsets"), view.column("keyword_blob")
        )
        offsets = view.column("domain_offsets")
        if (
            not len(offsets)
            or offsets[0] != 0
            or offsets[len(offsets) - 1] != len(keywords)
        ):
            raise ArtifactCorruptError(
                "domain offsets disagree with the keyword table"
            )
        domains: list[ExpertiseDomain] = []
        for i in range(len(offsets) - 1):
            start, stop = offsets[i], offsets[i + 1]
            if stop <= start:
                raise ArtifactCorruptError("empty or unordered domain slice")
            members = tuple(keywords[start:stop])
            # the pipeline writes canonical ids (a domain's id is its
            # smallest member keyword), so reconstructing them is exact
            domains.append(
                ExpertiseDomain(domain_id=min(members), keywords=members)
            )
        return DomainStore(domains)
    except (IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(
            f"malformed domain-store stage: {exc}"
        ) from exc


_HISTORY_COLUMNS = ("iteration", "communities", "merges", "modularity_gain")


def encode_history_sidecar(
    history: list[IterationTrace], writer
) -> Iterator[dict]:
    writer.add_column(
        "iteration", array("l", [trace.iteration for trace in history])
    )
    writer.add_column(
        "communities", array("l", [trace.communities for trace in history])
    )
    writer.add_column(
        "merges", array("l", [trace.merges for trace in history])
    )
    writer.add_column(
        "modularity_gain",
        array("d", [trace.modularity_gain for trace in history]),
    )
    yield {"meta": {"byteorder": sys.byteorder}}


def decode_history_sidecar(records: list[dict], view) -> list[IterationTrace]:
    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("history stage has no meta record")
    _byteorder_guard(records[0]["meta"])
    try:
        columns = [view.column(name) for name in _HISTORY_COLUMNS]
        if len({len(column) for column in columns}) > 1:
            raise ArtifactCorruptError("history columns disagree in length")
        return [
            IterationTrace(
                iteration=iteration,
                communities=communities,
                merges=merges,
                modularity_gain=gain,
            )
            for iteration, communities, merges, gain in zip(
                *(column.tolist() for column in columns)
            )
        ]
    except (IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed history stage: {exc}") from exc


def encode_edge_dict_sidecar(
    edges: dict[tuple[str, str], float], writer
) -> Iterator[dict]:
    # dict insertion order is preserved verbatim (the resumable join
    # depends on it): the vertex table lists labels in first-appearance
    # order and the edge columns keep the dict's own order
    index: dict[str, int] = {}
    edge_u, edge_v, edge_weight = array("l"), array("l"), array("d")
    for (u, v), weight in edges.items():
        edge_u.append(index.setdefault(u, len(index)))
        edge_v.append(index.setdefault(v, len(index)))
        edge_weight.append(weight)
    _write_vertex_table(writer, list(index))
    writer.add_column("edge_u", edge_u)
    writer.add_column("edge_v", edge_v)
    writer.add_column("edge_weight", edge_weight)
    yield {"meta": {"byteorder": sys.byteorder}}


def decode_edge_dict_sidecar(
    records: list[dict], view
) -> dict[tuple[str, str], float]:
    if not records or "meta" not in records[0]:
        raise ArtifactCorruptError("edge-dict stage has no meta record")
    _byteorder_guard(records[0]["meta"])
    try:
        vertices = unpack_strings(
            view.column("vertex_char_offsets"), view.column("vertex_blob")
        )
        us, vs = _read_edge_labels(view, vertices)
        weights = view.column("edge_weight").tolist()
        if len(weights) != len(us):
            raise ArtifactCorruptError(
                "graph edge columns disagree in length"
            )
        return dict(zip(zip(us, vs), weights))
    except (IndexError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(f"malformed edge-dict stage: {exc}") from exc


# -- registry ----------------------------------------------------------------

#: logical artifact name → (kind, codec version, encode(obj, writer) →
#: meta records, decode(records, view) → obj).  The sidecar and its
#: ``.meta`` file share the version.
CODECS: dict[str, tuple[str, int, Callable, Callable]] = {
    "store": ("querylog", 2, encode_querylog_sidecar, decode_querylog_sidecar),
    "corpus": ("corpus", 2, encode_corpus_sidecar, decode_corpus_sidecar),
    "engine_index": (
        "engine-index",
        2,
        encode_engine_sidecar,
        decode_engine_sidecar,
    ),
    "refresher_store": (
        "querylog",
        2,
        encode_querylog_sidecar,
        decode_querylog_sidecar,
    ),
    "weighted_graph": (
        "weighted-graph",
        2,
        encode_weighted_graph_sidecar,
        decode_weighted_graph_sidecar,
    ),
    "multigraph": (
        "multigraph",
        2,
        encode_multigraph_sidecar,
        decode_multigraph_sidecar,
    ),
    "refresher_edges": (
        "edge-dict",
        2,
        encode_edge_dict_sidecar,
        decode_edge_dict_sidecar,
    ),
    "partition": (
        "partition",
        2,
        encode_partition_sidecar,
        decode_partition_sidecar,
    ),
    "domain_store": (
        "domain-store",
        2,
        encode_domain_store_sidecar,
        decode_domain_store_sidecar,
    ),
    "clustering_history": (
        "clustering-history",
        2,
        encode_history_sidecar,
        decode_history_sidecar,
    ),
}
