"""Aggregated query-log storage with support filtering and I/O accounting.

The store is the hand-off point between the simulator (S2) and the
similarity-graph extraction (S3): it holds ``(query, url) → clicks``
aggregates plus per-query impression counts, implements the paper's
minimum-support filter, and tracks the byte volumes that feed the Table 9
reproduction.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from repro.querylog.records import ClickAggregate, Impression


class QueryLogStore:
    """Mutable aggregate store for a simulated query log."""

    def __init__(self, min_support: int = 1) -> None:
        if min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {min_support}")
        self.min_support = min_support
        self._clicks: Counter[tuple[str, str]] = Counter()
        self._query_counts: Counter[str] = Counter()
        self._raw_bytes = 0
        self._impressions = 0

    # -- ingestion ---------------------------------------------------------

    def add_impression(self, impression: Impression) -> None:
        """Record one search event."""
        self._impressions += 1
        self._raw_bytes += impression.raw_bytes()
        self._query_counts[impression.query] += 1
        for url in impression.clicked_urls:
            self._clicks[(impression.query, url)] += 1

    def extend(self, impressions: Iterable[Impression]) -> None:
        for impression in impressions:
            self.add_impression(impression)

    # -- statistics --------------------------------------------------------

    @property
    def impressions(self) -> int:
        return self._impressions

    @property
    def raw_bytes(self) -> int:
        """Approximate size of the raw log — the Table 9 'Read' column."""
        return self._raw_bytes

    def query_count(self, query: str) -> int:
        return self._query_counts.get(query, 0)

    def distinct_queries(self) -> int:
        return len(self._query_counts)

    # -- filtered views ----------------------------------------------------

    def supported_queries(self) -> set[str]:
        """Queries meeting the §4.1 support threshold."""
        return {
            query
            for query, count in self._query_counts.items()
            if count >= self.min_support
        }

    def aggregates(self, supported_only: bool = True) -> Iterator[ClickAggregate]:
        """Yield ``(query, url, clicks)`` rows, filtered by support by default."""
        supported = self.supported_queries() if supported_only else None
        for (query, url), clicks in sorted(self._clicks.items()):
            if supported is not None and query not in supported:
                continue
            yield ClickAggregate(query=query, url=url, clicks=clicks)

    def click_vectors(
        self, supported_only: bool = True
    ) -> dict[str, dict[str, int]]:
        """Materialise per-query click vectors (url → clicks).

        This is the exact input of Figure 2's vector-space construction.
        """
        supported = self.supported_queries() if supported_only else None
        vectors: dict[str, dict[str, int]] = {}
        for (query, url), clicks in self._clicks.items():
            if supported is not None and query not in supported:
                continue
            vectors.setdefault(query, {})[url] = clicks
        return vectors

    def click_vectors_for(
        self, queries: set[str]
    ) -> dict[str, dict[str, int]]:
        """Click vectors for just ``queries``, in one pass over the pairs.

        The incremental refresh path rebuilds only the vectors its delta
        batch touched; per-query URL order matches
        :meth:`click_vectors` (global pair insertion order, filtered).
        """
        vectors: dict[str, dict[str, int]] = {}
        for (query, url), clicks in self._clicks.items():
            if query in queries:
                vectors.setdefault(query, {})[url] = clicks
        return vectors

    # -- persistence hooks (the artifact codec's exact state surface) ------

    def iter_query_counts(self) -> Iterator[tuple[str, int]]:
        """``(query, impressions)`` pairs in insertion order."""
        return iter(self._query_counts.items())

    def iter_clicks(self) -> Iterator[tuple[tuple[str, str], int]]:
        """``((query, url), clicks)`` pairs in insertion order.

        Order matters: per-query URL order feeds the float summation of
        :class:`~repro.simgraph.vectors.SparseVector` norms, so an exact
        round-trip must replay pairs in the order this store holds them.
        """
        return iter(self._clicks.items())

    @classmethod
    def restore_columnar(
        cls,
        *,
        min_support: int,
        impressions: int,
        raw_bytes: int,
        query_counts: dict,
        clicks: dict,
    ) -> "QueryLogStore":
        """Rebuild a store from persisted aggregates, byte-exactly.

        The inverse of :meth:`iter_query_counts`/:meth:`iter_clicks`.
        The columnar artifact codec assembles the counter contents with
        C-level ``zip``/``dict`` construction; this installs them
        directly — validating in bulk with ``min()`` rather than one
        branch per pair — which is the difference between a ~0.3 s and a
        ~0.01 s query-log restore at standard scale.  Insertion order of
        the passed dicts is preserved verbatim, so the restored store's
        iteration order — and everything derived from it — matches the
        original (downstream ``SparseVector`` norms sum floats in this
        order).
        """
        if impressions < 0 or raw_bytes < 0:
            raise ValueError("impressions/raw_bytes must be non-negative")
        if query_counts and min(query_counts.values()) <= 0:
            raise ValueError("query counts must be positive")
        if clicks and min(clicks.values()) <= 0:
            raise ValueError("click counts must be positive")
        store = cls(min_support=min_support)
        store._query_counts = Counter(query_counts)
        store._clicks = Counter(clicks)
        store._impressions = impressions
        store._raw_bytes = raw_bytes
        return store

    # -- composition ---------------------------------------------------------

    def copy(self) -> "QueryLogStore":
        """An independent deep-enough copy (aggregates are scalars)."""
        clone = QueryLogStore(min_support=self.min_support)
        clone._clicks = Counter(self._clicks)
        clone._query_counts = Counter(self._query_counts)
        clone._raw_bytes = self._raw_bytes
        clone._impressions = self._impressions
        return clone

    def merge(self, other: "QueryLogStore") -> "QueryLogStore":
        """Fold another store's aggregates into this one (in place).

        The production pipeline accumulates weekly logs into the monthly
        window it clusters (§6.3); merging stores is the equivalent
        operation here.  The support threshold of ``self`` is kept.
        """
        self._impressions += other._impressions
        self._raw_bytes += other._raw_bytes
        self._query_counts.update(other._query_counts)
        self._clicks.update(other._clicks)
        return self

    def __repr__(self) -> str:
        return (
            f"QueryLogStore(impressions={self._impressions}, "
            f"queries={len(self._query_counts)}, "
            f"pairs={len(self._clicks)}, min_support={self.min_support})"
        )
