"""The benchmark's own spans, recorded from outside the program.

Nothing under ``src/`` knows about tracing.  A traced run wraps the
public methods at each layer boundary (class-level patches, restored on
exit) so every call records ``(name, start, end, id, parent, request)``
into one in-memory list; the list is analysed — and optionally written
as JSON — when the run ends.

A layer is the part of a span name before the first dot.  A span's self
time is its duration minus the part of that interval its children cover;
children that overlap each other (per-term scoring on pool threads,
scatter legs) share the covered interval in proportion to their
durations, so the rows of one request always sum to its root span.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    """In-memory span recorder with cross-thread parent adoption.

    A span opened on a thread that has no open span (a pool thread
    running one term's scoring, an executor thread running one scatter
    leg) adopts the open span that registered itself as ``adoptable``
    for that key — at most two requests are in flight in any workload,
    so the lookup is over one or two entries.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: span id -> (span record, adoptable keys or None for "any")
        self._adoptable: dict[int, tuple[list, object]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self, key):
        for record, keys in list(self._adoptable.values()):
            if keys is None or key in keys:
                return record
        return None

    @contextlib.contextmanager
    def span(self, name: str, *, adoptable=_MISSING, adopt_key=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt(adopt_key)
        span_id = next(self._ids)
        # [name, start, end, id, parent id, request id]
        record = [
            name,
            0,
            0,
            span_id,
            parent[3] if parent is not None else 0,
            parent[5] if parent is not None else span_id,
        ]
        if adoptable is not _MISSING:
            self._adoptable[span_id] = (record, adoptable)
        stack.append(record)
        record[1] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()
            if adoptable is not _MISSING:
                del self._adoptable[span_id]
            self.spans.append(record)

    def to_json(self) -> list[dict]:
        return [
            {
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "id": span_id,
                "parent": parent,
                "request": request,
            }
            for name, start, end, span_id, parent, request in self.spans
        ]


@contextlib.contextmanager
def patched(owner, attribute: str, wrap):
    """Replace ``owner.attribute`` with ``wrap(original)`` for the block."""
    saved = owner.__dict__.get(attribute, _MISSING)
    original = getattr(owner, attribute)
    setattr(owner, attribute, wrap(original))
    try:
        yield
    finally:
        if saved is _MISSING:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, saved)


def spanned(tracer: Tracer, name: str, **span_options):
    """A wrapper factory: run the wrapped callable inside one named span."""

    def wrap(original):
        def traced(*args, **kwargs):
            with tracer.span(name, **span_options):
                return original(*args, **kwargs)

        return traced

    return wrap


@contextlib.contextmanager
def serving_spans(tracer: Tracer):
    """Spans around the serving, expansion and detector boundaries."""
    from repro.detector.palcounts import PalCountsDetector
    from repro.expansion.expander import QueryExpander
    from repro.serving.service import ExpertService

    def score_terms(original):
        # the serving tier passes its pool-sharded scorer in; a span of
        # its own keeps the pool hand-off out of the expansion layer
        def traced(self, query, terms, domain_id, term_scorer=None):
            def scorer(wanted):
                with tracer.span("serving.term_scorer", adoptable=set(wanted)):
                    return term_scorer(wanted)

            with tracer.span("expansion.score_terms"):
                return original(
                    self,
                    query,
                    terms,
                    domain_id,
                    term_scorer=scorer if term_scorer is not None else None,
                )

        return traced

    def score(original):
        def traced(self, query):
            with tracer.span("detector.score", adopt_key=query):
                return original(self, query)

        return traced

    patches = (
        (ExpertService, "query", spanned(tracer, "serving.query")),
        (
            ExpertService,
            "refresh_delta",
            spanned(tracer, "incremental.refresh_delta"),
        ),
        (
            ExpertService,
            "refresh_domains",
            spanned(tracer, "offline.refresh_domains"),
        ),
        (
            QueryExpander,
            "expand_terms",
            spanned(tracer, "expansion.expand_terms"),
        ),
        (QueryExpander, "score_terms", score_terms),
        (PalCountsDetector, "score", score),
    )
    with contextlib.ExitStack() as stack:
        for owner, attribute, wrap in patches:
            stack.enter_context(patched(owner, attribute, wrap))
        yield


@contextlib.contextmanager
def fleet_spans(tracer: Tracer, pools: list):
    """Spans around the router, its scatter legs and the merge.

    A leg covers request encode + pipe + worker + reply decode as the
    router sees it; what happens inside the worker process is visible
    only as CPU (``/proc``).  Every ``PartialPool`` a leg returns is
    appended to ``pools`` so the wire and merge probes can replay real
    payloads afterwards.
    """
    import repro.fleet.router as router_module
    from repro.fleet.replica import SubprocessReplica
    from repro.fleet.router import FleetRouter

    def leg(original):
        def traced(self, *args, **kwargs):
            with tracer.span("fleetleg.call"):
                pool = original(self, *args, **kwargs)
            pools.append(pool)
            return pool

        return traced

    patches = (
        # legs run on executor threads: they adopt the one open request
        (FleetRouter, "query", spanned(tracer, "fleet.query", adoptable=None)),
        (FleetRouter, "_expand", spanned(tracer, "fleet.expand")),
        (SubprocessReplica, "score_partial", leg),
        (SubprocessReplica, "query", leg),
        (router_module, "merge_partials", spanned(tracer, "fleet.merge")),
    )
    with contextlib.ExitStack() as stack:
        for owner, attribute, wrap in patches:
            stack.enter_context(patched(owner, attribute, wrap))
        yield


# -- analysis ------------------------------------------------------------------


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def attribute(spans: list[list]) -> list[tuple[list, dict[str, float]]]:
    """Per root span: ``(root, {layer: nanoseconds})``, summing to the root.

    Each span keeps its self time; overlapping siblings are scaled so
    together they account for exactly the interval they cover.
    """
    children: dict[int, list[list]] = defaultdict(list)
    roots = []
    for record in spans:
        if record[4]:
            children[record[4]].append(record)
        else:
            roots.append(record)

    def walk(record, weight: float, rows: dict[str, float]) -> None:
        start, stop = record[1], record[2]
        kids = children.get(record[3], ())
        clipped = [
            (max(kid[1], start), min(kid[2], stop))
            for kid in kids
            if kid[2] > start and kid[1] < stop
        ]
        covered = _union_length(clipped)
        rows[layer_of(record[0])] += weight * (stop - start - covered)
        busy = sum(kid[2] - kid[1] for kid in kids)
        if not busy:
            return
        share = weight * covered / busy
        for kid in kids:
            walk(kid, share, rows)

    attributed = []
    for root in roots:
        rows: dict[str, float] = defaultdict(float)
        walk(root, 1.0, rows)
        attributed.append((root, dict(rows)))
    return attributed


def layer_shares(attributed) -> dict[str, float]:
    """Each layer's share of the summed root-span time."""
    total = sum(root[2] - root[1] for root, _ in attributed)
    shares: dict[str, float] = defaultdict(float)
    if not total:
        return {}
    for _, rows in attributed:
        for layer, nanos in rows.items():
            shares[layer] += nanos / total
    return dict(shares)
