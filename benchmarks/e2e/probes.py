"""Per-layer metrics of a traced run.

Two kinds.  *Layer probes* time each layer's public functions directly,
on a freshly loaded system, and read the same on every workload.
*Workload attribution* reads the answers, stats and spans of the
workload that just ran; a layer that does no work in a workload reports
zero there.
"""

from __future__ import annotations

import io
import time

from harness import Round, Setup, median, percentile
from spans import attribute, layer_shares


#: metric prefixes that describe the workload that ran, not a layer probe
WORKLOAD_SCOPED = ("serving.", "fleet.", "incremental.", "detector.memo_hit_ratio")


def _sorted_ns(call, items) -> list[int]:
    """Time ``call(item)`` for every item; sorted nanoseconds."""
    clock = time.perf_counter_ns
    samples = []
    for item in items:
        started = clock()
        call(item)
        samples.append(clock() - started)
    samples.sort()
    return samples


# -- layer probes ------------------------------------------------------------------


def artifact_probes(setup: Setup) -> dict[str, float]:
    from repro.core.esharp import ESharp

    loads = []
    for _ in range(5):
        started = time.perf_counter()
        system = ESharp.from_artifact(setup.artifact)
        loads.append(time.perf_counter() - started)
    started = time.perf_counter_ns()
    system.find_experts(setup.queries[0])
    first_query_ms = (time.perf_counter_ns() - started) / 1e6
    return {
        "artifact.load_s": median(loads),
        "artifact.first_query_ms": first_query_ms,
    }


def expansion_probes(system, queries: list[str]) -> dict[str, float]:
    expander = system.online.expander
    expand = _sorted_ns(expander.expand_terms, queries)
    expanded = [(query, *expander.expand_terms(query)) for query in queries]
    pools = {
        term: system.detector.score(term)
        for _, terms, _ in expanded
        for term in terms
    }

    def union(item) -> None:
        query, terms, domain_id = item
        expander.score_terms(
            query,
            terms,
            domain_id,
            term_scorer=lambda wanted: [pools[term] for term in wanted],
        )

    return {
        "expansion.expand_us_p50": percentile(expand, 0.5) / 1e3,
        "expansion.terms_per_query": sum(
            len(terms) for _, terms, _ in expanded
        )
        / len(expanded),
        "expansion.union_us_p50": percentile(_sorted_ns(union, expanded), 0.5)
        / 1e3,
    }


def detector_probes(system, queries: list[str]) -> dict[str, float]:
    from repro.detector.vectorized import score_engine_query_exact
    from repro.utils.text import tokenize

    detector = system.detector
    engine = detector.engine
    expander = system.online.expander
    terms = list(
        dict.fromkeys(
            term for query in queries for term in expander.expand_terms(query)[0]
        )
    )
    single = [term for term in terms if len(set(tokenize(term))) == 1]
    multi = [term for term in terms if len(set(tokenize(term))) > 1]
    epsilon = detector.normalization.epsilon

    detector.configure_score_cache(cache_scores=False)
    cold = _sorted_ns(detector.score, terms)
    cold_single = _sorted_ns(detector.score, single)
    cold_multi = _sorted_ns(detector.score, multi)
    columns = _sorted_ns(
        lambda term: engine.packed_scoring_columns(
            next(iter(set(tokenize(term)))), epsilon
        ),
        single,
    )
    tail = _sorted_ns(
        lambda term: score_engine_query_exact(
            engine,
            system.platform,
            term,
            detector.normalization,
            detector.ranking,
        ),
        terms,
    )
    detector.configure_score_cache(cache_scores=True)
    candidates = sum(len(detector.score(term)) for term in terms)
    memo_hit = _sorted_ns(detector.score, terms)
    return {
        "detector.score_cold_ms_p50": percentile(cold, 0.5) / 1e6,
        "detector.score_cold_ms_p95": percentile(cold, 0.95) / 1e6,
        "detector.score_cold_single_ms_p50": percentile(cold_single, 0.5) / 1e6,
        "detector.score_cold_multi_ms_p50": percentile(cold_multi, 0.5) / 1e6,
        "detector.columns_us_p50": percentile(columns, 0.5) / 1e3,
        "detector.vector_tail_ms_p50": percentile(tail, 0.5) / 1e6,
        "detector.candidates_per_term": candidates / len(terms),
        "detector.memo_hit_us_p50": percentile(memo_hit, 0.5) / 1e3,
    }


def layer_probes(setup: Setup) -> dict[str, float]:
    metrics = dict(setup.child["probes"])
    metrics.update(artifact_probes(setup))
    system = setup.load_system()
    metrics.update(expansion_probes(system, setup.queries))
    metrics.update(detector_probes(system, setup.queries))
    return metrics


# -- workload attribution --------------------------------------------------------------


def serving_metrics(workload, rounds: list[Round]) -> dict[str, float]:
    """What the serving tier did, from the answers the clients got."""
    answers = [answer for result in rounds for answer in result.answers]
    latencies = sorted(
        value for result in rounds for value in result.latencies_ns
    )
    metrics = {"serving.latency_p99_ms": percentile(latencies, 0.99) / 1e6}
    service = getattr(workload, "service", None)
    if service is None:
        return metrics  # the fleet client sees only the router
    hits = sorted(a.total_seconds for a in answers if a.cache_hit)
    misses = [a for a in answers if not a.cache_hit]
    miss_seconds = sorted(a.total_seconds for a in misses)
    overhead = sorted(
        a.total_seconds - a.expansion_seconds - a.detection_seconds
        for a in misses
        if not a.coalesced
    )
    stats = service.stats()
    memo = workload.system.detector.cache_info()
    metrics.update(
        {
            "serving.cache_hit_ratio": len(hits) / len(answers),
            "serving.hit_us_p50": percentile(hits, 0.5) * 1e6,
            "serving.miss_ms_p50": percentile(miss_seconds, 0.5) * 1e3,
            "serving.miss_ms_p95": percentile(miss_seconds, 0.95) * 1e3,
            "serving.overhead_us_p50": percentile(overhead, 0.5) * 1e6,
            "serving.coalesced_share": sum(1 for a in answers if a.coalesced)
            / len(answers),
            "serving.admission_rejected": stats.admission.rejected,
            "serving.pool_tasks_per_query": stats.detection_pool.submitted
            / max(1, stats.requests),
            "detector.memo_hit_ratio": memo.hit_rate,
        }
    )
    swaps = [r.extra for r in rounds if "post_swap_queries" in r.extra]
    if swaps:
        metrics["serving.post_swap_hit_ratio"] = sum(
            extra["post_swap_hits"] for extra in swaps
        ) / sum(extra["post_swap_queries"] for extra in swaps)
    return metrics


INCREMENTAL_STAGES = {
    "incremental.ingest_ms": "DeltaIngest",
    "incremental.join_ms": "DeltaJoin",
    "incremental.graph_ms": "DeltaGraph",
    "incremental.cluster_ms": "DeltaCluster",
    "incremental.domains_ms": "DeltaDomains",
}


def incremental_metrics(rounds: list[Round]) -> dict[str, float]:
    """Delta-refresh accounting over every cycle of a ``refresh_cycle`` run."""
    cycles = [r.extra for r in rounds if "focused_stats" in r.extra]
    if not cycles:
        return {}
    steady = [extra for extra in cycles if not extra["reseeded"]] or cycles
    focused = [extra["focused_stats"] for extra in steady]
    metrics = {
        name: median(
            stats.stage_seconds.get(stage, 0.0) * 1e3 for stats in focused
        )
        for name, stage in INCREMENTAL_STAGES.items()
    }
    clustered = [s for s in focused if s.cluster_mode != "unchanged"]
    metrics.update(
        {
            "incremental.recomputed_pairs": median(
                stats.recomputed_pairs for stats in focused
            ),
            "incremental.domains_reused_share": median(
                stats.domains_reused / stats.domains
                for stats in focused
                if stats.domains
            ),
            # the useful-outcome ratio: focused deltas re-clustered locally
            "incremental.local_share": (
                sum(1 for s in clustered if s.cluster_mode == "local")
                / len(clustered)
                if clustered
                else 0.0
            ),
            "incremental.focused_delta_ms": median(
                extra["focused_s"] * 1e3 for extra in steady
            ),
            "incremental.broad_delta_ms": median(
                extra["broad_s"] * 1e3 for extra in cycles
            ),
            "incremental.reseed_ms": median(
                extra["focused_s"] * 1e3
                for extra in cycles
                if extra["reseeded"]
            ),
            "incremental.full_refresh_s": median(
                extra["full_refresh_s"]
                for extra in cycles
                if "full_refresh_s" in extra
            ),
        }
    )
    return metrics


def _round_p50_ms(call, order) -> float:
    return percentile(_sorted_ns(call, order), 0.5) / 1e6


def fleet_metrics(
    workload, setup: Setup, rounds: list[Round], spans, pools, spawn_s: float
) -> dict[str, float]:
    """Where a fleet request's time goes, from router counters, ``/proc``
    CPU, the leg spans, and replays of the captured wire payloads."""
    from repro.fleet import FleetRouter, InProcessReplica
    from repro.fleet.merge import merge_partials
    from repro.fleet.wire import (
        parse_message,
        partial_from_wire,
        partial_to_wire,
        write_message,
    )
    from repro.serving.service import ExpertService, PartialPool, ServiceConfig

    queries = sum(result.queries for result in rounds)
    worker_cpu = sum(result.extra["worker_cpu_s"] for result in rounds)
    own_cpu = sum(result.cpu_s for result in rounds) - worker_cpu
    stats = workload.router.stats()
    legs = sorted(s[2] - s[1] for s in spans if s[0] == "fleetleg.call")

    partials = [pool for pool in pools if isinstance(pool, PartialPool)]
    frames = []

    def encode(pool) -> None:
        sink = io.StringIO()
        write_message(sink, {"id": 1, "ok": partial_to_wire(pool)})
        frames.append(sink.getvalue())

    encode_ns = _sorted_ns(encode, partials)
    decode_ns = _sorted_ns(
        lambda frame: partial_from_wire(parse_message(frame)["ok"]), frames
    )
    by_query: dict[str, list] = {}
    for pool in partials:
        by_query.setdefault(pool.query, []).append(pool)
    direct_system = setup.load_system()
    ranking = direct_system.config.ranking
    merge_ns = _sorted_ns(
        lambda group: merge_partials(
            group,
            threshold=ranking.min_zscore,
            max_results=ranking.max_results,
        ),
        [group[:2] for group in by_query.values() if len(group) >= 2],
    )

    # the same round without the fleet: one in-process service, then the
    # router over two in-process replicas (no pipes, no JSON)
    service_config = ServiceConfig(detection_workers=1, cache_capacity=0)
    with ExpertService(direct_system, service_config) as direct:
        _round_p50_ms(direct.query, workload.order)
        direct_ms = _round_p50_ms(direct.query, workload.order)
    inproc = FleetRouter.from_artifact(
        setup.artifact,
        [
            InProcessReplica(
                f"inproc-{index}", setup.load_system(), service_config
            )
            for index in range(2)
        ],
        sharding="hash",
    )
    try:
        _round_p50_ms(inproc.query, workload.order)
        inproc_ms = _round_p50_ms(inproc.query, workload.order)
    finally:
        inproc.close()
    fleet_ms = median(
        percentile(sorted(result.latencies_ns), 0.5) / 1e6 for result in rounds
    )
    requests = max(1, stats.requests)
    return {
        "fleet.router_cpu_ms_per_query": own_cpu * 1e3 / queries,
        "fleet.worker_cpu_ms_per_query": worker_cpu * 1e3 / queries,
        "fleet.legs_per_query": (stats.scatter_legs + stats.single_shard)
        / requests,
        "fleet.scatter_share": stats.scattered / requests,
        "fleet.hedges_per_query": stats.hedges_fired / requests,
        "fleet.hedge_win_share": (
            stats.hedge_wins / stats.hedges_fired if stats.hedges_fired else 0.0
        ),
        "fleet.leg_ms_p50": percentile(legs, 0.5) / 1e6,
        "fleet.leg_ms_p95": percentile(legs, 0.95) / 1e6,
        "fleet.wire_bytes_per_query": sum(len(f) for f in frames)
        / max(1, len(by_query)),
        "fleet.wire_encode_us_p50": percentile(encode_ns, 0.5) / 1e3,
        "fleet.wire_decode_us_p50": percentile(decode_ns, 0.5) / 1e3,
        "fleet.merge_us_p50": percentile(merge_ns, 0.5) / 1e3,
        "fleet.direct_ms_p50": direct_ms,
        "fleet.inproc_ms_p50": inproc_ms,
        "fleet.overhead_ms_p50": fleet_ms - direct_ms,
        "fleet.spawn_s": spawn_s,
    }


def trace_metrics(
    spans, untraced: dict[str, float], traced: dict[str, float]
) -> dict[str, float]:
    """Layer shares of request time, and how far tracing bent the run."""
    attributed = attribute(spans)
    shares = layer_shares(attributed)
    requests = sorted(
        sum(rows.values())
        for root, rows in attributed
        if root[0] in ("serving.query", "fleet.query")
    )
    summed_p50_ms = percentile(requests, 0.5) / 1e6
    base = untraced["latency_p50_ms"]
    return {
        "trace.overhead_share": 1.0
        - traced["throughput_qps"] / untraced["throughput_qps"],
        "trace.sum_error_share": abs(summed_p50_ms - base) / base,
        "trace.detector_share": shares.get("detector", 0.0),
        "trace.expansion_share": shares.get("expansion", 0.0),
        "trace.serving_share": shares.get("serving", 0.0),
        "trace.fleet_router_share": shares.get("fleet", 0.0),
        "trace.fleet_leg_share": shares.get("fleetleg", 0.0),
        "trace.refresh_share": shares.get("incremental", 0.0)
        + shares.get("offline", 0.0),
    }
