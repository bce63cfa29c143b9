"""The set-up child: build the corpus, write the reference answers.

Runs in its own process so the measuring process only ever warm-starts
(`ESharp.from_artifact`) and its peak RSS is the serving footprint, not
the build's.  Three phases, each timed separately so the parent can
keep reference and probe time out of ``setup_s``:

1. **build** — ``ESharp(config).build(artifact_dir=OUT)``: the offline
   pipeline, the corpus, the candidate index, persisted as an artifact.
2. **reference** — the content of every supported query's answer from
   one plain ``ExpertService`` on the fresh build, plus a seed-scan
   oracle (``PalCountsDetector(use_engine=False)`` through a plain
   ``QueryExpander``) for a seeded 16-query sample, compared here.
3. **probe** (traced runs only) — one direct, timed pass over each
   offline layer's public function, and the artifact writers.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import shutil
import sys
import time

ORACLE_SAMPLE = 16

#: ServedAnswer wire fields that describe the serving of an answer, not
#: its content
VOLATILE_FIELDS = (
    "expansion_seconds",
    "detection_seconds",
    "total_seconds",
    "cache_hit",
    "coalesced",
)


def directory_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def make_config(scale: str, seed: int):
    from repro.core.config import ESharpConfig

    if scale == "small":
        return ESharpConfig.small(seed=seed)
    return ESharpConfig.standard(seed=seed)


def reference_answers(system) -> dict:
    """Content of every supported query's answer, popularity order."""
    from repro.fleet.wire import answer_to_wire
    from repro.serving.loadgen import candidate_queries
    from repro.serving.service import ExpertService

    answers = {}
    with ExpertService(system) as service:
        for query in candidate_queries(system, 1 << 30):
            wire = answer_to_wire(service.query(query))
            for field in VOLATILE_FIELDS:
                wire.pop(field)
            answers[query] = wire
    return answers


def oracle_mismatches(system, answers: dict, seed: int) -> tuple[int, int]:
    """Seed-scan answers for a seeded sample vs the reference answers."""
    from repro.detector.palcounts import PalCountsDetector
    from repro.expansion.expander import QueryExpander
    from repro.fleet.wire import expert_to_wire

    scan = PalCountsDetector(
        system.platform,
        ranking=system.config.ranking,
        normalization=system.config.normalization,
        use_engine=False,
    )
    expander = QueryExpander(system.offline.domain_store, scan)
    queries = list(answers)
    sample = random.Random(seed).sample(
        queries, min(ORACLE_SAMPLE, len(queries))
    )
    wrong = 0
    for query in sample:
        result = expander.detect(query)
        experts = [expert_to_wire(expert) for expert in result.experts]
        reference = answers[query]
        if (
            experts != reference["experts"]
            or list(result.terms) != reference["terms"]
        ):
            wrong += 1
    return len(sample), wrong


def probe_offline_layers(config, scratch: pathlib.Path, system) -> dict:
    """One direct pass over each offline layer, timed from outside."""
    from repro.community.parallel import ParallelCommunityDetector
    from repro.detector.engine import IndexedDetectionEngine
    from repro.expansion.domainstore import DomainStore
    from repro.microblog.generator import generate_platform
    from repro.querylog.generator import QueryLogGenerator
    from repro.simgraph.extract import extract_similarity_graph
    from repro.worldmodel.builder import build_world

    def timed(call):
        started = time.perf_counter()
        value = call()
        return value, time.perf_counter() - started

    world = build_world(config.world)
    store, fill_s = timed(
        QueryLogGenerator(world, config.querylog).fill_store
    )
    extraction, extract_s = timed(
        lambda: extract_similarity_graph(store, config.similarity)
    )
    clusterer = ParallelCommunityDetector(
        extraction.multigraph, config.clustering
    )
    partition, cluster_s = timed(clusterer.run)
    _, domains_s = timed(lambda: DomainStore.from_partition(partition))
    platform, generate_s = timed(
        lambda: generate_platform(world, config.microblog)
    )
    engine = IndexedDetectionEngine(platform)
    _, engine_s = timed(engine.refresh)

    default_dir = scratch / "save-default"
    sidecar_dir = scratch / "save-sidecar-only"
    _, save_s = timed(lambda: system.save_artifact(default_dir))
    system.save_artifact(sidecar_dir, legacy_columns=False)
    sidecar_bytes = directory_bytes(sidecar_dir)
    shutil.rmtree(default_dir)
    shutil.rmtree(sidecar_dir)
    return {
        "querylog.fill_store_s": fill_s,
        "simgraph.extract_s": extract_s,
        "simgraph.edges": extraction.weighted.edge_count,
        "community.cluster_s": cluster_s,
        "community.iterations": len(clusterer.history),
        "expansion.domains_build_s": domains_s,
        "microblog.generate_s": generate_s,
        "detector.engine_build_s": engine_s,
        "detector.engine_bytes": engine.estimated_bytes(),
        "artifact.save_s": save_s,
        "artifact.sidecar_only_mb": sidecar_bytes / 1e6,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("small", "standard"), required=True)
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    from repro.core.esharp import ESharp

    config = make_config(args.scale, args.world_seed)
    artifact = args.out / "artifact"
    started = time.perf_counter()
    system = ESharp(config).build(artifact_dir=artifact)
    build_s = time.perf_counter() - started

    started = time.perf_counter()
    answers = reference_answers(system)
    checked, wrong = oracle_mismatches(system, answers, args.seed)
    reference_s = time.perf_counter() - started

    started = time.perf_counter()
    probes = (
        probe_offline_layers(config, args.out, system) if args.probe else {}
    )
    probe_s = time.perf_counter() - started

    (args.out / "reference.json").write_text(
        json.dumps(answers), encoding="utf-8"
    )
    (args.out / "child.json").write_text(
        json.dumps(
            {
                "build_s": build_s,
                "excluded_s": reference_s + probe_s,
                "artifact_bytes": directory_bytes(artifact),
                "oracle_checked": checked,
                "oracle_mismatches": wrong,
                "probes": probes,
            }
        ),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
