"""ART1 — artifact save/load vs from-scratch build (warm-start speedup).

The paper's online tier answers from a materialised collection; nothing
is rebuilt per process.  This bench measures our equivalent: persist a
built system with :func:`repro.artifact.save_artifact`, warm-start
replicas with :meth:`ESharp.from_artifact`, and compare against the
from-scratch :meth:`ESharp.build` the seed architecture forced on every
process start.  **Exactness is checked first**: the loaded replica must
answer a query sample identically (same experts, same scores, same
snapshot version) to the in-process build that saved the artifact, and
must then serve the ``bench_serving_throughput`` workload (same driver,
same assertions) straight from the loaded generation.

Every timed load runs in a **fresh subprocess** so samples cannot share
decoded state, and each sample carries the child's peak RSS
(``resource.getrusage``) — the zero-copy claim is visible as the loader
peaking far below the artifact's own size.  The page cache is warmed
before the timed loads so p50 measures decode, not disk; one
separately-recorded sample runs after a ``posix_fadvise(DONTNEED)``
eviction to keep an honest cold-cache number.

Acceptance bar: warm-start p50 >= 5x faster than a from-scratch build
at standard scale.

Writes ``BENCH_artifact.json`` at the repo root.  Also runnable
standalone; the CI smoke keeps the equivalence assertion on every push::

    PYTHONPATH=src python benchmarks/bench_artifact.py --smoke \
        --output /tmp/BENCH_artifact.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

from repro.core.config import ESharpConfig
from repro.core.esharp import ESharp
from repro.serving.loadgen import run_serve
from repro.serving.service import ServiceConfig
from repro.utils.stats import percentile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

LOAD_REPEATS = 5
MIN_SPEEDUP = 5.0
SERVE_REQUESTS = 200
SERVE_CONCURRENCY = 8

#: run in a fresh interpreter per sample: imports happen before the
#: clock starts, so the number is the warm start alone, and the child's
#: peak RSS reflects exactly one load
_CHILD_LOADER = """\
import json, resource, sys, time

path = sys.argv[1]
from repro.core.esharp import ESharp
import repro.artifact, repro.core.incremental  # noqa: F401  (lazy imports
# inside from_artifact; pull them before the clock starts so the timed
# region is the load, not one-time module initialisation)

started = time.perf_counter()
system = ESharp.from_artifact(path)
elapsed = time.perf_counter() - started

# getrusage's ru_maxrss survives fork on Linux, so a child spawned from
# a fat bench parent inherits the parent's peak; VmHWM resets at exec
# and tracks this process alone, so prefer it where /proc exists
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
                break
except OSError:
    pass
print(json.dumps({"seconds": elapsed, "peak_rss_kb": peak_kb}))
"""


def _child_load(artifact_dir: pathlib.Path) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_LOADER, str(artifact_dir)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    return json.loads(result.stdout)


def _artifact_files(artifact_dir: pathlib.Path) -> list[pathlib.Path]:
    return sorted(p for p in artifact_dir.iterdir() if p.is_file())


def _warm_page_cache(artifact_dir: pathlib.Path) -> None:
    """Fault every artifact byte in so timed loads measure decode."""
    for path in _artifact_files(artifact_dir):
        path.read_bytes()


def _evict_page_cache(artifact_dir: pathlib.Path) -> bool:
    """Best-effort eviction for the cold-cache sample (Linux honours
    ``POSIX_FADV_DONTNEED`` for clean pages); returns False where the
    platform cannot evict, in which case no cold number is recorded."""
    fadvise = getattr(os, "posix_fadvise", None)
    dontneed = getattr(os, "POSIX_FADV_DONTNEED", None)
    if fadvise is None or dontneed is None:
        return False
    for path in _artifact_files(artifact_dir):
        fd = os.open(path, os.O_RDONLY)
        try:
            fadvise(fd, 0, 0, dontneed)
        except OSError:
            return False
        finally:
            os.close(fd)
    return True


def sample_queries(system: ESharp) -> list[str]:
    world = system.offline.world
    topics = sorted(world.topics, key=lambda t: -t.popularity)[:8]
    return [t.canonical.text for t in topics] + ["no such phrase at all"]


def check_equivalence(built: ESharp, loaded: ESharp) -> dict:
    """Loaded replica ≡ in-process build, on state and on answers."""
    if built.snapshots.version != loaded.snapshots.version:
        raise AssertionError(
            "loaded snapshot version diverged from the manifest stamp"
        )
    ours, theirs = built.offline, loaded.offline
    if list(ours.weighted_graph.edges()) != list(theirs.weighted_graph.edges()):
        raise AssertionError("loaded similarity edges diverged")
    if ours.partition.assignment != theirs.partition.assignment:
        raise AssertionError("loaded partition diverged")
    if ours.domain_store.domains() != theirs.domain_store.domains():
        raise AssertionError("loaded domain store diverged")
    queries = sample_queries(built)
    for query in queries:
        if built.find_experts(query) != loaded.find_experts(query):
            raise AssertionError(f"answers diverged for {query!r}")
        if built.find_experts_baseline(query) != loaded.find_experts_baseline(
            query
        ):
            raise AssertionError(f"baseline answers diverged for {query!r}")
    return {"identical": True, "queries_checked": len(queries)}


def run_artifact_bench(
    config: ESharpConfig,
    artifact_dir: pathlib.Path,
    load_repeats: int = LOAD_REPEATS,
    serve_requests: int = SERVE_REQUESTS,
) -> dict:
    started = time.perf_counter()
    built = ESharp(config).build()
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    manifest = built.save_artifact(artifact_dir)
    save_seconds = time.perf_counter() - started

    # cold-cache sample first (recorded separately), then warm the page
    # cache so every p50 sample below measures decode, not disk
    evicted = _evict_page_cache(artifact_dir)
    cold = _child_load(artifact_dir) if evicted else None
    _warm_page_cache(artifact_dir)

    samples = [_child_load(artifact_dir) for _ in range(load_repeats)]
    load_p50 = percentile([s["seconds"] for s in samples], 0.5)

    loaded = ESharp.from_artifact(artifact_dir, expected_config=config)
    equivalence = check_equivalence(built, loaded)

    # the serving-throughput workload, unchanged, on the loaded replica
    outcome = run_serve(
        loaded,
        requests=serve_requests,
        concurrency=SERVE_CONCURRENCY,
        max_unique=64,
        zipf_exponent=1.1,
        service_config=ServiceConfig(detection_workers=4),
        baseline=False,
    )
    if outcome.report.errors:
        raise AssertionError(
            f"loaded replica served {outcome.report.errors} errors"
        )

    artifact_bytes = sum(
        (artifact_dir / entry.filename).stat().st_size
        for stage in manifest.stages.values()
        for entry in stage.files.values()
    )
    return {
        "config": {
            "impressions": config.querylog.impressions,
            "tweets": config.microblog.tweets,
            "seed": config.seed,
            "load_repeats": load_repeats,
        },
        "build": {"from_scratch_s": round(build_seconds, 4)},
        "save": {"seconds": round(save_seconds, 4)},
        "load": {
            "p50_s": round(load_p50, 4),
            "max_s": round(max(s["seconds"] for s in samples), 4),
            "samples_s": [round(s["seconds"], 4) for s in samples],
            "cold_cache_s": (
                round(cold["seconds"], 4) if cold is not None else None
            ),
            "page_cache_evicted": evicted,
            "peak_rss_kb": int(
                percentile([s["peak_rss_kb"] for s in samples], 0.5)
            ),
        },
        "warm_start_speedup": (
            round(build_seconds / load_p50, 2) if load_p50 else None
        ),
        "artifact": {
            "stages": sorted(manifest.stages),
            "bytes": artifact_bytes,
            "snapshot_version": manifest.snapshot_version,
        },
        "equivalence": equivalence,
        "serving_from_artifact": {
            "requests": outcome.report.requests,
            "errors": outcome.report.errors,
            "qps": round(outcome.report.qps, 1),
            "p50_ms": round(outcome.report.p50_ms, 3),
            "p99_ms": round(outcome.report.p99_ms, 3),
        },
    }


def render(payload: dict) -> str:
    build = payload["build"]
    load = payload["load"]
    serving = payload["serving_from_artifact"]
    lines = [
        "ART1 — artifact warm start vs from-scratch build (s)",
        f"  corpus: {payload['config']['impressions']} impressions, "
        f"{payload['config']['tweets']} tweets",
        f"  from-scratch build  {build['from_scratch_s']:>8.4f}",
        f"  artifact save       {payload['save']['seconds']:>8.4f}"
        f"  ({payload['artifact']['bytes'] / 1e6:.1f} MB, "
        f"{len(payload['artifact']['stages'])} stages)",
        f"  warm start p50      {load['p50_s']:>8.4f}"
        f"  speedup={payload['warm_start_speedup']}x"
        f"  (peak rss {load['peak_rss_kb'] / 1024:.0f} MB)",
    ]
    if load["cold_cache_s"] is not None:
        lines.append(f"  cold-cache load     {load['cold_cache_s']:>8.4f}")
    lines += [
        f"  equivalence: identical={payload['equivalence']['identical']} "
        f"over {payload['equivalence']['queries_checked']} queries",
        f"  serving from artifact: {serving['requests']} requests, "
        f"{serving['errors']} errors, {serving['qps']} q/s "
        f"(p50 {serving['p50_ms']} ms)",
    ]
    return "\n".join(lines)


def write_payload(payload: dict, path: pathlib.Path) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_artifact_roundtrip(benchmark, results_dir, tmp_path_factory):
    # a dedicated system: the bench needs an honest from-scratch build
    # time, which the shared session system has already paid
    config = ESharpConfig.standard(seed=2016)
    artifact_dir = tmp_path_factory.mktemp("bench-artifact") / "art"
    payload = benchmark.pedantic(
        run_artifact_bench, args=(config, artifact_dir), rounds=1, iterations=1
    )
    assert payload["equivalence"]["identical"]
    assert payload["warm_start_speedup"] >= MIN_SPEEDUP
    assert payload["serving_from_artifact"]["errors"] == 0

    bench_path = REPO_ROOT / "BENCH_artifact.json"
    write_payload(payload, bench_path)

    from conftest import write_artifact

    write_artifact(
        results_dir,
        "artifact_roundtrip",
        render(payload) + f"\n[json written to {bench_path}]",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=("small", "standard"), default="standard"
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--load-repeats", type=int, default=LOAD_REPEATS)
    parser.add_argument(
        "--artifact-dir",
        type=pathlib.Path,
        default=None,
        help="where to write the artifact (default: a temp dir, removed "
        "afterwards)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small config, fewer loads, no build-speedup bar — the CI "
        "equivalence + zero-error serve check",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_artifact.json",
    )
    args = parser.parse_args()

    scale = "small" if args.smoke else args.scale
    config = (
        ESharpConfig.small(seed=args.seed)
        if scale == "small"
        else ESharpConfig.standard(seed=args.seed)
    )
    scratch = None
    artifact_dir = args.artifact_dir
    if artifact_dir is None:
        scratch = tempfile.mkdtemp(prefix="repro-artifact-")
        artifact_dir = pathlib.Path(scratch) / "art"
    try:
        payload = run_artifact_bench(
            config,
            artifact_dir,
            load_repeats=3 if args.smoke else args.load_repeats,
            serve_requests=40 if args.smoke else SERVE_REQUESTS,
        )
        if not args.smoke and scale == "standard":
            if payload["warm_start_speedup"] < MIN_SPEEDUP:
                raise AssertionError(
                    f"warm start must be >= {MIN_SPEEDUP}x faster than a "
                    f"from-scratch build, got "
                    f"{payload['warm_start_speedup']}x"
                )
        write_payload(payload, args.output)
        print(render(payload))
        print(f"[json written to {args.output}]")
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
