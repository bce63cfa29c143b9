"""Command-line interface.

::

    python -m repro build      [--scale small|standard] [--seed N]
                               [--out DIR] [--save-domains PATH] [--json PATH]
    python -m repro query Q    [--scale ...] [--seed N] [--from-artifact DIR]
                               [--baseline] [--min-zscore X] [--json PATH]
    python -m repro serve      [--queries N] [--concurrency K] [--scale ...]
                               [--from-artifact DIR | --tenant NAME=DIR ...]
                               [--json PATH]
    python -m repro fleet      [--from-artifact DIR | --tenant NAME=DIR ...]
                               [--replicas N] [--process] [--json PATH]
    python -m repro tenants    [--tenant NAME=DIR ... | --root DIR]
                               [--json PATH]
    python -m repro experiment {fig5,fig6,fig7,table8,fig8,fig9,table9} [--scale ...]
    python -m repro sql "SELECT ..." --table name=path.tsv [--table ...]
    python -m repro analyze    [PATHS ...] [--json PATH] [--baseline PATH]
                               [--write-baseline]

The build/serve split of the paper's two-tier architecture:

* ``build --out DIR`` runs the offline pipeline and persists **every
  stage** as a versioned, checksummed artifact (manifest + stage files;
  see :mod:`repro.artifact`).  A re-run with the same config resumes
  from the last completed stage instead of recomputing the world.
* ``query``/``serve --from-artifact DIR`` **warm-start** from that
  directory in milliseconds-to-seconds instead of rebuilding from
  scratch; answers are byte-identical to an in-process build, and the
  serving snapshot version is stamped from the manifest so result-cache
  keys agree across replicas loading the same artifact.
* Without ``--from-artifact``, ``query``/``serve`` still construct the
  full system from scratch; ``--save-domains`` keeps writing the legacy
  domain-collection TSV (which :meth:`DomainStore.load` validates and
  canonicalises on the way back in).

``--json PATH`` on ``build``/``query``/``serve`` additionally writes a
machine-readable report, so scripts parse stable JSON instead of the
human renderings.  ``experiment`` runs one §6 driver and prints the
rendered artifact; ``sql`` executes ad-hoc statements on TSV tables
with the bundled engine.

``analyze`` runs the project invariant linter (:mod:`repro.analysis`)
over the package (or explicit PATHS) against the checked-in
``analysis-baseline.json``: exit 0 when clean, 1 on any unbaselined
finding, 2 on usage errors.  ``--write-baseline`` regenerates the
baseline accepting all current findings (justifications preserved).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.config import ESharpConfig
from repro.core.esharp import ESharp
from repro.utils.timing import format_bytes


def _config(scale: str, seed: int) -> ESharpConfig:
    if scale == "small":
        return ESharpConfig.small(seed=seed)
    if scale == "standard":
        return ESharpConfig.standard(seed=seed)
    raise ValueError(f"unknown scale {scale!r}")


def _build_system(args: argparse.Namespace) -> ESharp:
    if getattr(args, "from_artifact", None):
        print(f"warm-starting from artifact {args.from_artifact}...",
              file=sys.stderr)
        return ESharp.from_artifact(args.from_artifact)
    print(f"building e# ({args.scale}, seed={args.seed})...", file=sys.stderr)
    return ESharp(_config(args.scale, args.seed)).build()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"json report written to {path}")


def _source_of(args: argparse.Namespace) -> dict:
    if getattr(args, "from_artifact", None):
        return {"artifact": args.from_artifact}
    return {"scale": args.scale, "seed": args.seed}


def cmd_build(args: argparse.Namespace) -> int:
    print(f"building e# ({args.scale}, seed={args.seed})...", file=sys.stderr)
    system = ESharp(_config(args.scale, args.seed)).build(
        artifact_dir=args.out
    )
    offline = system.offline
    print(f"world:    {len(offline.world.topics)} topics, "
          f"{len(offline.world.vocabulary())} keywords")
    print(f"log:      {offline.store.impressions:,} impressions "
          f"({format_bytes(offline.store.raw_bytes)})")
    print(f"graph:    {offline.multigraph.vertex_count:,} vertices, "
          f"{offline.multigraph.distinct_edge_count:,} edges")
    print(f"domains:  {offline.domain_store.domain_count} communities "
          f"({format_bytes(offline.domain_store.storage_bytes())})")
    print(f"corpus:   {system.platform.tweet_count:,} tweets, "
          f"{system.platform.user_count:,} users")
    for report in offline.clock.reports:
        name, workers, runtime, read, write = report.as_row()
        print(f"stage:    {name:<11} workers={workers:<3} time={runtime:<9} "
              f"read={read:<8} write={write}")
    if args.out:
        print(f"artifact written to {args.out} "
              f"(snapshot version {system.snapshots.version})")
    if args.save_domains:
        written = offline.domain_store.save(args.save_domains)
        print(f"domains written to {args.save_domains} "
              f"({format_bytes(written)})")
    if args.json:
        _write_json(args.json, {
            "command": "build",
            "scale": args.scale,
            "seed": args.seed,
            "snapshot_version": system.snapshots.version,
            "artifact": args.out,
            "world": {
                "topics": len(offline.world.topics),
                "keywords": len(offline.world.vocabulary()),
            },
            "log": {
                "impressions": offline.store.impressions,
                "raw_bytes": offline.store.raw_bytes,
            },
            "graph": {
                "vertices": offline.multigraph.vertex_count,
                "distinct_edges": offline.multigraph.distinct_edge_count,
                "total_edges": offline.multigraph.total_edges,
            },
            "domains": {
                "count": offline.domain_store.domain_count,
                "keywords": offline.domain_store.keyword_count,
                "bytes": offline.domain_store.storage_bytes(),
            },
            "corpus": {
                "tweets": system.platform.tweet_count,
                "users": system.platform.user_count,
            },
            "stages": [
                {
                    "name": report.name,
                    "workers": report.workers,
                    "seconds": report.seconds,
                    "bytes_read": report.bytes_read,
                    "bytes_written": report.bytes_written,
                }
                for report in offline.clock.reports
            ],
        })
    return 0


def _expert_payload(expert) -> dict:
    return {
        "user_id": expert.user_id,
        "screen_name": expert.screen_name,
        "description": expert.description,
        "verified": expert.verified,
        "followers": expert.followers,
        "score": expert.score,
    }


def cmd_query(args: argparse.Namespace) -> int:
    system = _build_system(args)
    query = " ".join(args.query)
    terms = system.expansion_terms(query)
    print(f"query: {query!r}")
    print(f"expansion ({len(terms)} terms): "
          + ", ".join(terms[:10])
          + (" ..." if len(terms) > 10 else ""))
    if args.baseline:
        experts = system.find_experts_baseline(query, args.min_zscore)
        print(f"\nbaseline — {len(experts)} experts:")
    else:
        experts = system.find_experts(query, args.min_zscore)
        print(f"\ne# — {len(experts)} experts:")
    for expert in experts:
        print(f"  {expert}")
    if not experts:
        print("  (none above the threshold)")
    if args.json:
        _write_json(args.json, {
            "command": "query",
            "query": query,
            "mode": "baseline" if args.baseline else "esharp",
            "min_zscore": args.min_zscore,
            "snapshot_version": system.snapshots.version,
            "source": _source_of(args),
            "terms": terms,
            "experts": [_expert_payload(expert) for expert in experts],
        })
    return 0


def run_serve_command(system, args: argparse.Namespace) -> int:
    """Drive the serving engine for an already-built system.

    Split from :func:`cmd_serve` so tests can reuse a session-scoped
    system instead of paying a fresh build.
    """
    import json

    from repro.serving.loadgen import run_serve
    from repro.serving.service import ServiceConfig

    outcome = run_serve(
        system,
        requests=args.queries,
        concurrency=args.concurrency,
        max_unique=args.unique,
        zipf_exponent=args.zipf_exponent,
        seed=args.seed,
        min_zscore=args.min_zscore,
        service_config=ServiceConfig(detection_workers=args.workers),
        baseline=not args.no_baseline,
    )
    print(outcome.render())
    if args.json:
        payload = outcome.to_dict()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json report written to {args.json}")
    clean = outcome.report.errors == 0 and (
        outcome.baseline is None or outcome.baseline.errors == 0
    )
    return 0 if clean else 1


def _replay_tenants(make_client, specs, args):
    """One workload replay per tenant, all tenants in parallel.

    ``make_client(tenant)`` returns a ``.query(query, min_zscore)``
    target (a :class:`~repro.serving.tenancy.TenantClient`, or a router
    adapter).  The request and thread budgets are split evenly across
    tenants so total offered load matches the single-tenant flags.
    Returns ``(reports, failures)`` keyed by tenant.
    """
    import threading

    from repro.artifact import load_artifact_stages
    from repro.serving.loadgen import (
        LoadGenerator,
        WorkloadConfig,
        build_workload_from,
    )

    count = len(specs)
    requests = max(1, args.queries // count)
    concurrency = max(1, args.concurrency // count)
    reports: dict = {}
    failures: dict = {}
    lock = threading.Lock()

    def replay(tenant: str, artifact_dir) -> None:
        try:
            partial = load_artifact_stages(
                artifact_dir, ("store", "domain_store")
            )
            workload = build_workload_from(
                partial.values["store"],
                partial.values["domain_store"],
                WorkloadConfig(
                    requests=requests,
                    max_unique=args.unique,
                    zipf_exponent=args.zipf_exponent,
                    seed=args.seed,
                ),
            )
            report = LoadGenerator(
                make_client(tenant),
                workload,
                concurrency=concurrency,
                min_zscore=args.min_zscore,
            ).run()
        except Exception as exc:  # noqa: BLE001 - reported per tenant
            with lock:
                failures[tenant] = f"{type(exc).__name__}: {exc}"
            return
        with lock:
            reports[tenant] = report

    threads = [
        threading.Thread(
            target=replay,
            args=(tenant, artifact_dir),
            name=f"tenant-replay-{tenant}",
        )
        for tenant, artifact_dir in sorted(specs.items())
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return reports, failures


def run_serve_tenants(args: argparse.Namespace) -> int:
    """Replay per-tenant workloads through one shared multi-tenant service."""
    from repro.artifact import parse_tenant_specs
    from repro.serving.service import ServiceConfig
    from repro.serving.tenancy import (
        MultiTenantService,
        TenantClient,
        TenantSpec,
    )

    specs = parse_tenant_specs(args.tenant)
    print(
        f"serving {len(specs)} tenants from one process: "
        f"{', '.join(sorted(specs))}...",
        file=sys.stderr,
    )
    service = MultiTenantService(
        tuple(
            TenantSpec(name, specs[name]) for name in sorted(specs)
        ),
        ServiceConfig(detection_workers=args.workers),
    )
    try:
        reports, failures = _replay_tenants(
            lambda tenant: TenantClient(service, tenant), specs, args
        )
        health = service.health()
        by_tenant = {entry.tenant: entry for entry in health.tenants}
        for tenant in sorted(specs):
            if tenant in failures:
                print(f"tenant {tenant}: FAILED — {failures[tenant]}")
                continue
            print(reports[tenant].render(f"tenant {tenant} replay"))
            entry = by_tenant.get(tenant)
            if entry is not None:
                print(
                    f"  tenant:        snapshot v{entry.snapshot_version}, "
                    f"hit ratio {entry.cache_hit_ratio:.1%}"
                )
        if args.json:
            _write_json(args.json, {
                "command": "serve",
                "tenants": {
                    tenant: {
                        "artifact": str(specs[tenant]),
                        "report": reports[tenant].to_dict()
                        if tenant in reports else None,
                        "error": failures.get(tenant),
                        "snapshot_version": (
                            by_tenant[tenant].snapshot_version
                            if tenant in by_tenant else None
                        ),
                        "cache_hit_ratio": (
                            by_tenant[tenant].cache_hit_ratio
                            if tenant in by_tenant else None
                        ),
                    }
                    for tenant in sorted(specs)
                },
                "service": {
                    "requests": health.requests,
                    "in_flight": health.in_flight,
                    "waiting": health.waiting,
                },
            })
        clean = not failures and all(
            report.errors == 0 for report in reports.values()
        )
        return 0 if clean else 1
    finally:
        service.close()


def cmd_serve(args: argparse.Namespace) -> int:
    # validate before paying for a build
    for name in ("queries", "concurrency", "unique", "workers"):
        value = getattr(args, name)
        if value < 1:
            print(f"--{name} must be >= 1, got {value}", file=sys.stderr)
            return 2
    if args.zipf_exponent < 0:
        print(f"--zipf-exponent must be non-negative, got "
              f"{args.zipf_exponent}", file=sys.stderr)
        return 2
    if getattr(args, "tenant", None):
        if args.from_artifact:
            print("--tenant and --from-artifact are mutually exclusive; "
                  "name every corpus with --tenant NAME=DIR",
                  file=sys.stderr)
            return 2
        return run_serve_tenants(args)
    system = _build_system(args)
    return run_serve_command(system, args)


def run_fleet_command(args: argparse.Namespace, replicas=None) -> int:
    """Drive a replica fleet over a tenant map (split out for tests).

    ``--tenant NAME=DIR`` flags name the corpora every replica serves;
    ``--from-artifact DIR`` is the one-entry map ``{default: DIR}``.
    ``replicas`` lets tests inject prebuilt replica handles; the CLI
    path warm-starts ``--replicas`` workers — threads in this process by
    default, ``fleet-worker`` subprocesses with ``--process``.
    """
    import functools
    import os
    import types

    from repro.artifact import parse_tenant_specs
    from repro.chaos import FaultPlan, inject
    from repro.fleet import (
        FleetConfig,
        FleetRouter,
        InProcessReplica,
        ReplicaSupervisor,
        SubprocessReplica,
    )
    from repro.serving.service import DEFAULT_TENANT, ServiceConfig
    from repro.serving.tenancy import TenantSpec

    tenant_flags = getattr(args, "tenant", None)
    specs = (
        {name: str(path) for name, path in
         parse_tenant_specs(tenant_flags).items()}
        if tenant_flags
        else {DEFAULT_TENANT: args.from_artifact}
    )
    serving = (
        f"{len(specs)} tenants" if tenant_flags else args.from_artifact
    )

    chaos_plan_path = getattr(args, "chaos_plan", None)
    extra_env = None
    if chaos_plan_path:
        with open(chaos_plan_path, "r", encoding="utf-8") as handle:
            plan_text = handle.read()
        inject.install(FaultPlan.from_json(plan_text))
        # subprocess workers pick the plan up via the environment
        os.environ[inject.ENV_PLAN] = plan_text
        extra_env = {inject.ENV_PLAN: plan_text}

    def _make_replica(name: str):
        if args.process:
            return SubprocessReplica(
                name,
                tenants=specs,
                detection_workers=args.workers,
                extra_env=extra_env,
            )
        return InProcessReplica(
            name,
            tenant_specs=tuple(
                TenantSpec(tenant, specs[tenant]) for tenant in sorted(specs)
            ),
            service_config=ServiceConfig(detection_workers=args.workers),
        )

    injected = replicas is not None
    if replicas is None:
        replicas = []
        for index in range(args.replicas):
            name = f"replica-{index}"
            print(f"starting {name} ({'process' if args.process else 'thread'})"
                  f" serving {serving}...", file=sys.stderr)
            replicas.append(_make_replica(name))
    config = FleetConfig(
        deadline_seconds=getattr(args, "deadline", None),
        allow_degraded=getattr(args, "allow_degraded", False),
    )
    router = FleetRouter.from_tenant_artifacts(
        specs, replicas, sharding=args.sharding, config=config
    )
    supervisor = None
    if getattr(args, "supervise", False) and not injected:
        # each factory restarts a replica serving every tenant again
        factories = {
            replica.name: (lambda name=replica.name: _make_replica(name))
            for replica in replicas
        }
        supervisor = ReplicaSupervisor(router, factories)
        supervisor.start()
    try:
        reports, failures = _replay_tenants(
            lambda tenant: types.SimpleNamespace(
                query=functools.partial(router.query, tenant=tenant)
            ),
            specs,
            args,
        )
        stats = router.stats()
        title = (f"fleet replay — {stats.replicas} replicas, "
                 f"{stats.policy} sharding")
        for tenant in sorted(specs):
            if tenant in failures:
                print(f"tenant {tenant}: FAILED — {failures[tenant]}")
            elif tenant_flags:
                print(reports[tenant].render(f"tenant {tenant} {title}"))
            else:
                print(reports[tenant].render(title))
        print(f"  routing:       {stats.single_shard} single-shard, "
              f"{stats.scattered} scattered ({stats.scatter_legs} legs)")
        print(f"  hedging:       {stats.hedges_fired} fired, "
              f"{stats.hedge_wins} won, {stats.failovers} failovers")
        print(f"  resilience:    {stats.degraded_answers} degraded, "
              f"{stats.deadline_exceeded} deadline-exceeded, "
              f"{stats.breaker_rejections} breaker-rejected")
        if supervisor is not None:
            sup = supervisor.stats()
            print(f"  supervisor:    {sup.restarts} restarts "
                  f"({sup.failed_restarts} failed, {sup.gave_up} gave up)")
        versions = {
            name: {
                entry.tenant: entry.snapshot_version
                for entry in health.tenants
            }
            for name, health in stats.replica_health
        }
        print(f"  replicas:      per-tenant versions {versions}")
        if args.json:
            by_tenant = {
                tenant: {
                    "artifact": specs[tenant],
                    "report": reports[tenant].to_dict()
                    if tenant in reports else None,
                    "error": failures.get(tenant),
                }
                for tenant in sorted(specs)
            }
            payload = {
                "command": "fleet",
                "transport": "process" if args.process else "thread",
                "fleet": stats.to_dict(),
            }
            if tenant_flags:
                payload["tenants"] = by_tenant
            else:
                # one artifact: its entry is the payload's top level
                payload.update(by_tenant[DEFAULT_TENANT])
            if supervisor is not None:
                payload["supervisor"] = supervisor.stats().to_dict()
            if chaos_plan_path:
                payload["chaos_plan"] = chaos_plan_path
            _write_json(args.json, payload)
        clean = not failures and all(
            report.errors == 0 for report in reports.values()
        )
        return 0 if clean else 1
    finally:
        if supervisor is not None:
            supervisor.close()
        if not injected:
            router.close()
        if chaos_plan_path:
            inject.uninstall()
            os.environ.pop(inject.ENV_PLAN, None)


def cmd_fleet(args: argparse.Namespace) -> int:
    for name in ("replicas", "queries", "concurrency", "unique", "workers"):
        value = getattr(args, name)
        if value < 1:
            print(f"--{name} must be >= 1, got {value}", file=sys.stderr)
            return 2
    if getattr(args, "tenant", None) and args.from_artifact:
        print("--tenant and --from-artifact are mutually exclusive; "
              "name every corpus with --tenant NAME=DIR",
              file=sys.stderr)
        return 2
    if not getattr(args, "tenant", None) and not args.from_artifact:
        print("fleet needs --from-artifact DIR (or --tenant NAME=DIR "
              "flags)", file=sys.stderr)
        return 2
    return run_fleet_command(args)


def cmd_fleet_worker(args: argparse.Namespace) -> int:
    from repro.fleet.worker import serve_worker

    tenants = None
    if getattr(args, "tenant", None):
        from repro.artifact import parse_tenant_specs

        if args.from_artifact:
            print("--tenant and --from-artifact are mutually exclusive",
                  file=sys.stderr)
            return 2
        tenants = {
            name: str(path)
            for name, path in parse_tenant_specs(args.tenant).items()
        }
    elif not args.from_artifact:
        print("fleet-worker needs --from-artifact DIR or --tenant "
              "NAME=DIR flags", file=sys.stderr)
        return 2
    return serve_worker(
        args.from_artifact,
        tenants=tenants,
        detection_workers=args.detection_workers,
        cache_capacity=args.cache_capacity,
        score_cache_capacity=args.score_cache_capacity,
        name=getattr(args, "name", "worker"),
    )


def cmd_tenants(args: argparse.Namespace) -> int:
    """Introspect tenant artifact layouts without loading any corpus."""
    from repro.artifact import (
        discover_tenants,
        parse_tenant_specs,
        read_manifest,
    )

    if args.tenant and args.root:
        print("--tenant and --root are mutually exclusive", file=sys.stderr)
        return 2
    if args.tenant:
        specs = parse_tenant_specs(args.tenant)
    elif args.root:
        specs = discover_tenants(args.root)
    else:
        print("tenants needs --tenant NAME=DIR flags or --root DIR",
              file=sys.stderr)
        return 2
    rows = []
    for name in sorted(specs):
        manifest = read_manifest(specs[name])
        rows.append({
            "tenant": name,
            "artifact": str(specs[name]),
            "snapshot_version": manifest.snapshot_version,
            "seed": manifest.seed,
            "complete": manifest.complete,
            "stages": sorted(manifest.stages),
            "config_fingerprint": manifest.config_fingerprint,
        })
    print(f"{len(rows)} tenants:")
    for row in rows:
        print(f"  {row['tenant']:<16} v{row['snapshot_version']} "
              f"seed={row['seed']} "
              f"{'complete' if row['complete'] else 'INCOMPLETE'} "
              f"({len(row['stages'])} stages) {row['artifact']}")
    if args.json:
        _write_json(args.json, {"command": "tenants", "tenants": rows})
    return 0


def _main_with_artifact_errors(handler, args: argparse.Namespace) -> int:
    """Run a handler, rendering artifact failures as clean CLI errors."""
    from repro.artifact import ArtifactError

    try:
        return handler(args)
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 2


_EXPERIMENTS = ("fig5", "fig6", "fig7", "table8", "fig8", "fig9", "table9")


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval import experiments as drivers
    from repro.eval.reporting import render_histogram, render_series, render_table

    ctx = drivers.ExperimentContext.build(_config(args.scale, args.seed))
    name = args.name
    if name == "fig5":
        result = drivers.run_fig5(ctx)
        print(render_series(
            "iteration",
            {"communities": [float(c) for c in result.community_counts]},
            result.iterations,
            title="Figure 5 — convergence",
            precision=0,
        ))
    elif name == "fig6":
        result = drivers.run_fig6(ctx)
        print(render_histogram(
            [b.label for b in result.buckets],
            [b.count for b in result.buckets],
            title="Figure 6 — community sizes",
        ))
    elif name == "fig7":
        result = drivers.run_fig7(ctx)
        print(f"Figure 7 — around {result.seed_term!r}")
        print("community: " + ", ".join(result.community))
        for neighbour in result.neighbours:
            print(f"  [links={neighbour.link_weight}] "
                  + ", ".join(neighbour.members[:6]))
    elif name == "table8":
        rows = drivers.run_table8(ctx)
        print(render_table(
            ["Data set", "Baseline", "e#", "Improvement"],
            [(r.dataset, f"{r.baseline:.2f}", f"{r.esharp:.2f}",
              f"{r.improvement * 100:.1f}%") for r in rows],
            title="Table 8 — coverage",
        ))
    elif name == "fig8":
        for result in drivers.run_fig8(ctx):
            print(render_series(
                "n",
                {"baseline %": result.baseline_pct, "e# %": result.esharp_pct},
                result.n_values,
                title=f"Figure 8 — {result.dataset}",
                precision=1,
            ))
            print()
    elif name == "fig9":
        result = drivers.run_fig9(ctx)
        print(render_series(
            "min z-score",
            {"baseline": result.baseline_avg, "e#": result.esharp_avg},
            result.thresholds,
            title="Figure 9 — threshold sweep (top 250)",
        ))
    elif name == "table9":
        result = drivers.run_table9(ctx)
        print(render_table(
            ["Step", "Workers", "Runtime", "Read", "Write"],
            result.rows,
            title="Table 9 — resources",
        ))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown experiment {name!r}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.baseline import Baseline, write_baseline
    from repro.analysis.engine import (
        analyze_paths,
        default_baseline_path,
        write_json_report,
    )
    from repro.analysis.errors import AnalysisError

    baseline_path = args.baseline or default_baseline_path()
    try:
        baseline = Baseline.load(baseline_path)
        report = analyze_paths(
            paths=args.paths or None, baseline=baseline, root=args.root
        )
    except AnalysisError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(
            baseline_path,
            report.findings + report.baselined,
            existing=baseline,
        )
        print(f"baseline written to {baseline_path} ({count} entries)")
        return 0

    if args.json:
        write_json_report(report, args.json)
        print(f"json report written to {args.json}", file=sys.stderr)
    print(report.render_text())
    stale = baseline.unused(report.findings + report.baselined)
    if stale and not args.paths:
        for entry in stale:
            print(f"note: baseline entry {entry.fingerprint} "
                  f"({entry.rule} {entry.path}) no longer matches — "
                  f"remove it", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_sql(args: argparse.Namespace) -> int:
    from repro.relational.io import load_table
    from repro.relational.sql import SqlSession

    session = SqlSession()
    for binding in args.table:
        name, _, path = binding.partition("=")
        if not name or not path:
            print(f"--table expects name=path, got {binding!r}",
                  file=sys.stderr)
            return 2
        session.register(name, load_table(path))
    result = session.run(args.statement)
    print(result.pretty(limit=args.limit))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="e# (EDBT 2016) reproduction — build, query, reproduce",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", choices=("small", "standard"),
                       default="small")
        p.add_argument("--seed", type=int, default=2016)

    p_build = sub.add_parser("build", help="run the full pipeline, print stats")
    add_scale(p_build)
    p_build.add_argument("--out", metavar="DIR",
                         help="persist every stage as a versioned artifact "
                              "(re-running resumes from the last completed "
                              "stage)")
    p_build.add_argument("--save-domains", metavar="PATH",
                         help="write the domain collection as TSV")
    p_build.add_argument("--json", metavar="PATH",
                         help="also write the build report as JSON")
    p_build.set_defaults(handler=cmd_build)

    p_query = sub.add_parser("query", help="find experts for a query")
    add_scale(p_query)
    p_query.add_argument("query", nargs="+", help="the query keywords")
    p_query.add_argument("--from-artifact", metavar="DIR",
                         help="warm-start from a build --out artifact "
                              "instead of rebuilding (ignores --scale/--seed)")
    p_query.add_argument("--baseline", action="store_true",
                         help="run Pal & Counts without expansion")
    p_query.add_argument("--min-zscore", type=float, default=None)
    p_query.add_argument("--json", metavar="PATH",
                         help="also write the answer as JSON")
    p_query.set_defaults(handler=cmd_query)

    p_serve = sub.add_parser(
        "serve", help="replay a query workload through the serving engine"
    )
    add_scale(p_serve)
    p_serve.add_argument("--from-artifact", metavar="DIR",
                         help="warm-start from a build --out artifact "
                              "instead of rebuilding (ignores --scale/--seed)")
    p_serve.add_argument("--tenant", action="append", default=[],
                         metavar="NAME=DIR",
                         help="serve this tenant's artifact (repeatable); "
                              "all tenants share one process, cache, and "
                              "admission envelope")
    p_serve.add_argument("--queries", type=int, default=200,
                         help="requests to replay (default 200)")
    p_serve.add_argument("--concurrency", type=int, default=8,
                         help="client threads (default 8)")
    p_serve.add_argument("--unique", type=int, default=64,
                         help="distinct queries in the workload head")
    p_serve.add_argument("--zipf-exponent", type=float, default=1.1,
                         help="workload skew (>1 = heavier head)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="detection worker threads")
    p_serve.add_argument("--min-zscore", type=float, default=None)
    p_serve.add_argument("--no-baseline", action="store_true",
                         help="skip the serial uncached comparison pass")
    p_serve.add_argument("--json", metavar="PATH",
                         help="also write the report as JSON")
    p_serve.set_defaults(handler=cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="serve a workload through a shard-aware multi-replica fleet",
    )
    p_fleet.add_argument("--from-artifact", metavar="DIR",
                         help="artifact every replica warm-starts from "
                              "(build --out)")
    p_fleet.add_argument("--tenant", action="append", default=[],
                         metavar="NAME=DIR",
                         help="serve this tenant's artifact on every "
                              "replica (repeatable; replaces "
                              "--from-artifact)")
    p_fleet.add_argument("--replicas", type=int, default=2,
                         help="replica count == shard count (default 2)")
    p_fleet.add_argument("--process", action="store_true",
                         help="run replicas as fleet-worker subprocesses "
                              "instead of in-process threads")
    p_fleet.add_argument("--sharding", choices=("domain", "hash"),
                         default="domain",
                         help="domain: whole domains stay on one shard; "
                              "hash: terms spread over a consistent ring")
    p_fleet.add_argument("--queries", type=int, default=200,
                         help="requests to replay (default 200)")
    p_fleet.add_argument("--concurrency", type=int, default=8,
                         help="client threads (default 8)")
    p_fleet.add_argument("--unique", type=int, default=64,
                         help="distinct queries in the workload head")
    p_fleet.add_argument("--zipf-exponent", type=float, default=1.1,
                         help="workload skew (>1 = heavier head)")
    p_fleet.add_argument("--seed", type=int, default=2016,
                         help="workload sampling seed")
    p_fleet.add_argument("--workers", type=int, default=2,
                         help="detection worker threads per replica")
    p_fleet.add_argument("--min-zscore", type=float, default=None)
    p_fleet.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="end-to-end deadline budget per query")
    p_fleet.add_argument("--allow-degraded", action="store_true",
                         help="serve coverage<1.0 partials when a shard "
                              "is down instead of failing the query")
    p_fleet.add_argument("--supervise", action="store_true",
                         help="run a ReplicaSupervisor that restarts dead "
                              "replicas warm from the artifact")
    p_fleet.add_argument("--chaos-plan", metavar="PATH", default=None,
                         help="JSON FaultPlan injected into the router and "
                              "every worker (REPRO_CHAOS_PLAN)")
    p_fleet.add_argument("--json", metavar="PATH",
                         help="also write the report as JSON")
    p_fleet.set_defaults(handler=cmd_fleet)

    p_worker = sub.add_parser(
        "fleet-worker",
        help="(internal) one fleet replica speaking JSON-lines on stdio",
    )
    p_worker.add_argument("--from-artifact", metavar="DIR")
    p_worker.add_argument("--tenant", action="append", default=[],
                          metavar="NAME=DIR",
                          help="serve this tenant's artifact (repeatable; "
                               "replaces --from-artifact)")
    p_worker.add_argument("--detection-workers", type=int, default=2)
    p_worker.add_argument("--cache-capacity", type=int, default=None,
                          help="override the replica's result-cache size")
    p_worker.add_argument("--score-cache-capacity", type=int, default=None,
                          help="override the detector's per-term memo size")
    p_worker.add_argument("--name", default="worker",
                          help="replica name (diagnostics + chaos matching)")
    p_worker.set_defaults(handler=cmd_fleet_worker)

    p_tenants = sub.add_parser(
        "tenants",
        help="inspect tenant artifact layouts (manifest-only, no load)",
    )
    p_tenants.add_argument("--tenant", action="append", default=[],
                           metavar="NAME=DIR",
                           help="name a tenant artifact explicitly "
                                "(repeatable)")
    p_tenants.add_argument("--root", metavar="DIR", default=None,
                           help="discover tenants: every subdirectory "
                                "holding a manifest.json")
    p_tenants.add_argument("--json", metavar="PATH",
                           help="also write the listing as JSON")
    p_tenants.set_defaults(handler=cmd_tenants)

    p_exp = sub.add_parser("experiment", help="run one §6 driver")
    add_scale(p_exp)
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    p_exp.set_defaults(handler=cmd_experiment)

    p_analyze = sub.add_parser(
        "analyze",
        help="run the project invariant linter against the baseline",
    )
    p_analyze.add_argument("paths", nargs="*", metavar="PATH",
                           help="files/directories to analyze "
                                "(default: the whole repro package)")
    p_analyze.add_argument("--baseline", metavar="PATH",
                           help="baseline file (default: "
                                "analysis-baseline.json at the repo root)")
    p_analyze.add_argument("--root", metavar="DIR",
                           help="directory findings/fingerprints are "
                                "relative to (default: the repro package "
                                "directory)")
    p_analyze.add_argument("--json", metavar="PATH",
                           help="also write the findings report as JSON")
    p_analyze.add_argument("--write-baseline", action="store_true",
                           help="accept all current findings into the "
                                "baseline (existing justifications kept)")
    p_analyze.set_defaults(handler=cmd_analyze)

    p_sql = sub.add_parser("sql", help="run SQL over TSV tables")
    p_sql.add_argument("statement", help="the SQL text")
    p_sql.add_argument("--table", action="append", default=[],
                       metavar="NAME=PATH", help="bind a TSV file")
    p_sql.add_argument("--limit", type=int, default=40)
    p_sql.set_defaults(handler=cmd_sql)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _main_with_artifact_errors(args.handler, args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
