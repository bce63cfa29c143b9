"""e2e benchmark runner — see README.md in this directory.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics declared in ``BENCHMARK.json`` (``--trace 0``) or the per-layer
metrics (``--trace 1``).  Without ``--workload`` it runs every workload
(each in a fresh process); ``--repeat N`` does that N times and prints
the spread of every metric against its bound; ``--smoke`` is a
seconds-long pass at the small scale for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from harness import HERE, ROOT, SRC

MANIFEST = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"

#: a mixed workload's hit ratio must stay clear of these bands, or p50 /
#: p95 would sit on the hit/miss cliff and flap between two populations
HIT_RATIO_CLIFFS = ((0.40, 0.60), (0.93, 0.97))
WARM_START_SAMPLES = 3


class BenchmarkInvalid(RuntimeError):
    """The run broke one of the benchmark's own validity rules."""


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text("utf-8"))


def units(manifest: dict, section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in manifest[section]}


# -- one workload, in this process ----------------------------------------------


def check_rounds(name: str, rounds, scale: str) -> None:
    ops = [result.ops for result in rounds]
    if any(entry != ops[0] for entry in ops):
        raise BenchmarkInvalid(f"{name}: op counts differ across rounds: {ops}")
    if scale != "standard":
        return  # smoke streams are too short to place a hit ratio
    ratio = sum(r.hits for r in rounds) / sum(r.queries for r in rounds)
    for low, high in HIT_RATIO_CLIFFS:
        if low <= ratio <= high:
            raise BenchmarkInvalid(
                f"{name}: hit ratio {ratio:.3f} sits on the hit/miss cliff "
                f"({low}-{high}); p50/p95 would flap"
            )


def measure_end_to_end(setup, name, seed, *, seconds, rounds, spawn_samples):
    """The untraced run: every end-to-end metric of one workload."""
    from harness import (
        process_peak_rss_mb,
        repeat,
        sample_warm_starts,
        summarise,
    )
    from workloads import WORKLOADS

    workload = WORKLOADS[name](setup, seed)
    results = []

    def one_round() -> None:
        result = workload.round()
        # verified and counted already: holding every answer of the run
        # would charge the benchmark's bookkeeping to peak_rss_mb
        result.answers = []
        results.append(result)

    started = time.perf_counter()
    try:
        workload.start()
        setup_s = setup.build_wall_s + time.perf_counter() - started
        warm_starts = sample_warm_starts(
            setup.artifact, setup.queries[0], spawn_samples
        )
        repeat(one_round, seconds=seconds, count=rounds, at_least=3)
        peak_rss_mb = process_peak_rss_mb() + sum(
            process_peak_rss_mb(pid) for pid in workload.worker_pids()
        )
    finally:
        workload.stop()
    check_rounds(name, results, setup.scale)
    metrics = summarise(results)
    metrics.update(
        setup_s=setup_s,
        warm_start_s=statistics.median(warm_starts),
        artifact_mb=setup.child["artifact_bytes"] / 1e6,
        peak_rss_mb=peak_rss_mb,
    )
    return results, metrics


def measure_layers(setup, name, seed, *, declared, seconds, pairs, out):
    """The traced run: every per-layer metric of one workload.

    Untraced and traced rounds alternate, so host drift lands on both
    sides of ``trace.overhead_share`` equally.
    """
    import probes
    from harness import calibration_ms, repeat, sample_warm_starts, summarise
    from spans import Tracer, fleet_spans, serving_spans
    from workloads import WORKLOADS

    tracer = Tracer()
    pools: list = []
    is_fleet = name == "fleet_scatter"
    spans_on = (
        (lambda: fleet_spans(tracer, pools))
        if is_fleet
        else (lambda: serving_spans(tracer))
    )
    workload = WORKLOADS[name](setup, seed)
    untraced, traced = [], []

    def one_pair() -> None:
        untraced.append(workload.round())
        gc.collect()
        with spans_on():
            traced.append(workload.round())

    try:
        workload.start()
        calibration_before = calibration_ms()
        repeat(one_pair, seconds=seconds, count=pairs, at_least=2)
        check_rounds(name, untraced + traced, setup.scale)
        # workload attribution: a layer that does no work here stays at 0
        metrics = {
            metric: 0.0
            for metric in declared
            if metric.startswith(probes.WORKLOAD_SCOPED)
        }
        metrics.update(probes.serving_metrics(workload, untraced))
        metrics.update(probes.incremental_metrics(untraced + traced))
        if is_fleet:
            spawn_s = statistics.median(
                sample_warm_starts(setup.artifact, setup.queries[0], 3)
            )
            metrics.update(
                probes.fleet_metrics(
                    workload, setup, untraced, tracer.spans, pools, spawn_s
                )
            )
    finally:
        workload.stop()
    metrics.update(
        probes.trace_metrics(
            tracer.spans, summarise(untraced), summarise(traced)
        )
    )
    metrics.update(probes.layer_probes(setup))
    calibration_after = calibration_ms()
    metrics.update(
        {
            "host.cpus": os.cpu_count() or 1,
            "host.calibration_ms": calibration_before,
            "host.drift_share": abs(calibration_after - calibration_before)
            / calibration_before,
        }
    )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"trace-{name}.json").write_text(
            json.dumps(tracer.to_json()), encoding="utf-8"
        )
    return untraced + traced, metrics


def as_result(rounds, metrics: dict, declared: dict[str, str], setup) -> dict:
    """The contract's result object; refuses undeclared or missing names."""
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise BenchmarkInvalid(
            f"metric names differ from BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )
    attempted = sum(sum(result.ops.values()) for result in rounds)
    failed = sum(result.failed for result in rounds)
    # the seed-scan oracle sample is checked once, at set-up
    attempted += setup.child["oracle_checked"]
    failed += setup.child["oracle_mismatches"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]}
            for name in declared
        },
    }


def report(name: str, result: dict, rounds) -> None:
    print(
        f"{name}: {len(rounds)} rounds, ops per round {rounds[0].ops}, "
        f"requests sent {result['attempted']}, "
        f"succeeded {result['attempted'] - result['failed']}, "
        f"failed {result['failed']}"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")


def run_one(args, manifest: dict) -> int:
    """Driver mode: one workload, one process, one result line."""
    from harness import Setup

    trace = bool(args.trace)
    declared = units(manifest, "per_layer" if trace else "end_to_end")
    setup = Setup.create("standard", args.seed, probe=trace)
    try:
        if trace:
            rounds, metrics = measure_layers(
                setup,
                args.workload,
                args.seed,
                declared=declared,
                seconds=args.seconds,
                pairs=None,
                out=args.out,
            )
        else:
            rounds, metrics = measure_end_to_end(
                setup,
                args.workload,
                args.seed,
                seconds=args.seconds,
                rounds=None,
                spawn_samples=WARM_START_SAMPLES,
            )
        result = as_result(rounds, metrics, declared, setup)
    finally:
        setup.cleanup()
    report(args.workload, result, rounds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_smoke(args, manifest: dict) -> int:
    """Small scale, one shared build, two rounds, both modes, every
    workload — exercises every code path in seconds; not a measurement."""
    from harness import Setup

    names = [entry["name"] for entry in manifest["workloads"]]
    setup = Setup.create("small", args.seed, probe=True)
    results: dict[str, dict] = {}
    try:
        for name in names:
            rounds, metrics = measure_end_to_end(
                setup, name, args.seed, seconds=None, rounds=2, spawn_samples=1
            )
            untraced = as_result(
                rounds, metrics, units(manifest, "end_to_end"), setup
            )
            untraced["ops_per_round"] = [result.ops for result in rounds]
            report(name, untraced, rounds)
            per_layer = units(manifest, "per_layer")
            rounds, metrics = measure_layers(
                setup,
                name,
                args.seed,
                declared=per_layer,
                seconds=None,
                pairs=1,
                out=args.out,
            )
            traced = as_result(rounds, metrics, per_layer, setup)
            results[name] = {"end_to_end": untraced, "per_layer": traced}
    finally:
        setup.cleanup()
    print(json.dumps({"smoke": True, "scale": "small", "results": results}))
    failed = sum(
        mode["failed"] for each in results.values() for mode in each.values()
    )
    return 0 if failed == 0 else 1


# -- many runs, each in a fresh process ---------------------------------------------


def run_child(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchmarkInvalid(
            f"{workload} (seed {seed}) exited {done.returncode} with no result"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """``(range, interquartile range)`` of a metric, as shares of its median."""
    centre = statistics.median(values)
    if not centre:
        return 0.0, 0.0
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / centre
    return (max(values) - min(values)) / centre, iqr


def host_stamp(calibration: float, seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "git_rev": revision,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "host.cpus": os.cpu_count(),
        "host.calibration_ms": calibration,
        "scale": "standard",
        "seed": seed,
    }


def run_repeat(args, manifest: dict) -> int:
    """N passes over the workloads; spread of every metric vs its bound."""
    from harness import calibration_ms

    names = (
        [args.workload]
        if args.workload
        else [entry["name"] for entry in manifest["workloads"]]
    )
    bounds = {e["name"]: e["bound"] for e in manifest["end_to_end"]}
    calibration_before = calibration_ms()
    samples: dict[str, dict[str, list[float]]] = {
        name: {metric: [] for metric in bounds} for name in names
    }
    failed = 0
    for index in range(args.repeat):
        for name in names:
            result = run_child(name, args.seed + index, args.seconds)
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                samples[name][metric].append(entry["value"])
            values = " ".join(
                f"{metric}={entry['value']:.5g}"
                for metric, entry in result["metrics"].items()
            )
            print(
                f"pass {index + 1}/{args.repeat} {name}: "
                f"attempted {result['attempted']}, failed {result['failed']}, "
                f"{values}",
                flush=True,
            )
    drift = abs(calibration_ms() - calibration_before) / calibration_before

    print(
        f"\n{'workload':<14} {'metric':<18} {'min':>11} {'median':>11} "
        f"{'max':>11} {'range/med':>9} {'iqr/med':>8} {'bound':>6}"
    )
    outside = []
    summary: dict[str, dict] = {}
    for name in names:
        summary[name] = {}
        for metric, values in samples[name].items():
            value_range, iqr = spread(values)
            centre = statistics.median(values)
            verdict = ""
            if iqr > bounds[metric]:
                verdict = "  OUTSIDE BOUND"
                outside.append((name, metric))
            print(
                f"{name:<14} {metric:<18} {min(values):>11.5g} "
                f"{centre:>11.5g} {max(values):>11.5g} {value_range:>9.4f} "
                f"{iqr:>8.4f} {bounds[metric]:>6.2f}{verdict}"
            )
            summary[name][metric] = {
                "min": min(values),
                "median": centre,
                "max": max(values),
                "range_share": value_range,
                "iqr_share": iqr,
            }
    print(f"host drift over the run: {drift:.4f}")
    if args.write_baseline:
        stamp = host_stamp(calibration_before, args.seed)
        stamp.update(passes=args.repeat, run_seconds=args.seconds)
        BASELINE.write_text(
            json.dumps({"stamp": stamp, "end_to_end": summary}, indent=2)
            + "\n",
            encoding="utf-8",
        )
        print(f"[baseline written to {BASELINE}]")
    if failed:
        print(f"FAILED: {failed} wrong or failed operations")
        return 1
    if outside:
        if drift > 0.05:
            print(f"noisy host (drift {drift:.3f}): spread outside bound on {outside}")
        else:
            print(f"spread outside bound on {outside}")
        return 1
    return 0


# -- entry ---------------------------------------------------------------------------


def main() -> int:
    if not (SRC / "repro").is_dir() or not MANIFEST.is_file():
        print(
            f"run.py needs the repository around it: {SRC / 'repro'} and "
            f"{MANIFEST} must exist",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order reaches answer order through tie-breaks in
        # the build; every process of a run must hash alike
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(SRC))

    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in manifest["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--seconds", type=int, default=manifest["run_seconds"]
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument(
        "--out", type=pathlib.Path, help="directory for the span dump"
    )
    args = parser.parse_args()
    if args.smoke and args.write_baseline:
        parser.error("a smoke run is not a measurement: no baseline from it")
    if args.write_baseline and not args.repeat:
        parser.error("--write-baseline needs --repeat N")

    try:
        if args.smoke:
            return run_smoke(args, manifest)
        if args.repeat or not args.workload:
            args.repeat = args.repeat or 1
            return run_repeat(args, manifest)
        return run_one(args, manifest)
    except BenchmarkInvalid as exc:
        print(f"benchmark invalid: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
