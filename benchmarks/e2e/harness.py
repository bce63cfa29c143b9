"""Shared machinery of the e2e benchmark: set-up, clocks, verification.

Everything is measured from outside the program: wall time with
``perf_counter_ns``, CPU with ``process_time_ns`` plus the workers'
``/proc/<pid>/stat``, memory from ``/proc/<pid>/status``.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space inside the checkout (the benchmark writes nowhere else);
#: each run owns one sub-directory and removes it on every exit path
WORK_ROOT = HERE / ".work"

#: the corpus is a fixed synthetic dataset — the repo's standard bench
#: world.  ``--seed`` drives the request streams, not the world: two
#: worlds differ by ~30% in similarity edges, which would bury every
#: bound under seed-to-seed variation that no code change caused.
WORLD_SEED = 2016

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# -- statistics ----------------------------------------------------------------


def percentile(ordered: list, fraction: float):
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        return 0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- process accounting ----------------------------------------------------------


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of another process (10 ms granularity)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int | None = None) -> float:
    """``VmHWM`` of a process (this one by default), in MB."""
    with open(f"/proc/{pid or os.getpid()}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def calibration_ms() -> float:
    """A fixed pure-python spin, best of three: the host's speed today."""
    best = None
    for _ in range(3):
        started = time.perf_counter_ns()
        total = 0
        for value in range(400_000):
            total += value * value
        elapsed = time.perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e6


# -- set-up ----------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    """The content of one reference answer, decoded for C-speed equality."""

    experts: tuple
    terms: tuple
    matched_domain: str | None
    snapshot_version: int

    def matches(self, answer) -> bool:
        return (
            answer.experts == self.experts
            and tuple(answer.terms) == self.terms
            and answer.matched_domain == self.matched_domain
            and answer.snapshot_version == self.snapshot_version
        )


@dataclass
class Setup:
    """One built corpus on disk plus its reference answers."""

    scale: str
    workdir: pathlib.Path
    artifact: pathlib.Path
    #: wall of the build child, reference/probe phases excluded
    build_wall_s: float
    child: dict
    #: supported queries, most popular first
    queries: list[str]
    reference: dict[str, Reference]

    @classmethod
    def create(cls, scale: str, seed: int, *, probe: bool = False) -> "Setup":
        from repro.fleet.wire import expert_from_wire

        WORK_ROOT.mkdir(exist_ok=True)
        workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        try:
            command = [
                sys.executable,
                str(HERE / "build_child.py"),
                "--scale",
                scale,
                "--world-seed",
                str(WORLD_SEED),
                "--seed",
                str(seed),
                "--out",
                str(workdir),
            ]
            if probe:
                command.append("--probe")
            started = time.perf_counter()
            subprocess.run(command, check=True, env=child_env(), timeout=600)
            child_wall = time.perf_counter() - started
            child = json.loads((workdir / "child.json").read_text("utf-8"))
            raw = json.loads((workdir / "reference.json").read_text("utf-8"))
        except BaseException:
            shutil.rmtree(workdir, ignore_errors=True)
            raise
        reference = {
            query: Reference(
                experts=tuple(expert_from_wire(e) for e in wire["experts"]),
                terms=tuple(wire["terms"]),
                matched_domain=wire["matched_domain"],
                snapshot_version=wire["snapshot_version"],
            )
            for query, wire in raw.items()
        }
        return cls(
            scale=scale,
            workdir=workdir,
            artifact=workdir / "artifact",
            build_wall_s=child_wall - child["excluded_s"],
            child=child,
            queries=list(raw),
            reference=reference,
        )

    def load_system(self):
        from repro.core.esharp import ESharp

        return ESharp.from_artifact(self.artifact)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


def child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC) if not existing else str(SRC) + os.pathsep + existing
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def sample_warm_starts(artifact: pathlib.Path, probe_query: str, samples: int):
    """Seconds from spawning a worker process to its first answer."""
    from repro.fleet import SubprocessReplica

    seconds = []
    for index in range(samples):
        started = time.perf_counter()
        replica = SubprocessReplica(
            f"warm-start-{index}", artifact, detection_workers=1
        )
        try:
            replica.query(probe_query)
            seconds.append(time.perf_counter() - started)
        finally:
            replica.close()
    return seconds


# -- rounds ----------------------------------------------------------------------


@dataclass
class Round:
    """One pass over a workload's fixed operation sequence."""

    wall_s: float
    cpu_s: float
    #: per-query latency as the client saw it, nanoseconds
    latencies_ns: list[int]
    #: every answer of the round, in issue order per client (dropped
    #: after the round by the untraced run, which needs only ``hits``)
    answers: list
    #: operations sent, by kind — identical for every round of a workload
    ops: dict[str, int]
    failed: int = 0
    #: answers served from the result cache
    hits: int = 0
    #: workload-specific observations (refresh walls, stats objects, ...)
    extra: dict = field(default_factory=dict)

    @property
    def queries(self) -> int:
        return len(self.latencies_ns)


def timed_queries(call, queries, latencies: list, answers: list) -> int:
    """Closed loop: issue ``queries`` one after another; returns errors."""
    clock = time.perf_counter_ns
    errors = 0
    for query in queries:
        started = clock()
        try:
            answer = call(query)
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            errors += 1
            print(f"request failed: {query!r}: {exc!r}", file=sys.stderr)
            continue
        latencies.append(clock() - started)
        answers.append(answer)
    return errors


def repeat(step, *, seconds: float | None, count: int | None, at_least: int):
    """Call ``step`` a fixed ``count`` of times, or until the time box
    closes — checked between steps, never inside one; ``at_least`` steps
    always run."""
    done = 0
    started = time.perf_counter()
    while (
        done < count
        if count is not None
        else done < at_least or time.perf_counter() - started < seconds
    ):
        gc.collect()
        step()
        done += 1


def summarise(rounds: list[Round]) -> dict[str, float]:
    """Round-level values, then the median across rounds."""
    per_round = {
        "throughput_qps": [],
        "latency_p50_ms": [],
        "latency_p95_ms": [],
        "cpu_ms_per_query": [],
    }
    for result in rounds:
        ordered = sorted(result.latencies_ns)
        per_round["throughput_qps"].append(result.queries / result.wall_s)
        per_round["latency_p50_ms"].append(percentile(ordered, 0.50) / 1e6)
        per_round["latency_p95_ms"].append(percentile(ordered, 0.95) / 1e6)
        per_round["cpu_ms_per_query"].append(
            result.cpu_s * 1000.0 / result.queries
        )
    return {name: median(values) for name, values in per_round.items()}
