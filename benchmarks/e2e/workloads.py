"""The four workloads.  Each is a fixed operation sequence (a *round*)
made from ``--seed``; the runner repeats the round and reports medians.

All four are closed loops: a client sends its next request only after
the previous reply.  Sized for a 2-core host — at most two processes
are busy at once.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import replace

from harness import Round, Setup, process_cpu_seconds, timed_queries

#: a round of ``detect_cold`` / ``fleet_scatter`` visits every third
#: supported query by popularity rank (head query included), so a round
#: stays near one second and a time box holds enough rounds for a median
ROUND_STRIDE = 3

SIZES = {
    # requests per serve_zipf round, queries per refresh_cycle phase
    "standard": {"zipf_requests": 6000, "phase_queries": 500},
    "small": {"zipf_requests": 600, "phase_queries": 100},
}
ZIPF_EXPONENT = 1.1
#: result-cache entries on serve_zipf: ~10% of the working set, so the
#: hit ratio lands near 0.67 — p50 is a hit, p95 a miss
ZIPF_CACHE_CAPACITY = 96
#: one full ``refresh_domains`` after this many delta cycles
FULL_REFRESH_EVERY = 6
VERIFY_SAMPLE = 16


def zipf_stream(queries: list[str], count: int, rng: random.Random) -> list[str]:
    from repro.utils.zipf import ZipfSampler

    sampler = ZipfSampler(len(queries), exponent=ZIPF_EXPONENT, rng=rng)
    return [queries[sampler.sample()] for _ in range(count)]


class Stopwatch:
    """Wall and CPU (this process + worker processes) of one block."""

    def __init__(self, worker_pids=()) -> None:
        self._pids = tuple(worker_pids)
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.worker_cpu_s = 0.0

    def _workers(self) -> float:
        return sum(process_cpu_seconds(pid) for pid in self._pids)

    def __enter__(self) -> "Stopwatch":
        self._workers_before = self._workers()
        self._cpu_before = time.process_time_ns()
        self._wall_before = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = (time.perf_counter_ns() - self._wall_before) / 1e9
        own = (time.process_time_ns() - self._cpu_before) / 1e9
        self.worker_cpu_s = self._workers() - self._workers_before
        self.cpu_s = own + self.worker_cpu_s


class Workload:
    name = ""

    def __init__(self, setup: Setup, seed: int) -> None:
        self.setup = setup
        self.rng = random.Random(seed)
        self.sizes = SIZES[setup.scale]

    def start(self) -> None:
        """Bring the system under test up and warm it (timed as set-up)."""
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def worker_pids(self) -> tuple[int, ...]:
        return ()

    def mismatches(self, answers) -> int:
        reference = self.setup.reference
        return sum(
            1 for answer in answers if not reference[answer.query].matches(answer)
        )

    @staticmethod
    def hits(answers) -> int:
        return sum(1 for answer in answers if answer.cache_hit)

    def shuffled_round_queries(self) -> list[str]:
        order = self.setup.queries[::ROUND_STRIDE]
        self.rng.shuffle(order)
        return order


class DetectCold(Workload):
    """Every request pays expansion + per-term engine scoring + union."""

    name = "detect_cold"

    def start(self) -> None:
        from repro.serving.service import ExpertService, ServiceConfig

        self.system = self.setup.load_system()
        self.system.detector.configure_score_cache(cache_scores=False)
        self.service = ExpertService(
            self.system, ServiceConfig(cache_capacity=0)
        )
        self.order = self.shuffled_round_queries()
        timed_queries(self.service.query, self.order[:64], [], [])

    def round(self) -> Round:
        latencies, answers = [], []
        with Stopwatch() as watch:
            errors = timed_queries(
                self.service.query, self.order, latencies, answers
            )
        return Round(
            wall_s=watch.wall_s,
            cpu_s=watch.cpu_s,
            latencies_ns=latencies,
            answers=answers,
            ops={"query": len(self.order)},
            failed=errors + self.mismatches(answers),
            hits=self.hits(answers),
        )

    def stop(self) -> None:
        self.service.close()


class ServeZipf(Workload):
    """Two clients replay one Zipf stream through a small result cache."""

    name = "serve_zipf"
    clients = 2

    def start(self) -> None:
        from repro.serving.service import ExpertService, ServiceConfig

        self.system = self.setup.load_system()
        self.service = ExpertService(
            self.system, ServiceConfig(cache_capacity=ZIPF_CACHE_CAPACITY)
        )
        stream = zipf_stream(
            self.setup.queries, self.sizes["zipf_requests"], self.rng
        )
        self.streams = [stream[i :: self.clients] for i in range(self.clients)]
        # fill the detector memo with every expansion term, then settle
        # the result cache into the state every later round starts from
        timed_queries(self.service.query, self.setup.queries, [], [])
        self.round()

    def round(self) -> Round:
        latencies = [[] for _ in self.streams]
        answers = [[] for _ in self.streams]
        errors = [0] * len(self.streams)
        gate = threading.Barrier(len(self.streams) + 1)

        def client(index: int) -> None:
            gate.wait()
            errors[index] = timed_queries(
                self.service.query,
                self.streams[index],
                latencies[index],
                answers[index],
            )

        threads = [
            threading.Thread(target=client, args=(index,), daemon=True)
            for index in range(len(self.streams))
        ]
        for thread in threads:
            thread.start()
        with Stopwatch() as watch:
            gate.wait()
            for thread in threads:
                thread.join()
        merged = [answer for each in answers for answer in each]
        return Round(
            wall_s=watch.wall_s,
            cpu_s=watch.cpu_s,
            latencies_ns=[value for each in latencies for value in each],
            answers=merged,
            ops={"query": sum(len(stream) for stream in self.streams)},
            failed=sum(errors) + self.mismatches(merged),
            hits=self.hits(merged),
        )

    def stop(self) -> None:
        self.service.close()


class FleetScatter(Workload):
    """One client through the router over two worker processes."""

    name = "fleet_scatter"

    def start(self) -> None:
        from repro.fleet import FleetConfig, FleetRouter, SubprocessReplica

        self.replicas = []
        self.router = None
        try:
            for index in range(2):
                self.replicas.append(
                    SubprocessReplica(
                        f"replica-{index}",
                        self.setup.artifact,
                        detection_workers=1,
                        cache_capacity=0,
                    )
                )
            self.router = FleetRouter.from_artifact(
                self.setup.artifact,
                self.replicas,
                sharding="hash",
                config=FleetConfig(),
            )
        except BaseException:
            self.stop()
            raise
        self.order = self.shuffled_round_queries()
        self.round()  # warms the workers' per-term memos

    def worker_pids(self) -> tuple[int, ...]:
        return tuple(replica.pid for replica in self.replicas)

    def round(self) -> Round:
        latencies, answers = [], []
        with Stopwatch(self.worker_pids()) as watch:
            errors = timed_queries(
                self.router.query, self.order, latencies, answers
            )
        return Round(
            wall_s=watch.wall_s,
            cpu_s=watch.cpu_s,
            latencies_ns=latencies,
            answers=answers,
            ops={"query": len(self.order)},
            failed=errors + self.mismatches(answers),
            hits=self.hits(answers),
            extra={"worker_cpu_s": watch.worker_cpu_s},
        )

    def stop(self) -> None:
        if self.router is not None:
            self.router.close()
        for replica in self.replicas:
            replica.close()


class RefreshCycle(Workload):
    """Writes beside reads, one thread: focused delta, queries, broad
    delta, queries — and a full rebuild between every few cycles."""

    name = "refresh_cycle"

    def start(self) -> None:
        from repro.querylog.generator import QueryLogGenerator
        from repro.serving.service import ExpertService

        self.system = self.setup.load_system()
        self.service = ExpertService(self.system)
        queries = self.setup.queries
        phase = self.sizes["phase_queries"]
        stream = zipf_stream(queries, 2 * phase, self.rng)
        self.phases = (stream[:phase], stream[phase:])
        self.sample_at = sorted(
            self.rng.sample(range(phase), min(VERIFY_SAMPLE, phase))
        )
        log_config = self.system.config.querylog
        generator = QueryLogGenerator(
            self.system.offline.world,
            replace(log_config, seed=self.rng.randrange(1 << 30)),
        )
        self._impressions = generator.impressions(1 << 40)
        self.focused_size = max(1, log_config.impressions // 1000)
        self.broad_size = max(1, log_config.impressions // 100)
        # a focused delta touches only the communities of two head queries
        self.focus_terms = set()
        for head in queries[:2]:
            self.focus_terms.update(self.system.expansion_terms(head))
        self.cycles = 0
        timed_queries(self.service.query, queries, [], [])
        self.round()  # seeds the incremental refresher

    def _focused(self) -> list:
        batch = []
        while len(batch) < self.focused_size:
            impression = next(self._impressions)
            if impression.query in self.focus_terms:
                batch.append(impression)
        return batch

    def _broad(self) -> list:
        return [next(self._impressions) for _ in range(self.broad_size)]

    def _delta(self, batch) -> tuple[float, object, int]:
        """One delta refresh: ``(seconds, stats, version-accounting errors)``."""
        before = self.service.snapshot_version
        started = time.perf_counter_ns()
        self.service.refresh_delta(batch)
        seconds = (time.perf_counter_ns() - started) / 1e9
        stats = self.service.stats().last_delta_refresh
        published = bool(
            stats.edges_added
            or stats.edges_changed
            or stats.edges_removed
            or stats.cluster_mode != "unchanged"
        )
        wrong = self.service.snapshot_version != before + int(published)
        return seconds, stats, int(wrong)

    def round(self) -> Round:
        extra = {}
        reseeded = self.cycles == 0
        if self.cycles and self.cycles % FULL_REFRESH_EVERY == 0:
            before = self.service.snapshot_version
            started = time.perf_counter_ns()
            self.service.refresh_domains()
            extra["full_refresh_s"] = (time.perf_counter_ns() - started) / 1e9
            extra["full_version_errors"] = int(
                self.service.snapshot_version != before + 1
            )
            reseeded = True
        self.cycles += 1
        focused, broad = self._focused(), self._broad()
        latencies, answers = [], []
        with Stopwatch() as watch:
            focused_s, focused_stats, wrong_a = self._delta(focused)
            errors = timed_queries(
                self.service.query, self.phases[0], latencies, answers
            )
            broad_s, broad_stats, wrong_b = self._delta(broad)
            errors += timed_queries(
                self.service.query, self.phases[1], latencies, answers
            )
        last_phase = answers[-len(self.phases[1]) :]
        extra.update(
            focused_s=focused_s,
            focused_stats=focused_stats,
            broad_s=broad_s,
            broad_stats=broad_stats,
            reseeded=reseeded,
            post_swap_hits=self.hits(last_phase),
            post_swap_queries=len(last_phase),
        )
        failed = (
            errors
            + wrong_a
            + wrong_b
            + extra.get("full_version_errors", 0)
            + self._sample_mismatches(last_phase)
        )
        return Round(
            wall_s=watch.wall_s,
            cpu_s=watch.cpu_s,
            latencies_ns=latencies,
            answers=answers,
            ops={
                "query": len(self.phases[0]) + len(self.phases[1]),
                "refresh_delta": 2,
            },
            failed=failed,
            hits=self.hits(answers),
            extra=extra,
        )

    def _sample_mismatches(self, last_phase) -> int:
        """Sampled answers vs the plain online path on the same snapshot."""
        if len(last_phase) != len(self.phases[1]):
            return 0  # a request failed: already counted
        version = self.service.snapshot_version
        wrong = 0
        for position in self.sample_at:
            served = last_phase[position]
            plain = self.system.answer(served.query)
            if (
                list(served.experts) != plain.experts
                or list(served.terms) != plain.terms
                or served.snapshot_version != version
            ):
                wrong += 1
        return wrong

    def stop(self) -> None:
        self.service.close()


WORKLOADS = {
    cls.name: cls for cls in (DetectCold, ServeZipf, FleetScatter, RefreshCycle)
}
