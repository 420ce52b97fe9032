"""The benchmark's workloads.

Each workload runs in this one process on the simulated (virtual-time)
backend, with no worker pool and no extra threads.  Arrivals are an open
loop in virtual time: every epoch submits a seeded Poisson schedule with
``submit(..., at=)`` and then drains, so the generator can never run late.
Epochs follow one another as a closed loop.

A *round* is a fixed list of epochs run on a freshly built server or
router.  Every round submits the same queries; round ``r`` of seed ``s``
draws their order and arrival times from ``(s, r)``, so a run averages
over many independent arrival patterns instead of repeating one, while
the same seed still gives the same inputs.  Fresh state per round keeps
memory bounded (a server retains every result it produced), keeps tuning
history from growing with run length, and makes per-round counts
comparable between runs.

Timed regions cover submission, draining, fetching every result through
its handle and, on ``model_paper_mix``, the ``tune()`` cycle after each
epoch.  Oracle comparisons and property checks run outside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

import oracle
from repro.cluster import ClusterRouter
from repro.engine.queries import ENGINE_QUERIES
from repro.errors import ReproError
from repro.experiments.common import (
    ExperimentConfig,
    clear_isolated_latency_cache,
    measure_isolated_latencies,
)
from repro.metrics.latency import query_key
from repro.metrics.slowdown import percentile
from repro.server import AnalyticsServer
from repro.workloads.load import arrival_rate_for_load
from repro.workloads.mixes import tpch_mix


@dataclass
class RoundResult:
    """What one round did and how long its timed regions took."""

    queries: int = 0
    seconds: float = 0.0
    #: One line per failed operation: workload, seed, query, reason.
    failures: List[str] = field(default_factory=list)
    #: Checks that are not about one query (work conservation, repeat
    #: determinism); any entry makes the run incorrect.
    violations: List[str] = field(default_factory=list)
    #: Queries served by a fold or the fragment cache (sharing only).
    served: int = 0
    tune_seconds: List[float] = field(default_factory=list)
    #: Host speed measured around the round (set by the runner).
    speed: float = 1.0


def _fetch_all(handles, tracer) -> list:
    """Every handle's stream as a list of batches, or the error it raised."""
    span = tracer.span("runtime.fetch") if tracer is not None else contextlib.nullcontext()
    out = []
    with span:
        for handle in handles:
            try:
                out.append(list(handle))
            except ReproError as error:
                out.append(error)
    return out


def _epochs(seed: int, tag: int, index: int, compositions, rate: float) -> list:
    """Round ``index``: each composition shuffled, with Poisson arrivals."""
    rng = np.random.default_rng([seed, tag, index])
    epochs = []
    for items in compositions:
        order = rng.permutation(len(items))
        arrivals = np.cumsum(rng.exponential(1.0 / rate, len(items)))
        epochs.append([(items[i], float(at)) for i, at in zip(order, arrivals)])
    return epochs


class _EngineWorkload:
    """Shared result checking for the workloads that run real plans."""

    name = ""
    sharing = False
    seed = 0
    rounds = 0
    db = None
    expected = None
    shapes: tuple = ENGINE_QUERIES

    def prepare_oracle(self) -> None:
        self.expected = oracle.expected_results(self.db, self.shapes)

    def _check(self, query: str, fetched, result: RoundResult) -> None:
        if isinstance(fetched, Exception):
            reason = f"{type(fetched).__name__}: {fetched}"
        else:
            reason = oracle.mismatch(query, fetched, self.expected[query], self.db)
        if reason is not None:
            result.failures.append(f"{self.name} seed={self.seed} {query}: {reason}")


class EngineOlap(_EngineWorkload):
    """The default server on the engine path: the ten-shape mix plus QS."""

    name = "engine_olap"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.scale_factor = 0.002 if tiny else 0.02
        self.rate = 20.0  # virtual arrivals per second
        copies = 1 if tiny else 2
        self.compositions = [list(ENGINE_QUERIES) * copies]

    def setup(self) -> None:
        server = AnalyticsServer(scale_factor=self.scale_factor, seed=self.seed)
        handles = [server.submit(name) for name in ENGINE_QUERIES]
        server.drain()
        _fetch_all(handles, None)
        self.db = server.database

    def run_round(self, tracer=None) -> RoundResult:
        server = AnalyticsServer(
            scale_factor=self.scale_factor, seed=self.seed, database=self.db
        )
        result = RoundResult()
        schedule = _epochs(self.seed, 101, self.rounds, self.compositions, self.rate)
        self.rounds += 1
        for epoch in schedule:
            start = time.perf_counter()
            handles = [server.submit(name, at=at) for name, at in epoch]
            server.drain()
            fetched = _fetch_all(handles, tracer)
            result.seconds += time.perf_counter() - start
            result.queries += len(handles)
            for (name, _), out in zip(epoch, fetched):
                self._check(name, out, result)
        return result


class ClusterDashboard(_EngineWorkload):
    """A 4-shard sharing cluster: a repetitive dashboard plus light bulk."""

    name = "cluster_dashboard"
    sharing = True
    DASHBOARD = ("Q6", "Q14", "Q19", "QS")
    BULK = ("Q1", "Q3", "Q13", "Q18")
    shapes = DASHBOARD + BULK

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.scale_factor = 0.002 if tiny else 0.01
        self.n_shards = 4
        self.rate = 50.0  # virtual arrivals per second
        # Every epoch holds each dashboard shape 11 times; the bulk tenant
        # runs each of its long shapes once per round, one per epoch.
        self.compositions = []
        for index in range(2 if tiny else 12):
            names = list(self.DASHBOARD) * (2 if tiny else 11)
            if index < len(self.BULK):
                names.append(self.BULK[index])
            self.compositions.append(names)

    def _tenant(self, name: str) -> dict:
        if name in self.BULK:
            return {"tenant": "etl", "sla": "bulk"}
        return {"tenant": "dash", "sla": "latency"}

    def _router(self, database=None) -> ClusterRouter:
        return ClusterRouter(
            n_shards=self.n_shards,
            scale_factor=self.scale_factor,
            seed=self.seed,
            environment="engine",
            sharing=True,
            database=database,
        )

    def setup(self) -> None:
        router = self._router()
        handles = [router.submit(name, tenant="warmup") for name in self.shapes]
        router.drain()
        _fetch_all(handles, None)
        self.db = router.shards[0].database

    def run_round(self, tracer=None) -> RoundResult:
        router = self._router(self.db)
        result = RoundResult()
        schedule = _epochs(self.seed, 303, self.rounds, self.compositions, self.rate)
        self.rounds += 1
        for epoch in schedule:
            start = time.perf_counter()
            handles = [
                router.submit(name, at=at, **self._tenant(name)) for name, at in epoch
            ]
            router.drain()
            fetched = _fetch_all(handles, tracer)
            result.seconds += time.perf_counter() - start
            result.queries += len(handles)
            for (name, _), out in zip(epoch, fetched):
                self._check(name, out, result)
        stats = router.sharing_stats
        result.served = stats.attached_queries + stats.cache_hits
        return result


class ModelPaperMix:
    """The paper's TPC-H mix in model mode with a tune() cycle per epoch."""

    name = "model_paper_mix"
    sharing = False
    N_WORKERS = 8
    LOAD = 0.7  # offered load, a fraction of the workers' capacity
    TUNE_BUDGET = 0.05  # simulated seconds per tune() cycle

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.mix = tpch_mix(sf_small=3.0, sf_large=30.0, p_small=0.75)
        self.rate = arrival_rate_for_load(self.mix, self.LOAD, n_workers=self.N_WORKERS)
        # Each epoch runs every TPC-H query four times, three at SF 3 and
        # once at SF 30: the paper's 3:1 mix, stratified so that every seed
        # offers the same work.  The seed sets the order and the arrivals.
        small = {spec.name: spec for spec, _ in self.mix.entries if spec.scale_factor == 3.0}
        large = {spec.name: spec for spec, _ in self.mix.entries if spec.scale_factor == 30.0}
        names = sorted(small)[:4] if tiny else sorted(small)
        specs = [small[n] for n in names] * 3 + [large[n] for n in names]
        self.compositions = [specs] * (2 if tiny else 3)
        self.rounds = 0
        self.bases: dict = {}
        #: Sorted virtual latencies and the slowdowns of round 0, which is
        #: the same for every run of a seed.
        self.latencies: Optional[List[float]] = None
        self.slowdowns: List[float] = []

    def _server(self) -> AnalyticsServer:
        return AnalyticsServer(
            environment="model", n_workers=self.N_WORKERS, seed=self.seed
        )

    def setup(self) -> None:
        self._server()
        clear_isolated_latency_cache()
        self.bases = measure_isolated_latencies(
            self.mix.queries, ExperimentConfig(n_workers=self.N_WORKERS)
        )

    def prepare_oracle(self) -> None:
        """Model mode produces no result rows; properties are checked instead."""

    def run_round(self, tracer=None) -> RoundResult:
        server = self._server()
        result = RoundResult()
        latencies, slowdowns = [], []
        schedule = _epochs(self.seed, 202, self.rounds, self.compositions, self.rate)
        self.rounds += 1
        for epoch in schedule:
            start = time.perf_counter()
            handles = [server.submit_spec(spec, at=at) for spec, at in epoch]
            records = server.drain()
            # Model queries stream no rows; the empty streams are still
            # read, as on the engine workloads.
            fetched = _fetch_all(handles, tracer)
            drained = time.perf_counter()
            self._check_epoch(server, epoch, handles, records, fetched, result)
            for (spec, _), handle in zip(epoch, handles):
                record = server.poll(handle)
                if record is not None:
                    base = self.bases[query_key(spec.name, spec.scale_factor)]
                    latencies.append(record.latency)
                    slowdowns.append(record.latency / base)
            tune_start = time.perf_counter()
            server.tune(budget_seconds=self.TUNE_BUDGET)
            tune = time.perf_counter() - tune_start
            result.seconds += (drained - start) + tune
            result.tune_seconds.append(tune)
            result.queries += len(handles)
        if self.latencies is None:
            self.latencies, self.slowdowns = sorted(latencies), slowdowns
        return result

    def _check_epoch(self, server, epoch, handles, records, fetched, result) -> None:
        """The properties every epoch must satisfy (see README)."""
        label = f"{self.name} seed={self.seed}"
        by_id = {}
        for record in records:
            by_id.setdefault(id(record), record)
        if len(records) != len(handles) or len(by_id) != len(records):
            result.violations.append(
                f"{label}: drain returned {len(records)} records for "
                f"{len(handles)} submissions"
            )
        seen = set()
        for (spec, at), handle, out in zip(epoch, handles, fetched):
            record = server.poll(handle)
            problem = None
            if record is None:
                problem = "never completed"
            elif id(record) not in by_id or id(record) in seen:
                problem = "not reported exactly once by drain()"
            elif record.failed or record.cancelled:
                problem = f"failed: {record.error or 'cancelled'}"
            elif out != []:
                problem = f"a model query streamed {out!r}"
            elif record.arrival_time != at or record.completion_time < at:
                problem = (
                    f"arrival {record.arrival_time} / completion "
                    f"{record.completion_time} against submitted {at}"
                )
            elif record.latency < spec.total_work_seconds / self.N_WORKERS:
                problem = (
                    f"latency {record.latency} below its work bound "
                    f"{spec.total_work_seconds / self.N_WORKERS}"
                )
            if record is not None:
                seen.add(id(record))
            if problem is not None:
                result.failures.append(f"{label} {spec.name}@{spec.scale_factor:g}: {problem}")
        run = server.backend.last_result
        cpu = sum(record.cpu_seconds for record in records)
        busy = sum(run.worker_busy_seconds)
        capacity = self.N_WORKERS * run.end_time
        # Relative slack only for float summation order.
        if not (cpu <= busy * (1 + 1e-9) and busy <= capacity * (1 + 1e-9)):
            result.violations.append(
                f"{label}: work not conserved: cpu {cpu} busy {busy} "
                f"capacity {capacity}"
            )

    def virtual_metrics(self) -> dict:
        """Eq. 1 mean slowdown and latency percentiles of one round."""
        return {
            "slowdown_mean": sum(self.slowdowns) / len(self.slowdowns),
            "virtual_p50_ms": percentile(self.latencies, 50.0) * 1e3,
            "virtual_p95_ms": percentile(self.latencies, 95.0) * 1e3,
            "samples": len(self.latencies),
            "digest": digest(self.latencies),
        }


def digest(values) -> str:
    """A short hash of a float list, bit-exact (``repr`` round-trips)."""
    text = ",".join(repr(float(v)) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


WORKLOADS = {
    EngineOlap.name: EngineOlap,
    ModelPaperMix.name: ModelPaperMix,
    ClusterDashboard.name: ClusterDashboard,
}
