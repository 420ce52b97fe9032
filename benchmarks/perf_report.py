"""Performance report for the simulation kernel.

Measures the event-loop fast path on the reference scheduling scenario
(the workload of ``bench_micro.py::test_simulation_decision_throughput``)
plus the wall time of representative figure sweep cells, and writes the
numbers to ``BENCH_simcore.json`` at the repository root.

The committed JSON records the seed-revision baseline next to the
current measurement, so kernel regressions show up as a ratio without
having to check out old revisions.  Absolute numbers are machine
dependent; the ratio on one machine is the comparable quantity.

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py            # full report
    PYTHONPATH=src python benchmarks/perf_report.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/perf_report.py -o out.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import time
from pathlib import Path

from dataclasses import replace

from repro.core import SchedulerConfig, make_scheduler
from repro.experiments import figure7
from repro.experiments.common import (
    ExperimentConfig,
    clear_isolated_latency_cache,
    measure_isolated_latencies,
)
from repro.experiments.parallel import SweepCell, run_cells
from repro.experiments.pool import shutdown_pool
from repro.simcore import RngFactory, Simulator
from repro.workloads import generate_workload, tpch_mix

#: Seed-revision numbers for the reference scenario on the machine that
#: produced the committed BENCH_simcore.json (best of 5 runs).
SEED_BASELINE = {
    "wall_seconds": 0.2392546730000049,
    "tasks_executed": 12512,
    "events_processed": 25157,
}


def _load_host_probe():
    """``perfbench/run.py``'s calibration kernel and its reference time.

    A shared host's speed drifts by tens of percent over minutes;
    bracketing each timed run with this fixed kernel and scaling by
    ``reference / kernel seconds`` cancels the drift, so the gate
    compares the code, not the host's load at the time.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.host_kernel, module.KERNEL_REFERENCE_S


def reference_workload():
    """The bench_micro reference scenario (kept in sync with it)."""
    mix = tpch_mix(names=("Q1", "Q3", "Q6", "Q18"))
    rng = RngFactory(1).stream("workload")
    return generate_workload(mix, rate=15.0, duration=2.0, rng=rng)


def measure_decision_throughput(repeats: int = 5) -> dict:
    """Median-of-N wall time of the reference stride simulation.

    The median (not the minimum) is the gated statistic: best-of-N is a
    biased estimator whose bias *shrinks* as the host gets quieter, so
    a report regenerated on a quiet machine sets a floor a normally
    loaded CI run cannot meet.  The median of the same samples is
    stable under one-sided scheduler noise.

    Each run is bracketed by the host-speed probe; the gated
    ``adjusted_tasks_per_second`` divides by the median of the
    host-adjusted wall times (reference-host seconds), so a slower or
    busier host does not read as a regression of the code.
    """
    host_kernel, kernel_reference_s = _load_host_probe()
    workload = reference_workload()
    times = []
    adjusted = []
    speeds = []
    result = None
    host_kernel()  # warm-up: a process's first call runs cold and slow
    for _ in range(repeats):
        scheduler = make_scheduler("stride", SchedulerConfig(n_workers=8))
        simulator = Simulator(scheduler, workload, seed=1)
        before = host_kernel()
        start = time.perf_counter()
        result = simulator.run()
        wall = time.perf_counter() - start
        speed = kernel_reference_s / (0.5 * (before + host_kernel()))
        times.append(wall)
        adjusted.append(wall * speed)
        speeds.append(speed)
    wall = statistics.median(times)
    adjusted_wall = statistics.median(adjusted)
    return {
        "repeats": repeats,
        "wall_seconds": wall,
        "wall_seconds_best": min(times),
        "tasks_executed": result.tasks_executed,
        "events_processed": result.events_processed,
        "tasks_per_second": result.tasks_executed / wall,
        "events_per_second": result.events_processed / wall,
        "host_speed": statistics.median(speeds),
        "adjusted_wall_seconds": adjusted_wall,
        "adjusted_tasks_per_second": result.tasks_executed / adjusted_wall,
    }


def measure_fault_free_overhead(repeats: int = 5) -> dict:
    """Cost of arming the fault-tolerance hooks when nothing fails.

    Runs the reference scenario twice per repeat — once plain, once with
    every query carrying a (never-expiring) deadline, so the per-decide
    deadline sweep and the abort bookkeeping are armed on every group —
    and gates on the **median of the paired** armed/plain wall-time
    ratios.  Each pair runs back to back in one process, so its ratio
    cancels machine speed; the median over pairs cancels the one-sided
    scheduler jitter that made extreme-of-N statistics sign-unstable.
    The gated claim: fault tolerance you do not use is (nearly) free.
    """
    plain = reference_workload()
    armed = [(t, replace(q, deadline=1.0e6)) for t, q in plain]

    def run_once(workload):
        scheduler = make_scheduler("stride", SchedulerConfig(n_workers=8))
        simulator = Simulator(scheduler, workload, seed=1)
        start = time.perf_counter()
        simulator.run()
        return time.perf_counter() - start

    plain_times = []
    armed_times = []
    ratios = []
    for repeat in range(repeats):
        # Alternate pair order so periodic host jitter cannot land on
        # the same side of every pair.
        if repeat % 2 == 0:
            p = run_once(plain)
            a = run_once(armed)
        else:
            a = run_once(armed)
            p = run_once(plain)
        plain_times.append(p)
        armed_times.append(a)
        ratios.append(a / p)
    return {
        "repeats": repeats,
        "plain_seconds": statistics.median(plain_times),
        "armed_seconds": statistics.median(armed_times),
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "overhead_fraction_min": min(ratios) - 1.0,
    }


def measure_figure_cells(jobs: int = 1) -> dict:
    """Wall time of a small figure7 sweep (per cell and total)."""
    config = ExperimentConfig.quick().with_options(duration=3.0, n_workers=8)
    schedulers = ("stride", "fair")
    loads = (0.8, 1.0)
    start = time.perf_counter()
    figure7.run(config, schedulers=schedulers, loads=loads, jobs=jobs)
    total = time.perf_counter() - start
    cells = len(schedulers) * len(loads)
    return {
        "jobs": jobs,
        "cells": cells,
        "wall_seconds_total": total,
        "wall_seconds_per_cell": total / cells,
    }


def _scaling_cells():
    """A 24-cell sweep grid (3 schedulers x 8 rates) for scaling runs."""
    config = ExperimentConfig.quick().with_options(duration=1.0, n_workers=8)
    return [
        SweepCell(
            system=system,
            rate=rate,
            salt=salt,
            config=config,
            max_time=config.duration,
        )
        for salt, system in enumerate(("stride", "fair", "fifo"))
        for rate in (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0)
    ]


def measure_sweep_scaling(job_counts=(1, 2, 4, 8)) -> dict:
    """Cold- and warm-pool wall time of a 24-cell sweep per job count.

    *Cold* shuts the shared pool down first, so the measurement pays
    worker spawn + pre-import + warmup; *warm* reruns against the pool
    the cold run just started — the steady-state cost a multi-figure
    session actually sees.  ``force_pool=True`` bypasses the auto-jobs
    fallback so the pooled path is what gets measured even on hosts
    with fewer cores than jobs (``cpu_count`` is recorded: speedups
    are only expected when cores are available).
    """
    cells = _scaling_cells()
    rows = []
    for jobs in job_counts:
        if jobs == 1:
            start = time.perf_counter()
            run_cells(cells, jobs=1)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            run_cells(cells, jobs=1)
            warm = time.perf_counter() - start
        else:
            shutdown_pool()
            start = time.perf_counter()
            run_cells(cells, jobs=jobs, force_pool=True)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            run_cells(cells, jobs=jobs, force_pool=True)
            warm = time.perf_counter() - start
        rows.append(
            {
                "jobs": jobs,
                "cold_seconds": cold,
                "warm_seconds": warm,
            }
        )
    shutdown_pool()
    sequential_warm = rows[0]["warm_seconds"]
    for row in rows:
        row["warm_speedup_vs_sequential"] = sequential_warm / row["warm_seconds"]
    return {
        "cells": len(cells),
        "cpu_count": os.cpu_count(),
        "runs": rows,
    }


def measure_base_latency_cache() -> dict:
    """Cold vs. warm cost of the memoized isolated-latency baseline.

    Every figure sweep starts by measuring each query's isolated base
    latency; the result is memoized in ``repro.experiments.common``, so
    repeat runs under the same config (e.g. the sequential and parallel
    figure sweeps below) pay the cold cost once.  The warm/cold ratio
    recorded here is the per-reuse saving.
    """
    config = ExperimentConfig.quick().with_options(duration=3.0, n_workers=8)
    queries = config.mix().queries
    clear_isolated_latency_cache()
    start = time.perf_counter()
    measure_isolated_latencies(queries, config)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    measure_isolated_latencies(queries, config)
    warm = time.perf_counter() - start
    return {
        "queries": len(queries),
        "cold_seconds": cold,
        "warm_seconds": warm,
        "speedup": cold / warm if warm > 0 else float("inf"),
    }


def measure_streaming_latency(scale_factor: float = 0.02, repeats: int = 3) -> dict:
    """Time-to-first-batch vs time-to-last-batch for a large scan.

    Runs the streaming scan QS on the threaded backend and consumes its
    result channel live.  Pre-refactor, the first row was only available
    at query end; with the streaming result path the first batch arrives
    after roughly one morsel of the final pipeline.  The
    ``first_batch_fraction`` (TTFB / TTLB) is the gated quantity: it is
    a ratio of two measurements on the same machine, so it is stable
    where absolute wall times are not.
    """
    from repro.engine import generate_tpch
    from repro.engine.execution import EngineEnvironment, engine_query_spec
    from repro.runtime import ThreadedBackend

    db = generate_tpch(scale_factor=scale_factor, seed=7)
    samples = []
    rows = 0
    batches = 0
    for _ in range(repeats):
        backend = ThreadedBackend(
            make_scheduler(
                "stride", SchedulerConfig(n_workers=4, t_max=0.002)
            ),
            EngineEnvironment(db),
        )
        backend.start()
        start = time.perf_counter()
        handle = backend.submit(engine_query_spec("QS", db))
        first = None
        rows = 0
        batches = 0
        for batch in handle:
            if first is None:
                first = time.perf_counter() - start
            rows += len(next(iter(batch.values())))
            batches += 1
        last = time.perf_counter() - start
        backend.drain()
        backend.shutdown()
        samples.append(
            {
                "first_batch_seconds": first,
                "last_batch_seconds": last,
                "first_batch_fraction": first / last if last > 0 else 1.0,
            }
        )
    # Each sample's fraction is a paired (same-run) ratio; gate on the
    # median over repeats, like every other noise-prone gate here.
    fractions = sorted(s["first_batch_fraction"] for s in samples)
    median = fractions[len(fractions) // 2]
    chosen = next(
        s for s in samples if s["first_batch_fraction"] == median
    )
    return {
        "repeats": repeats,
        "scale_factor": scale_factor,
        "rows": rows,
        "batches": batches,
        "first_batch_seconds": chosen["first_batch_seconds"],
        "last_batch_seconds": chosen["last_batch_seconds"],
        "first_batch_fraction": chosen["first_batch_fraction"],
    }


def _cluster_workload(seed: int = 33, duration: float = 4.0):
    """The reference two-tenant cluster scenario (dashboards vs ETL)."""
    from repro.workloads import Tenant, multi_tenant_workload

    tenants = [
        Tenant(
            "dash",
            tpch_mix(sf_small=0.25, sf_large=2.0, p_small=0.75),
            rate=20.0,
            user_priority=4.0,
            sla="latency",
        ),
        Tenant(
            "etl",
            tpch_mix(sf_small=8.0, sf_large=30.0, p_small=0.5),
            rate=3.0,
            sla="bulk",
        ),
    ]
    return multi_tenant_workload(tenants, duration, RngFactory(seed))


def measure_routing(repeats: int = 3) -> dict:
    """Router overhead plus the predictive-placement tail-latency win.

    Two gated quantities, both same-machine ratios:

    * ``routing_overhead_fraction`` — wall time of the reference
      cluster workload through a *one-shard* ``ClusterRouter`` (pays
      placement, the cluster ticket registry and quota checks on every
      submit) vs the same workload submitted straight to the bare
      shard.  Each repeat times the bare and routed runs back to back
      (GC paused, order alternating) and the gated overhead is the
      **median** of the per-pair ratios.  The minimum looked appealing
      (least-interfered pair) but is sign-unstable: jitter landing on
      the bare side of a single pair produces a *negative* "overhead"
      that the committed report then enshrines as the floor — exactly
      what happened to the seed report (-2.4% min vs +6.9% median).
      The median moves only if most pairs move, which is what a real
      bookkeeping regression does; the min is kept in the JSON for
      reporting.
    * ``latency_class_p99`` — p99 latency of the latency-critical SLA
      class on a 4-shard cluster under predictive vs round-robin
      placement.  Predictive must win; in the model environment both
      runs are fully deterministic, so the comparison is exact.
    """
    from repro.cluster import ClusterRouter
    from repro.metrics import percentile
    from repro.server import AnalyticsServer
    from repro.workloads import sla_of, tenant_of

    workload = _cluster_workload()
    passes = 3  # amortize timer noise: one sample times several runs

    def run_bare():
        server = AnalyticsServer(
            scheduler="stride", n_workers=2, seed=7, environment="model"
        )
        start = time.perf_counter()
        for _ in range(passes):
            for at, query in workload:
                server.submit_spec(
                    query, at=at, tenant=tenant_of(query), sla=sla_of(query)
                )
            server.drain()
        return time.perf_counter() - start

    def run_routed():
        router = ClusterRouter(
            n_shards=1,
            scheduler="stride",
            n_workers=2,
            seed=7,
            environment="model",
        )
        start = time.perf_counter()
        for _ in range(passes):
            router.submit_workload(workload)
            router.drain()
        return time.perf_counter() - start

    import gc

    best_bare = float("inf")
    best_routed = float("inf")
    ratios = []
    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection landing inside one sample skews its pair
    try:
        for repeat in range(repeats):
            gc.collect()
            # Alternate which run goes first so periodic host jitter
            # cannot systematically land on one side of every pair.
            if repeat % 2 == 0:
                bare = run_bare()
                routed = run_routed()
            else:
                routed = run_routed()
                bare = run_bare()
            best_bare = min(best_bare, bare)
            best_routed = min(best_routed, routed)
            ratios.append(routed / bare)
    finally:
        if gc_was_enabled:
            gc.enable()

    def p99_latency(placement):
        router = ClusterRouter(
            n_shards=4,
            scheduler="stride",
            n_workers=2,
            seed=7,
            environment="model",
            placement=placement,
        )
        handles = router.submit_workload(workload)
        router.drain()
        latencies = [
            router.latency(handle)
            for handle in handles
            if router.tickets.sla_of(int(handle)) == "latency"
        ]
        return percentile(latencies, 99.0)

    return {
        "repeats": repeats,
        "queries": len(workload),
        "bare_seconds": best_bare,
        "routed_seconds": best_routed,
        "routing_overhead_fraction": statistics.median(ratios) - 1.0,
        "routing_overhead_min": min(ratios) - 1.0,
        "latency_class_p99": {
            "predictive": p99_latency("predictive"),
            "round_robin": p99_latency("round-robin"),
        },
    }


def measure_work_sharing(scale_factor: float = 0.02) -> dict:
    """Throughput of a high-overlap scenario with work sharing on vs off.

    Twelve concurrent engine queries — four submissions each of Q1, Q6
    and Q14, all scanning lineitem — run on the simulated backend with
    ``sharing=False`` and ``sharing=True`` against the same database.
    Specs are pinned to fixed-size morsels so both runs produce exactly
    the same chunks: adaptive sizing feeds measured wall time into the
    morsel boundaries, which perturbs numpy's pairwise summation at the
    last ulp and would make a bit-identity gate flaky for reasons that
    have nothing to do with sharing.

    Both gated quantities are *virtual-time* measurements and therefore
    deterministic — no repeats, no noise statistics:

    * ``speedup`` — makespan off / makespan on.  Sharing folds the
      twelve submissions into three executions, so the gate demands at
      least 1.5x.
    * ``results_identical`` — per-query results must be bit-identical
      between the two modes (members replay the leader's chunks; the
      fold's extra stride share arrives as scheduling passes, never as
      different morsel boundaries).
    """
    from repro.engine import generate_tpch
    from repro.server import AnalyticsServer

    names = ("Q1", "Q6", "Q14") * 4
    db = generate_tpch(scale_factor=scale_factor, seed=7)

    def fixed_spec(server, name):
        spec = server.query_spec(name)
        return replace(
            spec,
            pipelines=tuple(
                replace(p, supports_adaptive=False) for p in spec.pipelines
            ),
        )

    def run(sharing: bool):
        server = AnalyticsServer(
            scale_factor=scale_factor,
            scheduler="stride",
            n_workers=4,
            seed=7,
            database=db,
            sharing=sharing,
        )
        tickets = [server.submit_spec(fixed_spec(server, n)) for n in names]
        records = server.run()
        makespan = max(r.completion_time for r in records)
        results = [repr(server.result(t)) for t in tickets]
        return makespan, results, server.sharing_stats.as_dict()

    makespan_off, results_off, _ = run(sharing=False)
    makespan_on, results_on, stats = run(sharing=True)
    return {
        "queries": len(names),
        "scale_factor": scale_factor,
        "makespan_off_virtual_seconds": makespan_off,
        "makespan_on_virtual_seconds": makespan_on,
        "speedup": makespan_off / makespan_on,
        "results_identical": results_off == results_on,
        "sharing_stats": stats,
    }


def measure_tuning_overhead() -> dict:
    """Cost-bounded knob search vs the exhaustive full-replay search.

    Runs the whole-knob-space tuner twice over the same bursty tracked
    workload: once unbudgeted and uncompressed (the reference — every
    candidate replayed against the full workload) and once with a step
    budget of 60% of whatever the reference spent.  All quantities are
    simulated-step counts and replay costs, so the comparison is fully
    deterministic — no repeats, no noise statistics.

    Three gated claims: the budgeted search stays within its budget, it
    still probes a wide slice of the space (>= 5 distinct knobs), and
    the vector it lands on is within 5% of the reference's replay cost.
    """
    import random

    from repro.tuning import (
        SIM_STEP_COST,
        TrackedQuery,
        default_knob_space,
        search_knob_space,
    )

    rng = random.Random(11)
    tracked = []
    for i in range(36):
        burst = (i // 6) * 0.4
        arrival = burst + rng.uniform(0.0, 0.05)
        work = rng.uniform(0.004, 0.03)
        if i % 7 == 0:
            work *= 12.0  # long-tail queries the decay knobs act on
        tracked.append(
            TrackedQuery(
                group_id=i,
                name=f"q{i}",
                scale_factor=1.0,
                arrival_offset=arrival,
                work=work,
            )
        )

    start = time.perf_counter()
    reference = search_knob_space(
        default_knob_space(), tracked, budget_seconds=None, compress_to=None
    )
    reference_wall = time.perf_counter() - start

    budget_seconds = 0.6 * reference.simulated_steps * SIM_STEP_COST
    start = time.perf_counter()
    budgeted = search_knob_space(
        default_knob_space(), tracked, budget_seconds=budget_seconds
    )
    budgeted_wall = time.perf_counter() - start

    return {
        "tracked_queries": len(tracked),
        "reference": {
            "cost": reference.cost,
            "evaluations": reference.evaluations,
            "simulated_steps": reference.simulated_steps,
            "wall_seconds": reference_wall,
        },
        "budgeted": {
            "cost": budgeted.cost,
            "evaluations": budgeted.evaluations,
            "verified": budgeted.verified,
            "simulated_steps": budgeted.simulated_steps,
            "budget_steps": budgeted.budget_steps,
            "within_budget": budgeted.within_budget,
            "knobs_evaluated": budgeted.knobs_evaluated,
            "fidelity": budgeted.fidelity,
            "compressed_queries": budgeted.compressed_queries,
            "wall_seconds": budgeted_wall,
        },
        "budget_fraction": 0.6,
        "step_ratio": budgeted.simulated_steps / reference.simulated_steps,
        "cost_ratio": budgeted.cost / reference.cost,
    }


def build_report(smoke: bool = False) -> dict:
    current = measure_decision_throughput(repeats=5)
    report = {
        "scenario": "stride, tpch_mix(Q1,Q3,Q6,Q18), rate=15/s, 2s, 8 workers",
        "baseline_seed_revision": dict(
            SEED_BASELINE,
            tasks_per_second=SEED_BASELINE["tasks_executed"]
            / SEED_BASELINE["wall_seconds"],
            events_per_second=SEED_BASELINE["events_processed"]
            / SEED_BASELINE["wall_seconds"],
        ),
        "current": current,
        "speedup_vs_seed": SEED_BASELINE["wall_seconds"] / current["wall_seconds"],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "streaming": measure_streaming_latency(repeats=2 if smoke else 3),
        "fault_free_overhead": measure_fault_free_overhead(
            repeats=3 if smoke else 5
        ),
        "cluster_routing": measure_routing(repeats=3 if smoke else 7),
        "work_sharing": measure_work_sharing(),
        "tuning_overhead": measure_tuning_overhead(),
    }
    if not smoke:
        report["base_latency_cache"] = measure_base_latency_cache()
        report["figure7_cells_sequential"] = measure_figure_cells(jobs=1)
        report["figure7_cells_parallel"] = measure_figure_cells(jobs=4)
        report["sweep_scaling"] = measure_sweep_scaling()
    return report


def check_against(report: dict, committed: dict, tolerance: float) -> int:
    """Fail (return 1) if throughput regressed beyond ``tolerance``.

    Compares the current host-adjusted throughput
    (``adjusted_tasks_per_second``, in reference-host tasks/s) against
    the committed report's measurement of the same scenario, so the
    ratio reflects the code rather than the host's speed at the time.
    """
    reference = committed["current"]["adjusted_tasks_per_second"]
    measured = report["current"]["adjusted_tasks_per_second"]
    ratio = measured / reference
    floor = 1.0 - tolerance
    verdict = "OK" if ratio >= floor else "REGRESSION"
    print(
        f"throughput check: {measured:,.0f} host-adjusted tasks/s vs committed "
        f"{reference:,.0f} (ratio {ratio:.2f}, floor {floor:.2f}) "
        f"-> {verdict}"
    )
    failed = ratio < floor
    # Streaming gate: once the committed report records the streaming
    # path, the first batch of a large scan must keep arriving well
    # before the last one.  The fraction is a same-machine ratio, so a
    # fixed ceiling is meaningful where absolute wall times are not.
    if "streaming" in committed and "streaming" in report:
        fraction = report["streaming"]["first_batch_fraction"]
        ceiling = 0.5
        stream_verdict = "OK" if fraction <= ceiling else "REGRESSION"
        print(
            f"streaming check: first batch at {fraction:.2f} of "
            f"time-to-last-batch (ceiling {ceiling:.2f}) -> {stream_verdict}"
        )
        failed = failed or fraction > ceiling
    # Fault-tolerance gate: arming the isolation/deadline hooks on every
    # query must stay cheap vs the plain run.  A same-machine,
    # same-process *median-of-pairs* ratio — the ceiling is wider than
    # the old best-of-N gate's 2% because the median includes typical
    # jitter instead of the single least-interfered sample.
    if "fault_free_overhead" in report:
        overhead = report["fault_free_overhead"]["overhead_fraction"]
        overhead_ceiling = 0.05
        fault_verdict = "OK" if overhead <= overhead_ceiling else "REGRESSION"
        print(
            f"fault-free overhead check: armed deadlines cost "
            f"{overhead:+.2%} vs plain (ceiling {overhead_ceiling:.0%}) "
            f"-> {fault_verdict}"
        )
        failed = failed or overhead > overhead_ceiling
    # Cluster-routing gates: the router's per-submit bookkeeping
    # (placement, registry, quotas) must stay cheap vs submitting to the
    # bare shard, and predictive placement must beat round-robin on the
    # latency class's p99 — both deterministic model-mode runs.  The
    # overhead gate uses the median-of-pairs ratio (the minimum was
    # sign-unstable under jitter), so its ceiling is wider than the old
    # best-pair 5%.
    if "cluster_routing" in report:
        routing = report["cluster_routing"]
        overhead = routing["routing_overhead_fraction"]
        routing_ceiling = 0.12
        routing_verdict = "OK" if overhead <= routing_ceiling else "REGRESSION"
        print(
            f"routing overhead check: one-shard router costs "
            f"{overhead:+.2%} vs bare shard (ceiling {routing_ceiling:.0%}) "
            f"-> {routing_verdict}"
        )
        failed = failed or overhead > routing_ceiling
        p99 = routing["latency_class_p99"]
        placement_verdict = (
            "OK" if p99["predictive"] < p99["round_robin"] else "REGRESSION"
        )
        print(
            f"placement check: latency-class p99 "
            f"{p99['predictive'] * 1000.0:.1f} ms predictive vs "
            f"{p99['round_robin'] * 1000.0:.1f} ms round-robin "
            f"-> {placement_verdict}"
        )
        failed = failed or p99["predictive"] >= p99["round_robin"]
    # Work-sharing gates: folding eight-plus concurrent scans over the
    # same tables must cut the virtual-time makespan by at least 1.5x,
    # and per-query results must be bit-identical with sharing on or
    # off.  Both quantities are deterministic (fixed morsels, simulated
    # clock), so no repeat statistics are needed.
    if "work_sharing" in report:
        sharing = report["work_sharing"]
        speedup = sharing["speedup"]
        speedup_floor = 1.5
        identical = sharing["results_identical"]
        sharing_verdict = (
            "OK" if speedup >= speedup_floor and identical else "REGRESSION"
        )
        print(
            f"work-sharing check: sharing-on makespan speedup "
            f"{speedup:.2f}x (floor {speedup_floor:.1f}x), results "
            f"identical={identical} -> {sharing_verdict}"
        )
        failed = failed or speedup < speedup_floor or not identical
    # Tuning gates: the cost-bounded knob search must honour its step
    # budget, still probe a wide slice of the knob space, and land
    # within 5% of the exhaustive full-replay search's cost.  All three
    # quantities are simulated-step/replay-cost measurements and
    # therefore deterministic.
    if "tuning_overhead" in report:
        tuning = report["tuning_overhead"]
        budgeted = tuning["budgeted"]
        cost_ratio = tuning["cost_ratio"]
        cost_ceiling = 1.05
        knobs_floor = 5
        tuning_ok = (
            budgeted["within_budget"]
            and budgeted["knobs_evaluated"] >= knobs_floor
            and cost_ratio <= cost_ceiling
        )
        tuning_verdict = "OK" if tuning_ok else "REGRESSION"
        print(
            f"tuning check: budgeted search used "
            f"{budgeted['simulated_steps']:,} of "
            f"{budgeted['budget_steps']:,} steps "
            f"(within_budget={budgeted['within_budget']}), probed "
            f"{budgeted['knobs_evaluated']} knobs (floor {knobs_floor}), "
            f"cost ratio {cost_ratio:.3f} vs full replay "
            f"(ceiling {cost_ceiling:.2f}) -> {tuning_verdict}"
        )
        failed = failed or not tuning_ok
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast run for CI: decision throughput only, 2 repeats",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_simcore.json"),
        help="output JSON path (default: repo-root BENCH_simcore.json)",
    )
    parser.add_argument(
        "--check-against",
        metavar="JSON",
        default=None,
        help=(
            "compare adjusted_tasks_per_second against a committed report and "
            "exit 1 on a regression beyond --tolerance"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative throughput drop for --check-against",
    )
    args = parser.parse_args(argv)
    # Read the committed report up front: the output path may be the
    # same file, and the comparison must use the pre-run contents.
    committed = None
    if args.check_against is not None:
        committed = json.loads(Path(args.check_against).read_text())
    report = build_report(smoke=args.smoke)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    current = report["current"]
    print(
        f"decision throughput: {current['tasks_per_second']:,.0f} tasks/s, "
        f"{current['events_per_second']:,.0f} events/s "
        f"({current['wall_seconds']:.4f} s wall; "
        f"{current['adjusted_tasks_per_second']:,.0f} host-adjusted tasks/s at "
        f"host speed {current['host_speed']:.2f}; "
        f"{report['speedup_vs_seed']:.2f}x vs seed baseline)"
    )
    if "sweep_scaling" in report:
        for row in report["sweep_scaling"]["runs"]:
            print(
                f"sweep scaling: jobs={row['jobs']} "
                f"cold {row['cold_seconds']:.2f}s warm {row['warm_seconds']:.2f}s "
                f"({row['warm_speedup_vs_sequential']:.2f}x vs sequential)"
            )
    print(f"report written to {args.output}")
    if committed is not None:
        return check_against(report, committed, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
