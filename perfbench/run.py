"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine_olap --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes the spans as Chrome
trace-event JSON plus a summary to ``.bench_trace/``.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Progress and failure details
go to standard error.  See ``perfbench/README.md`` for the workloads,
the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up passes per run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds :func:`host_kernel` takes on the reference host (the median of
#: quiet samples on the 2-CPU machine of the README's figures).
KERNEL_REFERENCE_S = 0.035

END_TO_END = {
    "qps": "queries/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.morsels": "count",
    "engine.rows": "count",
    "engine.busy_s": "s",
    "engine.ns_per_row": "ns",
    "engine.finalize_s": "s",
    "engine.plan_s": "s",
    "engine.datagen_s": "s",
    "core.decisions": "count",
    "core.decide_self_s": "s",
    "core.finish_s": "s",
    "core.exec_self_s": "s",
    "core.us_per_decision": "us",
    "simcore.events": "count",
    "simcore.loop_self_s": "s",
    "runtime.submit_self_s": "s",
    "runtime.admit_s": "s",
    "runtime.drain_self_s": "s",
    "runtime.chunks": "count",
    "runtime.assemble_s": "s",
    "runtime.fetch_s": "s",
    "sharing.served_ratio": "ratio",
    "sharing.executions": "count",
    "sharing.fingerprint_s": "s",
    "cluster.place_s": "s",
    "cluster.route_self_s": "s",
    "tuning.evaluations": "count",
    "tuning.simulated_steps": "count",
    "tuning.replay_s": "s",
    "tuning.compress_s": "s",
    "tuning.us_per_step": "us",
    "tuning.cycle_ms": "ms",
    "sched.slowdown_mean": "ratio",
    "sched.virtual_p50_ms": "ms",
    "sched.virtual_p95_ms": "ms",
    "trace.qps_ratio": "ratio",
}


def host_kernel() -> float:
    """Time a fixed interpreter-plus-numpy kernel: the host-speed probe.

    The host's speed drifts by tens of percent over minutes while other
    tenants come and go, and no run length averages that out.  Every
    timed phase is bracketed by this kernel, and its wall seconds are
    scaled by ``KERNEL_REFERENCE_S / kernel seconds`` (see README).
    """
    import numpy as np

    start = time.perf_counter()
    counts = {}
    for i in range(100_000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
    values = np.random.default_rng(0).random(200_000)
    np.unique((values * 1000.0).astype(np.int64), return_inverse=True)
    np.sort(values)
    return time.perf_counter() - start


def _timed(body):
    """Run ``body``; return its result and the host speed around it."""
    before = host_kernel()
    result = body()
    after = host_kernel()
    return result, KERNEL_REFERENCE_S / (0.5 * (before + after))


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, setup_tracer, rounds, setups, workload, qps_ratio) -> dict:
    """Per-layer values, averaged per traced round (see README)."""
    n = len(rounds)
    t = tracer
    rows = t.counters.get("engine.rows", 0.0)
    busy = t.total("engine.run_morsel")
    decisions = t.calls("core.decide")
    steps = t.counters.get("tuning.simulated_steps", 0.0)
    submitted = sum(r.queries for r in rounds)
    served = sum(r.served for r in rounds)
    values = {
        "engine.morsels": t.calls("engine.run_morsel") / n,
        "engine.rows": rows / n,
        "engine.busy_s": busy / n,
        "engine.ns_per_row": _ratio(busy, rows) * 1e9,
        "engine.finalize_s": (
            t.self_time("engine.finalize") + t.self_time("engine.finish_query")
        ) / n,
        "engine.plan_s": t.total("engine.plan") / n,
        "engine.datagen_s": setup_tracer.total("engine.datagen") / setups,
        "core.decisions": decisions / n,
        "core.decide_self_s": t.self_time("core.decide") / n,
        "core.finish_s": t.total("core.finish") / n,
        "core.exec_self_s": t.self_time("core.run_task") / n,
        "core.us_per_decision": _ratio(t.self_time("core.decide"), decisions) * 1e6,
        "simcore.events": t.counters.get("simcore.events", 0.0) / n,
        "simcore.loop_self_s": t.self_time("simcore.run") / n,
        "runtime.submit_self_s": t.self_time("runtime.submit") / n,
        "runtime.admit_s": t.total("runtime.admit") / n,
        "runtime.drain_self_s": t.self_time("runtime.drain") / n,
        "runtime.chunks": t.calls("runtime.put") / n,
        "runtime.assemble_s": t.total("runtime.assemble") / n,
        "runtime.fetch_s": t.total("runtime.fetch") / n,
        "sharing.served_ratio": _ratio(served, submitted),
        "sharing.executions": (submitted - served) / n if workload.sharing else 0.0,
        "sharing.fingerprint_s": t.total("sharing.fingerprint") / n,
        "cluster.place_s": t.total("cluster.place") / n,
        "cluster.route_self_s": t.self_time("cluster.route") / n,
        "tuning.evaluations": t.counters.get("tuning.evaluations", 0.0) / n,
        "tuning.simulated_steps": steps / n,
        "tuning.replay_s": t.total("tuning.replay") / n,
        "tuning.compress_s": t.total("tuning.compress") / n,
        "tuning.us_per_step": _ratio(t.total("tuning.search"), steps) * 1e6,
        "tuning.cycle_ms": _ratio(t.total("tuning.tune"), t.calls("tuning.tune")) * 1e3,
        "sched.slowdown_mean": 0.0,
        "sched.virtual_p50_ms": 0.0,
        "sched.virtual_p95_ms": 0.0,
        "trace.qps_ratio": qps_ratio,
    }
    if hasattr(workload, "virtual_metrics"):
        virtual = workload.virtual_metrics()
        for key in ("slowdown_mean", "virtual_p50_ms", "virtual_p95_ms"):
            values[f"sched.{key}"] = virtual[key]
    return values


def _qps(rounds) -> float:
    """Queries per host-adjusted second over whole rounds."""
    return sum(r.queries for r in rounds) / sum(r.seconds * r.speed for r in rounds)


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one benchmark and return the result object."""
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, tiny=tiny)
    setup_tracer = Tracer()
    if trace:
        setup_tracer.install()
    setup_times, setup_speeds = [], []

    def one_setup() -> float:
        start = time.perf_counter()
        workload.setup()
        return time.perf_counter() - start

    try:
        for _ in range(SETUPS):
            gc.collect()
            elapsed, speed = _timed(one_setup)
            setup_times.append(elapsed)
            setup_speeds.append(speed)
    finally:
        setup_tracer.uninstall()
    workload.prepare_oracle()
    gc.collect()

    tracer = Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    index = 0
    while True:
        use_trace = trace and index % 2 == 1
        if use_trace:
            tracer.install()
        try:
            result, speed = _timed(
                lambda: workload.run_round(tracer if use_trace else None)
            )
            result.speed = speed
        finally:
            tracer.uninstall()
        (traced if use_trace else plain).append(result)
        index += 1
        gc.collect()
        if time.perf_counter() - started >= seconds and (not trace or traced):
            break
    rounds = plain + traced
    failures = [line for r in rounds for line in r.failures]
    violations = [line for r in rounds for line in r.violations]
    for line in failures + violations:
        _log(f"FAILED {line}")
    info = {
        "workload": workload_name,
        "seed": seed,
        "rounds": len(rounds),
        "queries_per_round": rounds[0].queries,
        "round_qps": [round(r.queries / r.seconds, 3) for r in rounds],
        "setup_seconds": [round(s, 4) for s in setup_times],
        "host_speed": [round(r.speed, 3) for r in rounds],
        "raw_qps": sum(r.queries for r in plain) / sum(r.seconds for r in plain),
    }
    if hasattr(workload, "virtual_metrics"):
        info["virtual"] = workload.virtual_metrics()
        info["tune_ms_per_round"] = [
            round(1e3 * statistics.mean(r.tune_seconds), 2) for r in rounds
        ]
    if trace:
        metrics = layer_metrics(
            tracer, setup_tracer, traced, SETUPS, workload,
            _qps(traced) / _qps(plain),
        )
        units = PER_LAYER
        out_dir = os.path.join(ROOT, ".bench_trace")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{workload_name}-seed{seed}")
        tracer.write_chrome(stem + ".trace.json")
        with open(stem + ".summary.json", "w") as handle:
            json.dump({"info": info, "layers": metrics, "spans": tracer.stats,
                       "counters": tracer.counters}, handle, indent=1, sort_keys=True)
        info["trace_files"] = [stem + ".trace.json", stem + ".summary.json"]
    else:
        metrics = {
            "qps": _qps(plain),
            "setup_s": statistics.median(
                t * speed for t, speed in zip(setup_times, setup_speeds)
            ),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    _log(json.dumps(info))
    return {
        "correct": not violations,
        "attempted": sum(r.queries for r in rounds),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _log(f"no repro package under {SRC}: run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    if args.seconds <= 0:
        _log("--seconds must be positive")
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
