"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  They
use tiny sizes (``tiny=True``: SF 0.002, short epochs, one round), so
they check wiring and correctness, not speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from repro.engine import queries  # noqa: E402
from repro.engine.datagen import generate_tpch  # noqa: E402

#: Layers each workload must show activity in when traced.
EXERCISED = {
    "engine_olap": ("engine.morsels", "engine.rows", "engine.busy_s",
                    "engine.finalize_s", "engine.plan_s", "engine.datagen_s",
                    "core.decisions", "simcore.events", "runtime.submit_self_s",
                    "runtime.admit_s", "runtime.chunks", "runtime.fetch_s"),
    "model_paper_mix": ("core.decisions", "core.decide_self_s", "core.finish_s",
                        "core.exec_self_s", "simcore.events", "simcore.loop_self_s",
                        "runtime.fetch_s",
                        "tuning.evaluations", "tuning.simulated_steps",
                        "tuning.replay_s", "tuning.us_per_step", "tuning.cycle_ms",
                        "sched.slowdown_mean", "sched.virtual_p50_ms",
                        "sched.virtual_p95_ms"),
    "cluster_dashboard": ("sharing.served_ratio", "sharing.executions",
                          "sharing.fingerprint_s", "cluster.place_s",
                          "cluster.route_self_s", "runtime.assemble_s",
                          "engine.plan_s"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(name):
    result = bench.run(name, seed=3, seconds=0.01, trace=False, tiny=True)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    assert {key: value["unit"] for key, value in metrics.items()} == bench.END_TO_END
    assert all(value["value"] > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced(name):
    result = bench.run(name, seed=3, seconds=0.01, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {key: value["unit"] for key, value in metrics.items()} == bench.PER_LAYER
    for key in EXERCISED[name]:
        assert metrics[key]["value"] > 0, key
    assert metrics["trace.qps_ratio"]["value"] > 0
    trace_file = os.path.join(ROOT, ".bench_trace", f"{name}-seed3.trace.json")
    with open(trace_file) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and {"name", "ts", "dur", "args"} <= set(events[0])


def test_perturbed_engine_result_fails_the_oracle(monkeypatch, capsys):
    """Negative control: one wrong Q6 value per round must be caught."""
    build_q6 = queries._BUILDERS["Q6"]

    def perturbed_q6(db):
        plan = build_q6(db)
        exact = plan._result_fn
        plan._result_fn = lambda: exact() * (1.0 + 1e-6)
        return plan

    monkeypatch.setitem(queries._BUILDERS, "Q6", perturbed_q6)
    result = bench.run("engine_olap", seed=3, seconds=0.01, trace=False, tiny=True)
    # Tiny engine_olap rounds run each of the eleven shapes once.
    assert result["failed"] == result["attempted"] // len(queries.ENGINE_QUERIES) > 0
    assert result["correct"]  # only the failed operations were wrong
    assert "FAILED engine_olap seed=3 Q6:" in capsys.readouterr().err


def test_oracle_rejects_a_changed_streamed_row():
    db = generate_tpch(0.002, seed=4)
    expected = oracle.expected_results(db, ["QS"])["QS"]
    batch = {name: column.copy() for name, column in expected.items()}
    assert oracle.mismatch("QS", [batch], expected, db) is None
    batch["l_extendedprice"][-1] += 0.01
    assert "l_extendedprice" in oracle.mismatch("QS", [batch], expected, db)


def test_oracle_matches_every_plan_run_directly():
    db = generate_tpch(0.002, seed=4)
    expected = oracle.expected_results(db, queries.ENGINE_QUERIES)
    for name in queries.ENGINE_QUERIES:
        value = queries.build_engine_query(name, db).execute(1024)
        assert oracle.mismatch(name, [value], expected[name], db) is None, name


def _virtual_metrics(hash_seed: str) -> dict:
    script = (
        "import sys; sys.path[:0] = [%r, %r]; import run; "
        "run.run('model_paper_mix', 5, 0.01, False, tiny=True)" % (SRC, HERE)
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    return json.loads(done.stderr.strip().splitlines()[-1])["virtual"]


def test_model_virtual_metrics_ignore_the_hash_seed():
    first, second = _virtual_metrics("0"), _virtual_metrics("1")
    assert first == second
    assert first["samples"] > 0


def test_declared_metrics_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine_olap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
