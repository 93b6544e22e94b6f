"""Tests of the benchmark itself: determinism digest, output checks, tracer
reach and the run's output contract.

    python3 -m pytest perfbench/tests -q

Anything that can reach the n=7 two-copy register runs in a child process
under the worker's address-space ceiling, never in the test process.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import opvec.cli as cli  # noqa: E402
from checks import check  # noqa: E402
from tracer import TARGETS, Tracer, metric_names  # noqa: E402
from worker import run_batch  # noqa: E402
from workloads import TASKS, WORKLOADS, batch  # noqa: E402

# The first 40 experiments of families_n5 cover all ten tasks with and
# without the oracle.
PREFIX = 40


def digest_of(seed: int, work: Path) -> str:
    work.mkdir()
    digest = hashlib.sha256()
    recs = run_batch(cli, batch("families_n5", seed)[:PREFIX], work, digest)
    assert [r["failure"] for r in recs] == [None] * PREFIX
    return digest.hexdigest()


def test_prefix_covers_every_task_both_ways():
    exps = batch("families_n5", 0)[:PREFIX]
    assert {(e.task, e.oracle) for e in exps} == {(t, o) for t in TASKS for o in (False, True)}


def test_same_seed_same_digest_other_seed_differs(tmp_path):
    first = digest_of(5, tmp_path / "a")
    assert digest_of(5, tmp_path / "b") == first
    assert digest_of(6, tmp_path / "c") != first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_batches_are_pure_functions_of_the_seed(workload):
    assert batch(workload, 3) == batch(workload, 3)
    assert batch(workload, 3) != batch(workload, 4)


def run_one(exp, out_root: Path) -> Path:
    out_root.mkdir()
    config = out_root / "config.json"
    config.write_text(json.dumps(exp.config))
    out = out_root / "out"
    argv = [exp.task, "--config", str(config), "--out", str(out)]
    assert cli.main(argv + (["--with-oracle"] if exp.oracle else [])) == 0
    return out


def first(task: str, oracle: bool):
    return next(e for e in batch("families_n5", 1) if e.task == task and e.oracle == oracle)


def test_check_rejects_out_of_range_value(tmp_path):
    exp = first("otoc", False)
    out = run_one(exp, tmp_path / "x")
    assert check(exp.task, exp.config, exp.oracle, out) is None
    doc = json.loads((out / "report.json").read_text())
    doc["reports"][0]["value"] = 1.5
    (out / "report.json").write_text(json.dumps(doc))
    assert "outside" in check(exp.task, exp.config, exp.oracle, out)


def test_check_rejects_oracle_delta_beyond_tolerance(tmp_path):
    exp = first("loe", True)
    out = run_one(exp, tmp_path / "x")
    assert check(exp.task, exp.config, exp.oracle, out) is None
    doc = json.loads((out / "report.json").read_text())
    doc["oracle"]["abs_delta"] = 1.0
    (out / "report.json").write_text(json.dumps(doc))
    assert "standard errors" in check(exp.task, exp.config, exp.oracle, out)


def test_check_bounds_unanimous_shots_by_the_exact_value(tmp_path):
    # Pair IIIZI: one operator term of weight 0.0012 commutes with it, so the
    # exact value is -0.9977, and 4096 shots all read -1 with probability
    # 0.9%. A correct result, though the report's stderr is 0.
    exp = batch("families_n5", 1253271800)[112]
    out = run_one(exp, tmp_path / "x")
    doc = json.loads((out / "report.json").read_text())
    [rep] = [r for r in doc["reports"] if r["left"] == "IIIZI"]
    assert rep["stderr"] == 0 and rep["oracle"]["abs_delta"] > 0
    assert check(exp.task, exp.config, exp.oracle, out) is None
    # The same unanimous shots against an exact value of -0.95 are wrong.
    rep["oracle"] = {"value": -0.95, "abs_delta": 0.05}
    (out / "report.json").write_text(json.dumps(doc))
    assert "standard errors" in check(exp.task, exp.config, exp.oracle, out)


def test_check_rejects_damaged_artifacts(tmp_path):
    exp = first("evolve", False)
    out = run_one(exp, tmp_path / "x")
    raw = (out / "state.bin").read_bytes()
    (out / "state.bin").write_bytes(raw[:-8])
    assert "state.bin" in check(exp.task, exp.config, exp.oracle, out)
    (out / "state.bin").unlink()
    assert check(exp.task, exp.config, exp.oracle, out) == "state.bin: missing"


def test_failed_check_counts_as_failed_experiment(tmp_path, monkeypatch):
    import checks

    monkeypatch.setattr(checks, "TV_MAX", 0.0)
    exp = first("sample", True)
    [rec] = run_batch(cli, [exp], tmp_path)
    assert rec["failure"].startswith("check: oracle tv_distance")


def test_tracer_replaces_from_import_bindings_and_restores_them():
    import opvec.estimators
    import opvec.simulator

    original = opvec.simulator.born_sample
    tracer = Tracer()
    tracer.install()
    try:
        bound = set(tracer.bindings())
        assert {"opvec.simulator.born_sample", "opvec.estimators.born_sample",
                "opvec.cli.apply_circuit", "opvec.superop.gate_matrix",
                "opvec.vectorize", "opvec.cli.vectorize"} <= bound
        assert opvec.estimators.born_sample is not original
    finally:
        tracer.uninstall()
    assert opvec.estimators.born_sample is original
    assert opvec.simulator.born_sample is original


def bench(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the benchmark from a copy of the checkout holding only src/ and
    the benchmark, as the benchmark is meant to be run."""
    checkout = tmp_path / "checkout"
    if not checkout.exists():
        shutil.copytree(ROOT / "src", checkout / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(BENCH, checkout / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reaches_every_listed_function(tmp_path, workload):
    proc = bench(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc["metrics"]) == set(metric_names())
    missing = [t.key for t in TARGETS if t.workload == workload
               and doc["metrics"][f"{t.key}.calls"]["value"] < 1]
    assert missing == []
    if workload == "cap_n7_oracle":
        # loe at n=7 asks for a 4.3 GB register: a MemoryError under the
        # ceiling, one failure per pass (untraced and traced), never a kill.
        assert doc["failed"] == 2
        assert '"loe: MemoryError": 2' in proc.stdout
        assert doc["metrics"]["estimators.estimate_loe2.register_bytes"]["value"] == 16 * 4**14
    else:
        assert doc["failed"] == 0
    assert doc["correct"] is True


def test_end_to_end_output_contract(tmp_path):
    proc = bench(tmp_path, "--workload", "families_n5", "--seed", "2", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] == 300
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert any(line.startswith("  experiment_s.p95 ") for line in lines)
    assert not any("REPEATS DIFFER" in line for line in lines)


def test_benchmark_json_lists_every_traced_metric():
    from run import unit_of

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families_n5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
