"""opvec benchmark: seeded batches of CLI experiments, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/opvec``).
The workload runs in a child process (``worker.py``) under an address-space
ceiling, one experiment at a time through ``opvec.cli.main``. Set-up time is
measured separately in fresh interpreters. Every experiment's artifacts are
checked, and every repeat of the batch must give the same sha256 digest.
Times are scaled to a reference speed (``speed.py``); the measured values
are printed next to them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced batch. The
lines before it print the same numbers by name with unit and sample count,
plus the failures by kind, the digest and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# One client, one BLAS thread: a second OpenBLAS thread spins on the other
# core, doubles CPU use and, on a 2-CPU machine, widened the batch-time spread
# of doubled_n7 from 9.44-9.48 s to 8.8-11.2 s. BLAS thread count also
# changes the low bits of gate application, so digests compare only at
# equal settings. Set before NumPy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from speed import REF_NOMINAL_S, at_reference_speed, reference_seconds  # noqa: E402
from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS, warmup  # noqa: E402

# Fresh starts before and after the workload, so set-up samples two
# points of the run rather than one.
SETUP_STARTS = 4
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20
# A percentile is printed only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def machine_facts() -> dict:
    import numpy

    def cache_bytes(name: str):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=5).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return None
        return int(out) if out.isdigit() else None

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": threads(),
        "l1d_bytes": cache_bytes("LEVEL1_DCACHE_SIZE"),
        "l2_bytes": cache_bytes("LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache_bytes("LEVEL3_CACHE_SIZE"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def measure_setup(src: Path, work: Path, tag: str) -> list[dict]:
    """Fresh ``python3 -m opvec.cli`` starts that each import opvec and
    finish the warm-up experiment: ``seconds`` at reference speed, scaled by
    three kernel runs just before the start, and ``raw_seconds`` as measured."""
    exp = warmup()
    config = work / "warmup.json"
    config.write_text(json.dumps(exp.config))
    env = child_env(src)
    times = []
    for i in range(SETUP_STARTS):
        out = work / f"warmup-{tag}{i}"
        kernel = [reference_seconds() for _ in range(3)]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "opvec.cli", exp.task, "--config", str(config),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        seconds = time.perf_counter() - start
        times.append({"seconds": at_reference_speed(seconds, kernel), "raw_seconds": seconds})
        if proc.returncode != 0 or not (out / "report.json").is_file():
            raise RuntimeError(f"warm-up experiment failed ({proc.returncode}): {proc.stderr}")
        shutil.rmtree(out)
    return times


def run_worker(src: Path, work: Path, args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src), "--work", str(work),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(work / "worker.log", "w") as log:
        proc = subprocess.Popen(cmd, env=child_env(src), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if code != 0:
        raise RuntimeError(f"worker exited {code}: {(work / 'worker.log').read_text()[-2000:]}")
    return json.loads((work / "result.json").read_text())


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; failed experiments enter as +inf,
    so they count as missing any latency limit."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(result: dict, setup: list[dict], key: str = "seconds") -> dict:
    """Metric -> (value, unit, sample count), in seconds at reference speed
    (``speed.py``), or as measured with ``key="raw_seconds"``. Experiment
    times are each experiment's median over the run's repeats; throughput
    divides the passed experiments by the sum of those times, the closed
    loop's busy time."""
    recs = result["records"]
    passed = sum(r["failure"] is None for r in recs)
    latencies = [r[key] if r["failure"] is None else math.inf for r in recs]
    p50 = percentile(latencies, 0.5)
    busy = sum(r[key] for r in recs)
    return {
        "setup_s": (statistics.median(s[key] for s in setup), "s", len(setup)),
        "experiments_per_s": (passed / busy, "1/s", len(recs)),
        # An infinite median (most experiments failed) reads as all the busy time.
        "experiment_s.p50": (p50 if math.isfinite(p50) else busy, "s", len(recs)),
        "passed_frac": (passed / len(recs), "frac", len(recs)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("keep_prob"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="opvec CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "opvec" / "cli.py").is_file():
        print(f"error: no opvec source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    state = root / ".perfbench_run"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    try:
        if args.trace:
            setup, result = [], run_worker(src, work, args)
        else:
            setup = measure_setup(src, work, "before")
            result = run_worker(src, work, args)
            setup += measure_setup(src, work, "after")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recs = result["records"]
    failures: dict[str, int] = {}
    for r in recs:
        if r["failure"] is not None:
            kind = f"{r['task']}: {r['failure']}"
            failures[kind] = failures.get(kind, 0) + 1
    wrong = sum(1 for r in recs if (r["failure"] or "").startswith("check:"))

    print(f"workload {args.workload} seed {args.seed}: {len(recs)} experiments, "
          f"{result['repeats']} repeat(s), {result['wall_s']:.3f} s")
    print(f"machine {json.dumps(machine_facts(), sort_keys=True)}")
    failed = sum(failures.values())
    print(f"failed_frac {failed / len(recs):.4f} ({failed}/{len(recs)}) "
          f"{json.dumps(failures, sort_keys=True)}")
    if args.trace:
        metrics = {name: (result["metrics"][name], unit_of(name)) for name in metric_names()}
        print(f"traced batch: {result['traced_wall_s']:.3f} s, untraced "
              f"{result['wall_s']:.3f} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
    else:
        digests = result["digests"]
        print(f"digest sha256 {digests[0]}"
              + ("" if len(set(digests)) == 1 else f" REPEATS DIFFER: {digests}"))
        wrong += len(set(digests)) > 1
        print(f"reference kernel median {result['kernel_s'] * 1e3:.4f} ms; times below are "
              f"at reference speed ({REF_NOMINAL_S * 1e3:g} ms), then as measured")
        e2e = end_to_end(result, setup)
        raw = end_to_end(result, setup, "raw_seconds")
        for name, (value, unit, n) in e2e.items():
            print(f"  {name} {value:.6g} {unit} (n={n}); measured {raw[name][0]:.6g}")
        if len(recs) * 0.05 >= TAIL_SAMPLES:
            p95 = [percentile([r[k] if r["failure"] is None else math.inf for r in recs], 0.95)
                   for k in ("seconds", "raw_seconds")]
            print(f"  experiment_s.p95 {p95[0]:.6g} s (n={len(recs)}); measured {p95[1]:.6g}")
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
