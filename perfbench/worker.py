"""Runs one workload in its own process: the closed loop of the benchmark.

One experiment at a time goes through ``opvec.cli.main`` in this process,
the way a researcher's batch script would call the CLI entry point. Every
experiment's failure is caught and recorded by kind (exit code or exception
type); a run is never cut short by one. The process runs under an
address-space ceiling so that an oversized allocation raises
``MemoryError`` here instead of taking down the machine.

Usage (``run.py`` starts it; results go to ``<work>/result.json``):

    python3 perfbench/worker.py --src src --work DIR --workload NAME \
        --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Well below the 7 GB of the reference machine, far above what any
# experiment that can succeed needs (about 110 MB peak).
ADDRESS_SPACE_CEILING = 2 * 1024**3
# An experiment's median over repeats spread across the run is steadier
# than any single timing.
MIN_REPEATS = 2
# Experiments whose kernel samples (one before and one after each) set an
# experiment's local speed, together with its own probe samples.
REF_WINDOW = 9


def run_batch(cli, experiments, work: Path, digest=None, tracer=None) -> list[dict]:
    """Run ``experiments`` one after another; returns one record each:
    task, seconds, ``ref_s`` (the reference kernel timed just before and
    just after it), ``probe_s`` (timed by the probe while it ran) and
    ``failure`` (``None`` when the experiment exited 0 and its artifacts
    passed their check). With ``digest``, every artifact is hashed in
    experiment order, file names sorted within an experiment."""
    from checks import check
    from speed import Probe, reference_seconds

    probe = Probe()
    records = []
    for index, exp in enumerate(experiments):
        exp_dir = work / f"exp{index:05d}"
        exp_dir.mkdir()
        config = exp_dir / "config.json"
        config.write_text(json.dumps(exp.config, sort_keys=True))
        out = exp_dir / "out"
        argv = [exp.task, "--config", str(config), "--out", str(out)]
        if exp.oracle:
            argv.append("--with-oracle")
        if tracer is not None:
            tracer.experiment = index
        before = reference_seconds()
        failure = None
        start = time.perf_counter()
        try:
            with probe, contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                failure = f"exit {code}"
        except SystemExit as exc:
            failure = f"exit {exc.code}"
        except Exception as exc:  # noqa: BLE001 - a batch must survive any one experiment
            failure = type(exc).__name__
        seconds = time.perf_counter() - start - sum(probe.samples)
        ref_s = [before, reference_seconds()]
        if failure is None:
            problem = check(exp.task, exp.config, exp.oracle, out)
            if problem is not None:
                failure = f"check: {problem}"
        if digest is not None and out.is_dir():
            for path in sorted(out.iterdir()):
                digest.update(f"{index}/{path.name}\n".encode())
                digest.update(path.read_bytes())
        shutil.rmtree(exp_dir)
        records.append({"task": exp.task, "seconds": seconds, "ref_s": ref_s,
                        "probe_s": probe.samples, "failure": failure})
    return records


def run_workload(cli, name: str, seed: int, seconds: float, work: Path) -> dict:
    """Repeat the workload's batch until the next repeat would overrun
    ``seconds``, with at least ``MIN_REPEATS``. Each experiment's time is its
    median over the repeats at reference speed, scaled by the kernel times
    of the ``REF_WINDOW`` experiments around it and its own probe samples
    (``raw_seconds`` is the median as measured, probe time taken out).
    Every repeat's artifacts are hashed, and the digests must agree."""
    from speed import at_reference_speed
    from workloads import batch

    exps = batch(name, seed)
    scaled: list[list[float]] = [[] for _ in exps]
    raw: list[list[float]] = [[] for _ in exps]
    failures: list[str | None] = [None] * len(exps)
    digests, kernel = [], []
    start = time.perf_counter()
    while True:
        digest = hashlib.sha256()
        recs = run_batch(cli, exps, work, digest)
        refs = [r["ref_s"] for r in recs]
        kernel += [t for rec in recs for t in rec["ref_s"] + rec["probe_s"]]
        for i, rec in enumerate(recs):
            window = [t for pair in refs[max(0, i - REF_WINDOW // 2): i + REF_WINDOW // 2 + 1]
                      for t in pair]
            scaled[i].append(at_reference_speed(rec["seconds"], window + rec["probe_s"]))
            raw[i].append(rec["seconds"])
            failures[i] = failures[i] or rec["failure"]
        digests.append(digest.hexdigest())
        elapsed = time.perf_counter() - start
        repeats = len(digests)
        if repeats >= MIN_REPEATS and elapsed + elapsed / repeats > seconds:
            break
    med = statistics.median
    records = [{"task": e.task, "seconds": med(t), "raw_seconds": med(r), "failure": f}
               for e, t, r, f in zip(exps, scaled, raw, failures)]
    return {"records": records, "wall_s": elapsed, "repeats": repeats, "digests": digests,
            "kernel_s": statistics.median(kernel)}


def trace_workload(cli, name: str, seed: int, work: Path, spans_path: Path) -> dict:
    """The batch once untraced, then once traced; the wall-time difference
    is the tracing overhead."""
    from tracer import Tracer
    from workloads import batch

    exps = batch(name, seed)
    start = time.perf_counter()
    plain = run_batch(cli, exps, work)
    plain_wall = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = run_batch(cli, exps, work, tracer=tracer)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return {"records": plain + traced, "wall_s": plain_wall, "traced_wall_s": traced_wall,
            "repeats": 1, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="directory holding the opvec package")
    p.add_argument("--work", required=True, help="scratch directory for configs and artifacts")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CEILING, ADDRESS_SPACE_CEILING))
    sys.path.insert(0, str(Path(args.src).resolve()))
    import opvec.cli as cli

    from workloads import warmup

    work = Path(args.work)
    # Lazy first-call costs are paid here, untimed: set-up time reports them.
    [rec] = run_batch(cli, [warmup()], work)
    if rec["failure"] is not None:
        print(f"warm-up experiment failed: {rec['failure']}", file=sys.stderr)
        return 1
    if args.trace:
        result = trace_workload(cli, args.workload, args.seed, work,
                                work.parent / f"spans_{args.workload}_{args.seed}.jsonl.gz")
    else:
        result = run_workload(cli, args.workload, args.seed, args.seconds, work)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
