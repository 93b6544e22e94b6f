"""Output checks: one per task, run on every experiment that exits 0.

Each check parses the task's artifacts without opvec's own loaders and
returns ``None`` when they pass, or a one-line reason. With the oracle on,
deltas must stay within the tolerances below; without it, values must be
finite and inside their known ranges.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

# Sampled estimators: Bernstein's bound at Z_MAX standard errors (see
# ``_oracle_sampled``). With 4096 shots the first-order Trotter bias at
# dt = 1/64 on the Ising chain stays well under one standard error, so it
# needs no separate term.
Z_MAX = 5.0
# Deterministic tasks: absolute bounds on |value - exact|.
ABS_TOL = {
    "evolve": 5e-3,      # first-order Trotter bias of the autocorrelation, t=1, 64 steps
    "choi2pc": 1e-9,     # exact postselection probability
    "compile2d": 1e-9,   # one scheduled step against the doubled Trotter step
}
# ``sample``: total-variation distance between the empirical and exact Pauli
# distributions. Measured at most 0.035 on these workloads (n=7 at t=1 and
# n<=5 sums of up to six words, 4096 shots).
TV_MAX = 0.1

ARTIFACTS = {
    "evolve": ("report.json", "state.bin"),
    "sample": ("report.json", "dist.csv"),
    "choi2pc": ("report.json", "state.bin"),
    "compile2d": ("report.json", "schedule.json"),
}


def _state_bin(path: Path) -> str | None:
    raw = path.read_bytes()
    if len(raw) < 13:
        return "state.bin: truncated header"
    magic, _tag, n, d = struct.unpack("<4sBII", raw[:13])
    if magic != b"OPV1":
        return "state.bin: bad magic"
    amps = np.frombuffer(raw[13:], dtype="<c8")
    if amps.size != d ** (2 * n):
        return f"state.bin: {amps.size} amplitudes for n={n}, d={d}"
    norm = float(np.linalg.norm(amps.astype(complex)))
    if not abs(norm - 1.0) < 1e-4:
        return f"state.bin: norm {norm}"
    return None


def _dist_csv(path: Path, n: int, shots: int) -> str | None:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "pauli_string,count":
        return "dist.csv: bad header"
    total = 0
    for line in lines[1:]:
        label, count = line.split(",")
        if len(label) != n or set(label) - set("IXYZ") or int(count) < 1:
            return f"dist.csv: bad row {line!r}"
        total += int(count)
    if total != shots:
        return f"dist.csv: counts sum to {total}, report says {shots}"
    return None


def _schedule_json(path: Path, rows: int, cols: int) -> str | None:
    doc = json.loads(path.read_text())
    if (doc.get("rows"), doc.get("cols")) != (rows, cols) or not doc.get("layers"):
        return "schedule.json: wrong shape or no layers"
    return None


def _in_range(value, lo: float, hi: float, what: str) -> str | None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return f"{what}: not a finite number ({value!r})"
    if not lo - 1e-9 <= value <= hi + 1e-9:
        return f"{what}: {value} outside [{lo}, {hi}]"
    return None


def _oracle_delta(block: dict | None, abs_tol: float) -> str | None:
    """Deterministic task: absolute bound on the oracle delta."""
    if block is None:
        return "oracle: block missing"
    delta = block.get("abs_delta")
    problem = _in_range(delta, 0.0, math.inf, "oracle abs_delta")
    return problem or (None if delta <= abs_tol else f"oracle: abs_delta {delta} > {abs_tol}")


def _oracle_sampled(block: dict | None, stderr: float, shots: int,
                    lo: float, hi: float) -> str | None:
    """Sampled estimator: a mean of ``shots`` independent per-shot values in
    ``[lo, hi]``. Bernstein's inequality bounds its distance from the exact
    mean m by Z_MAX * sigma / sqrt(shots) + Z_MAX^2 / 3 * (hi - lo) / shots,
    except with probability 2 exp(-Z_MAX^2 / 2), about 7e-6. For sigma it
    takes the larger of the report's stderr and sqrt((m - lo)(hi - m)), the
    largest standard deviation any values in ``[lo, hi]`` with mean m can
    have (exact for +-1 outcomes). The report's own stderr alone is no
    bound: it is 0 when every shot agreed, and with outcomes of probability
    1/1000 that is a common, correct result of 4096 shots."""
    problem = _oracle_delta(block, math.inf)
    if problem:
        return problem
    exact = block.get("value")
    problem = _in_range(exact, -math.inf, math.inf, "oracle value")
    if problem:
        return problem
    spread = math.sqrt(max((exact - lo) * (hi - exact), 0.0) / shots)
    bound = Z_MAX * max(stderr, spread) + Z_MAX**2 / 3 * (hi - lo) / shots
    if block["abs_delta"] <= bound:
        return None
    return (f"oracle: abs_delta {block['abs_delta']:.3g} past Bernstein's bound {bound:.3g} "
            f"at {Z_MAX} standard errors")


def _superop_range(cfg: dict, n: int) -> tuple[float, float]:
    spec = cfg["superop"]
    if spec == "size":
        return 0.0, float(n)
    if isinstance(spec, str):
        return 0.0, 1.0
    bound = sum(abs(float(line.split()[0])) for line in spec["text"].splitlines() if line)
    return -bound, bound


def check(task: str, cfg: dict, oracle: bool, out: Path) -> str | None:
    """``None`` if the artifacts of one successful experiment are valid."""
    for name in ARTIFACTS.get(task, ("report.json",)):
        if not (out / name).is_file():
            return f"{name}: missing"
    if task == "superop" and isinstance(cfg["superop"], str) and not (out / "dist.csv").is_file():
        return "dist.csv: missing"
    try:
        return _check(task, cfg, oracle, out)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return f"unparseable artifact: {type(exc).__name__}: {exc}"


# Known value ranges of the report's headline value; superop's depends on
# the superoperator and is worked out from the config.
RANGES = {
    "evolve": (-1.0, 1.0),     # autocorrelation of unit-norm operators
    "sample": (0.0, 1.0),      # mode frequency
    "ose": (0.0, 1.0),         # stabilizer purity
    "loe": (0.0, 2.0),         # 1 - swap-test mean, the mean lying in [-1, 1]
    "corr": (-1.0, 1.0),       # correlator of unitary operators
    "choi2pc": (0.0, 1.0),     # postselection probability
    "compile2d": (1.0, math.inf),  # entangling depth
}


def _check(task: str, cfg: dict, oracle: bool, out: Path) -> str | None:
    doc = json.loads((out / "report.json").read_text())
    reports = doc.get("reports", ())
    if not oracle and ("oracle" in doc or any("oracle" in r for r in reports)):
        return "oracle: block present without --with-oracle"
    problem = _in_range(doc["stderr"], 0.0, math.inf, "stderr") or _values(task, cfg, doc, out)
    if problem or not oracle:
        return problem
    return _oracle(task, cfg, doc)


def _values(task: str, cfg: dict, doc: dict, out: Path) -> str | None:
    """Ranges without the oracle, plus each task's own artifact."""
    n, shots = doc["params"].get("n"), doc["shots"]
    if task in ("otoc", "nqubit"):
        for i, rep in enumerate(doc["reports"]):
            problem = _in_range(rep["value"], -1.0, 1.0, f"reports[{i}]")
            if problem:
                return problem
        return None
    lo, hi = _superop_range(cfg, n) if task == "superop" else RANGES[task]
    problem = _in_range(doc["value"], lo, hi, f"{task} value")
    if problem:
        return problem
    if task in ("evolve", "choi2pc"):
        return _state_bin(out / "state.bin")
    if task == "sample" or (task == "superop" and isinstance(cfg["superop"], str)):
        return _dist_csv(out / "dist.csv", n, shots)
    if task == "compile2d":
        lat = cfg["lattice"]
        if doc["params"]["violations"]:
            return f"schedule violations: {doc['params']['violations']}"
        return _schedule_json(out / "schedule.json", lat["rows"], lat["cols"])
    return None


def _oracle(task: str, cfg: dict, doc: dict) -> str | None:
    """Oracle deltas within the tolerance stated for the task."""
    block = doc.get("oracle")
    if task in ("otoc", "nqubit"):
        for rep in doc["reports"]:
            problem = _oracle_sampled(rep.get("oracle"), rep["stderr"], rep["shots"], -1.0, 1.0)
            if problem:
                return problem
        return None
    if block is None:
        return "oracle: block missing"
    if task == "sample":
        return _in_range(block.get("tv_distance"), 0.0, TV_MAX, "oracle tv_distance")
    if task in ABS_TOL:
        return (_oracle_delta(block, ABS_TOL[task])
                or _in_range(block.get("state_fidelity", 1.0), 1.0 - 1e-9, 1.0,
                             "oracle state_fidelity"))
    # An operator-sum superop's estimate is a sum of group means. Its shots go
    # to the groups in proportion to their coefficient mass, so one shot
    # still moves it by about (hi - lo) / shots, and the reported stderr
    # adds up the groups' variances.
    lo, hi = _superop_range(cfg, doc["params"]["n"]) if task == "superop" else RANGES[task]
    shots = doc["shots"]
    if task == "ose":
        # Its samples are the outer draws; ``shots`` also counts inner ones.
        p = doc["params"]
        shots = math.ceil(2 * math.log(4 / p["delta"]) / p["epsilon"] ** 2)
    return _oracle_sampled(block, doc["stderr"], shots, lo, hi)
