"""Seeded experiment batches for the opvec benchmark.

A workload run repeats one batch of experiments; the batch of workload ``w``
under seed ``s`` is a pure function of ``(w, s)``. The generator uses its
own ``random.Random`` stream and writes plain JSON configs, so opvec only
ever sees the generated files, exactly as a CLI user's batch script would
hand them over.

"Ising chain" is the open transverse-field chain used by the test suite:
field 1/2 on every Z, coupling 1/4 on every nearest-neighbour XX.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TASKS = (
    "evolve", "sample", "otoc", "superop", "ose",
    "loe", "corr", "choi2pc", "nqubit", "compile2d",
)

# The tasks whose work is one evolution on the doubled register.
DOUBLED_TASKS = ("evolve", "sample", "otoc", "superop", "ose", "corr", "choi2pc")

EVOLUTION = {"t": 1.0, "steps": 64}


@dataclass(frozen=True)
class Experiment:
    """One CLI invocation: ``opvec <task> --config config.json [--with-oracle]``."""

    task: str
    config: dict
    oracle: bool


def ising_text(n: int) -> str:
    lines = [f"0.5 0 {_single(n, i, 'Z')}" for i in range(n)]
    for i in range(n - 1):
        label = ["I"] * n
        label[i] = label[i + 1] = "X"
        lines.append(f"0.25 0 {''.join(label)}")
    return "\n".join(lines) + "\n"


def ising_trotter_circuit(n: int, t: float, steps: int) -> dict:
    """First-order Trotter circuit of the Ising chain as inline circuit JSON:
    one ``pexp`` per term per step, terms in the order ``ising_text`` lists
    them, angle 2 c dt."""
    dt = t / steps
    terms = [(0.5, [i], "Z") for i in range(n)]
    terms += [(0.25, [i, i + 1], "XX") for i in range(n - 1)]
    gates = [
        {"name": "pexp", "targets": targets, "angle": 2 * c * dt, "axes": axes}
        for _ in range(steps)
        for c, targets, axes in terms
    ]
    return {"qubits": n, "gates": gates}


def _single(n: int, site: int, kind: str) -> str:
    return "".join(kind if i == site else "I" for i in range(n))


def _word(rng: random.Random, n: int, letters: str = "XYZ", max_weight: int = 2) -> str:
    sites = rng.sample(range(n), rng.randint(1, max_weight))
    return "".join(rng.choice(letters) if i in sites else "I" for i in range(n))


def _pauli_sum_text(rng: random.Random, n: int) -> str:
    """Random Pauli sum of 2 to 6 distinct non-identity words."""
    words: list[str] = []
    want = rng.randint(2, 6)
    while len(words) < want:
        w = _word(rng, n, max_weight=n)
        if w not in words:
            words.append(w)
    return "".join(f"{rng.uniform(-1, 1)!r} 0 {w}\n" for w in words)


def _z_words(rng: random.Random, n: int, count: int) -> list[str]:
    """Distinct non-identity Z-type words (count <= 2^n - 1)."""
    out: list[str] = []
    while len(out) < count:
        w = _word(rng, n, letters="Z", max_weight=n)
        if w not in out:
            out.append(w)
    return out


def _operator_sum_text(rng: random.Random, n: int) -> str:
    """Self-adjoint operator-sum superoperator with 3n non-identity terms,
    one measurement group each under the CLI's default grouping."""
    lines = []
    for _ in range(3 * n):
        lines.append(f"{rng.uniform(-1, 1)!r} 0 {_word(rng, n)} {_word(rng, n)}\n")
    return "".join(lines)


def _partition(rng: random.Random, n: int) -> list[int]:
    # Fixed size: the swap test's gate count grows with it, and a size drawn
    # from the seed would make run time depend on the seed.
    return sorted(rng.sample(range(n), n // 2))


def _task_fields(task: str, rng: random.Random, n: int) -> dict:
    """Task-specific config fields shared by every workload."""
    if task == "nqubit":
        return {
            "operator": _word(rng, n),
            "pairs": [[l, r] for l, r in zip(_z_words(rng, n, 3), _z_words(rng, n, 3))],
        }
    if task == "corr":
        # The interferometric encoding needs unitary operators: single words.
        return {"operator": _word(rng, n), "operator_b": _word(rng, n)}
    if task == "choi2pc":
        return {"operator": _word(rng, n), "p": rng.uniform(0.05, 0.45),
                "site": rng.randrange(n)}
    if task == "loe":
        return {"operator": _word(rng, n), "partition": _partition(rng, n)}
    if task == "otoc":
        words = [_word(rng, n) for _ in range(3)]
        return {"operator": _word(rng, n), "pairs": [[w, w] for w in words]}
    if task == "superop":
        return {"operator": _word(rng, n), "superop": "size"}
    return {"operator": _word(rng, n)}


def _ising_lattice(rows: int, cols: int) -> dict:
    # The Ising chain up to a Hadamard on every site: X field 1/2, ZZ coupling 1/4.
    return {"lattice": {"rows": rows, "cols": cols},
            "h_x": 0.5, "h_z": 0.0, "J": -0.25, "dt": EVOLUTION["t"] / EVOLUTION["steps"]}


def doubled_n7(rng: random.Random) -> list[Experiment]:
    """Seven doubled-register tasks at n=7, four seeded variants each.
    Even variants name the Hamiltonian, odd ones inline its Trotter circuit,
    so both doubled lowerings run."""
    n = 7
    h = {"text": ising_text(n)}
    circuit = ising_trotter_circuit(n, **EVOLUTION)
    out = []
    for variant in range(4):
        for task in DOUBLED_TASKS:
            cfg = {"task": task, "seed": rng.randrange(2**31), **EVOLUTION}
            cfg.update(_task_fields(task, rng, n))
            if variant % 2 == 0:
                cfg["hamiltonian"] = h
            else:
                cfg["circuit"] = circuit
            out.append(Experiment(task, cfg, oracle=False))
    return out


def cap_n7_oracle(rng: random.Random) -> list[Experiment]:
    """Every task once at the dense cap n=7 with the oracle on."""
    n = 7
    h = {"text": ising_text(n)}
    out = []
    for task in TASKS:
        cfg = {"task": task, "seed": rng.randrange(2**31), **EVOLUTION}
        if task == "compile2d":
            cfg.update(_ising_lattice(1, n))
        else:
            cfg.update(_task_fields(task, rng, n))
            cfg["hamiltonian"] = h
        out.append(Experiment(task, cfg, oracle=True))
    return out


FAMILY_SUPEROPS = ("operator_sum", "size", "weight_indicator", "rhs_boundary")
FAMILY_BATCH = 300


def families_n5(rng: random.Random) -> list[Experiment]:
    """Small experiments at n in {4, 5} without time evolution; all ten tasks
    in rotation, the oracle on every other experiment (flipping each round,
    so every task runs with and without it). n alternates every two rounds,
    so each task meets every (n, oracle) pair equally often whatever the
    seed: loe's register is 16x larger at n=5, and a seeded n would make
    run time depend on the seed."""
    out = []
    for i in range(FAMILY_BATCH):
        task = TASKS[i % len(TASKS)]
        rnd = i // len(TASKS)
        oracle = (i + rnd) % 2 == 1
        n = 4 + (rnd // 2) % 2
        cfg = {"task": task, "seed": rng.randrange(2**31), "t": 0.0}
        if task == "compile2d":
            # The dense oracle stops at 7 sites, so oracle runs draw small lattices.
            shapes = [(2, 2), (2, 3), (3, 2)] if oracle else [
                (r, c) for r in (2, 3) for c in (2, 3, 4)]
            cfg.update(_ising_lattice(*rng.choice(shapes)))
        else:
            cfg.update(_task_fields(task, rng, n))
            if task in ("evolve", "sample", "otoc", "superop", "ose", "loe", "choi2pc"):
                cfg["operator"] = {"text": _pauli_sum_text(rng, n)}
            if task == "otoc":
                cfg["pairs"] = [[w, w] for w in _z_words(rng, n, 6)]
            if task == "superop":
                kind = FAMILY_SUPEROPS[rnd % len(FAMILY_SUPEROPS)]
                if kind == "operator_sum":
                    cfg["superop"] = {"text": _operator_sum_text(rng, n)}
                elif kind == "size":
                    cfg["superop"] = "size"
                else:
                    cfg["superop"] = f"{kind}@{rng.randint(1, n)}"
        out.append(Experiment(task, cfg, oracle))
    return out


def warmup() -> Experiment:
    """The small experiment a fresh interpreter finishes to count as set up."""
    n = 4
    cfg = {"task": "evolve", "operator": _single(n, 0, "Z"), "hamiltonian": {"text": ising_text(n)},
           "t": 1.0, "steps": 16, "seed": 0}
    return Experiment("evolve", cfg, oracle=False)


WORKLOADS = {
    "doubled_n7": doubled_n7,
    "cap_n7_oracle": cap_n7_oracle,
    "families_n5": families_n5,
}


def batch(workload: str, seed: int) -> list[Experiment]:
    """The batch of ``workload`` under ``seed``; the same pair always gives
    the same experiments."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
