"""Batch experiment runner.

Each subcommand reads one JSON config, runs a single seeded experiment, and
writes its artifacts (`report.json`, plus `dist.csv`, `state.bin`, or
`schedule.json` where the task produces them) into the output directory.
All randomness flows from the config seed through named stream forks, and
reports are serialized with sorted keys, so identical config and seed give
byte-identical outputs.

Artifacts are written only once the task and, with ``--with-oracle``, its
oracle block have run, so a run that fails writes none.

Exit codes: 0 success, 1 runtime failure, 2 config or parse error,
3 over the byte budget, 4 group spec without a usable common eigenbasis.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import estimators as est
from . import lattice2d
from . import oracle
from ._linalg import _period, reserve
from .errors import (
    CapExceededError,
    EntangledEigenbasisError,
    NonCommutingSetError,
    ParseError,
    ProjectionFailedError,
)
from .pauli import PauliString, PauliSum
from .simulator import (
    Circuit,
    Gate,
    QState,
    RngStream,
    _hermitian_real_terms,
    _is_unitary,
    _reserve_dilated,
    apply_circuit,
    channel_dual_postselect,
    dense_unitary,
    heisenberg_doubled,
    interferometric_state,
    super_propagator_circuit,
    trotter_circuit,
)
from .superop import (
    DiagonalSuperop,
    OperatorSumSuperop,
    builtin_diagonal,
    expectation,
)
from .vectorize import (
    COMPUTATIONAL,
    PAULI,
    VectorizedState,
    bell_transform,
    index_pauli,
    save_state,
    vectorize,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NONCOMMUTING = 4


# ---------------------------------------------------------------------------
# Config loading and validation.

def _is_int(value) -> bool:
    """JSON integers only: bool is an int subclass, but true is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Finite JSON numbers only, integer or real; not true or false, and not
    the NaN and Infinity literals that ``json.loads`` accepts."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


def _load_pauli_sum(spec, base: Path, errors: list[str], field: str) -> PauliSum | None:
    """Accepts a bare Pauli label, {"text": ...}, or {"file": ...}."""
    try:
        if isinstance(spec, str):
            return PauliSum.from_terms([(1.0, PauliString.from_label(spec))])
        if isinstance(spec, dict) and isinstance(spec.get("text"), str):
            return PauliSum.from_text(spec["text"])
        if isinstance(spec, dict) and isinstance(spec.get("file"), str):
            return PauliSum.from_text(_resolve(base, spec["file"]).read_text())
    except (ParseError, ValueError, OSError) as exc:
        errors.append(f"{field}: {exc}")
        return None
    errors.append(f"{field}: expected a Pauli label, {{'text': ...}}, or {{'file': ...}}")
    return None


def _load_operator(spec, base: Path, errors: list[str], field: str) -> PauliSum | None:
    """An operator to vectorize, loaded as :func:`_load_pauli_sum` loads it;
    one whose coefficients are all zero has no direction, and one whose
    squared coefficients sum below the smallest normal float64 has a norm
    that underflows, so both are refused."""
    op = _load_pauli_sum(spec, base, errors, field)
    if op is not None and not op.terms:
        errors.append(f"{field}: every coefficient is zero; the zero operator cannot be vectorized")
    elif op is not None and sum(abs(c) ** 2 for c in op.terms.values()) < sys.float_info.min:
        errors.append(f"{field}: the coefficients' squares sum below {sys.float_info.min!r}; "
                      "an operator this small cannot be normalized")
    return op


def _spec_period(specs: list) -> int:
    """The smallest period p of the gate ``specs`` under ``==`` (see
    :func:`_linalg._period`) when every spec holds exactly its JSON types (a
    str name, a list of int targets, a finite int or float angle or none, a
    str axis word or none) and every angle has the sign of its counterpart
    in the first period; otherwise len(specs). ``==`` equates true with 1,
    1.0 with 1 and -0.0 with 0.0, so these conditions make each spec load
    as its first-period counterpart does. Each check maps a C-level call
    over the specs."""
    n = len(specs)
    p = _period(specs, operator.eq)
    if p >= n or {*map(type, specs)} != {dict}:
        return n

    def field(key):
        return map(dict.get, specs, itertools.repeat(key))

    targets = [*field("targets")]
    numbers = [angle for angle in field("angle") if angle is not None]
    typed = ({*map(type, field("name"))} == {str} and {*map(type, targets)} == {list}
             and {*map(type, itertools.chain.from_iterable(targets))} <= {int}
             and {*map(type, numbers)} <= {int, float} and all(map(math.isfinite, numbers))
             and {*map(type, field("axes"))} <= {str, type(None)})
    if not typed:
        return n
    signs = [*map(math.copysign, itertools.repeat(1.0), numbers)]
    return p if signs == signs[: len(signs) * p // n] * (n // p) else n


def _load_circuit(spec, base: Path, errors: list[str]) -> Circuit | None:
    """Circuit JSON: {"qubits": k, "gates": [{"name", "targets", "angle"?, "axes"?}]}.

    Equal gate specs share one Gate, as the steps of ``trotter_circuit`` do,
    so the lowering places each distinct gate once. Specs are keyed on name,
    targets, repr(angle) and axes, which keeps -0.0 apart from 0.0; a spec
    with an unhashable field gets its own Gate, which reports it. Gate
    coerces what it can, so ``qubits`` and every target must be JSON
    integers, every angle a number and every axis word a string, checked
    on each spec after Gate has reported what it refuses.

    A gate list that repeats one period of specs (:func:`_spec_period`), as
    an inline Trotter circuit does, loads its first period only, and the
    circuit repeats that period's Gates. Every later spec would load as its
    counterpart in the first period does, so a refusal names the same first
    bad index, with the same message, as loading every spec would."""
    try:
        if isinstance(spec, dict) and isinstance(spec.get("file"), str):
            doc = json.loads(_resolve(base, spec["file"]).read_text())
        elif isinstance(spec, dict) and "gates" in spec:
            doc = spec
        else:
            errors.append("circuit: expected {'file': ...} or an inline gate list")
            return None
        specs, repeats = doc["gates"], 1
        if type(specs) is list:
            p = _spec_period(specs)
            specs, repeats = specs[:p], len(specs) // max(p, 1)
        made: dict[tuple, Gate] = {}
        gates = []
        for i, g in enumerate(specs):
            key = (g["name"], tuple(g["targets"]), repr(g.get("angle")), g.get("axes"))
            try:
                gate = made.get(key)
            except TypeError:
                key = gate = None
            if gate is None:
                gate = Gate(g["name"], tuple(g["targets"]), g.get("angle"), g.get("axes"))
                if key is not None:
                    made[key] = gate
            if not all(map(_is_int, g["targets"])):
                raise ValueError(f"gates[{i}].targets: expected integers")
            if g.get("angle") is not None and not _is_number(g["angle"]):
                raise ValueError(f"gates[{i}].angle: expected a finite number")
            if g.get("axes") is not None and not isinstance(g["axes"], str):
                raise ValueError(f"gates[{i}].axes: expected a string")
            gates.append(gate)
        if not _is_int(doc["qubits"]):
            raise ValueError("qubits: expected an integer")
        return Circuit(doc["qubits"], gates * repeats)
    except (KeyError, TypeError, ValueError, OSError, json.JSONDecodeError) as exc:
        errors.append(f"circuit: {exc}")
        return None


def _pairs(spec, n: int, errors: list[str]) -> list[tuple[PauliString, PauliString]]:
    out = []
    for i, entry in enumerate(spec):
        try:
            left, right = entry
            lp = PauliString.from_label(left)
            rp = PauliString.from_label(right)
        except (ParseError, TypeError, ValueError) as exc:
            errors.append(f"pairs[{i}]: {exc}")
            continue
        if lp.n != n or rp.n != n:
            errors.append(f"pairs[{i}]: length must match the {n}-site operator")
            continue
        out.append((lp, rp))
    return out


def _groups(a: OperatorSumSuperop, grouping) -> tuple[list[list[int]], list[float]]:
    """The groups an operator-sum superoperator is measured in, ``grouping``
    or, when it is None, one per term that is not identity on both sides,
    and each group's weight: the sum of its terms' |coefficients|."""
    if grouping is None:
        grouping = [
            [i] for i, (_, left, right) in enumerate(a.terms) if left.weight or right.weight
        ]
    return grouping, [sum(abs(a.terms[i][0]) for i in group) for group in grouping]


def _check_groups(a: OperatorSumSuperop, grouping, shots: int, errors: list[str]) -> None:
    """Append what the grouped estimate of ``a`` would refuse at run time in
    its groups and its ``shots``, naming the field: ``grouping`` is a list of
    integer lists, or None for the default of :func:`_groups`."""
    if grouping is not None:
        indices = [i for group in grouping for i in group]
        if not indices:
            problem = "needs at least one nonempty group"
        elif not all(0 <= i < len(a.terms) for i in indices):
            problem = f"term indices must lie in 0..{len(a.terms) - 1}"
        elif len(set(indices)) < len(indices):
            problem = "each term index may appear once"
        elif any((left.weight or right.weight) and i not in indices
                 for i, (_, left, right) in enumerate(a.terms)):
            problem = "every term that is not identity on both sides must be in a group"
        else:
            problem = None
        if problem:
            errors.append(f"grouping: {problem}")
            return
    groups, weights = _groups(a, grouping)
    measured = sum(w > 0 for w in weights)
    if not a.is_self_adjoint or any(abs(a.terms[i][0].imag) > 1e-12 for g in groups for i in g):
        errors.append("superop: grouped estimation needs real coefficients")
    elif not groups:
        errors.append("superop: every term is identity on both sides, so no group is measured")
    elif any(group and not w for group, w in zip(groups, weights)):
        field = "superop" if grouping is None else "grouping"
        errors.append(f"{field}: a group whose coefficients are all zero gets no shots")
    elif shots < measured:
        errors.append(f"shots: the {measured} measured groups need at least {measured} shots")


def validate_config(path) -> tuple[dict | None, list[str]]:
    """Load, default-fill, and fully check one experiment config.

    Every key is checked against its row of ``_FIELDS``, whatever the task;
    the structured fields are then loaded, and the checks that span fields
    run. Errors are aggregated; the returned config is None whenever any
    were found. File references are resolved relative to the config file."""
    errors: list[str] = []
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"config: {exc}"]
    if not isinstance(raw, dict):
        return None, ["config: top level must be a JSON object"]

    cfg = dict(raw)
    cfg["_dir"] = path.parent
    task = cfg.get("task")
    if task not in TASKS:
        errors.append(f"task: expected one of {', '.join(TASKS)}; got {task!r}")
        return None, errors

    for key in sorted(raw.keys() - _FIELDS.keys()):
        errors.append(f"{key}: no task reads this key")
    for key, field in _FIELDS.items():
        checks = (field.kind, field.bound) if key in raw else ()
        for test, refusal in filter(None, checks):
            if not test(raw[key]):
                errors.append(f"{key}: {refusal}")
                # The checks below see the default, or no value.
                del cfg[key]
                break
        if key in cfg or field.default is None:
            continue
        if field.default is not _REQUIRED:
            cfg[key] = field.default
        elif key not in raw and task in field.readers:
            errors.append(f"{key}: required")

    if (task in _FIELDS["t"].readers and cfg["t"] != 0
            and "hamiltonian" not in cfg and "circuit" not in cfg):
        errors.append("t: nonzero, but there is no hamiltonian or circuit to evolve by")

    for key in ("operator", "operator_b"):
        if key in cfg and task in _FIELDS[key].readers:
            cfg["_" + key] = _load_operator(cfg[key], cfg["_dir"], errors, key)
    op = cfg.get("_operator")

    if "hamiltonian" in cfg and "circuit" in cfg:
        errors.append("hamiltonian and circuit are mutually exclusive")
    if "hamiltonian" in cfg:
        h = cfg["_hamiltonian"] = _load_pauli_sum(cfg["hamiltonian"], cfg["_dir"], errors,
                                                  "hamiltonian")
        try:  # What trotter_circuit refuses, whatever t is.
            if h is not None:
                _hermitian_real_terms(h)
        except ValueError as exc:
            errors.append(f"hamiltonian: {exc}")
    if "circuit" in cfg:
        cfg["_circuit"] = _load_circuit(cfg["circuit"], cfg["_dir"], errors)

    if op is not None:
        for built in ("_hamiltonian", "_circuit"):
            other = cfg.get(built)
            if other is not None:
                width = other.n if built == "_hamiltonian" else other.k
                if width != op.n:
                    errors.append(f"{built[1:]}: acts on {width} sites, operator on {op.n}")

    if "pairs" in cfg and task in _FIELDS["pairs"].readers and op is not None:
        cfg["_pairs"] = _pairs(cfg["pairs"], op.n, errors)

    if task == "superop" and "superop" in cfg and op is not None:
        spec = cfg["superop"]
        try:
            if isinstance(spec, str):
                cfg["_superop"] = builtin_diagonal(spec, op.n)
            elif isinstance(spec, dict) and isinstance(spec.get("text"), str):
                cfg["_superop"] = OperatorSumSuperop.from_text(spec["text"])
            elif isinstance(spec, dict) and isinstance(spec.get("file"), str):
                cfg["_superop"] = OperatorSumSuperop.from_text(
                    _resolve(cfg["_dir"], spec["file"]).read_text()
                )
            else:
                errors.append("superop: expected builtin name, {'text': ...}, or {'file': ...}")
        except (ParseError, ValueError, OSError) as exc:
            errors.append(f"superop: {exc}")
    if isinstance(cfg.get("_superop"), OperatorSumSuperop):
        if cfg["power"] > 1:
            errors.append("power: moments above 1 need a diagonal superoperator")
        _check_groups(cfg["_superop"], cfg.get("grouping"), cfg["shots"], errors)
    elif "_superop" in cfg and cfg.get("grouping") is not None:
        errors.append("grouping: only an operator-sum superoperator is measured in groups")

    if task == "ose":
        try:
            counts = est.ose_shot_counts(cfg["alpha"], cfg["epsilon"], cfg["delta"])
        except (OverflowError, ZeroDivisionError):  # past float range, or epsilon**2 == 0
            counts = (2**63,)
        if max(counts) >= 2**63:
            errors.append("alpha, epsilon, delta: both shot counts must be below 2^63")

    if task == "loe" and "partition" in cfg and op is not None:
        sites = sorted(set(cfg["partition"]))
        if sites[0] < 0 or sites[-1] >= op.n:
            errors.append(f"partition: sites must lie in 0..{op.n - 1}")
        elif len(sites) == op.n:
            errors.append("partition: must be a proper subset of the sites")

    if task == "choi2pc" and op is not None and not 0 <= cfg["site"] < op.n:
        errors.append(f"site: must lie in 0..{op.n - 1}")

    if task == "corr" and op is not None:
        # What interferometric_state refuses. Past the byte budget a sum's
        # unitarity is left to the run, which refuses its register first.
        for field in ("operator", "operator_b"):
            o = cfg.get("_" + field)
            if o is not None and o.n != op.n:
                errors.append(f"{field}: acts on {o.n} sites, operator on {op.n}")
            elif o is not None:
                try:
                    if not _is_unitary(o):
                        errors.append(f"{field}: corr needs a unitary operator")
                except CapExceededError:
                    pass

    if task == "nqubit" and op is not None:
        items = list(op.ordered_items())
        if len(items) != 1 or abs(items[0][0] - 1.0) > 1e-12:
            errors.append("operator: nqubit estimation requires a single unit-coefficient Pauli")

    return (None, errors) if errors else (cfg, errors)


# ---------------------------------------------------------------------------
# Shared task plumbing.

def _evolved(cfg: dict, op: PauliSum, basis) -> VectorizedState:
    """Encoded operator in ``basis`` after the configured evolution. An
    evolution runs from the Pauli rep, whose coefficients of a Hermitian
    operator are real; with none, the operator is vectorized in ``basis``."""
    u = _configured_circuit(cfg)
    if u is None:
        return vectorize(op, basis)
    state = heisenberg_doubled(vectorize(op, PAULI), u)
    return state if basis == PAULI else bell_transform(state, "p_to_c")


def _configured_circuit(cfg: dict) -> Circuit | None:
    """The configured evolution's circuit: the given circuit, the Hamiltonian's
    trotter_circuit(h, t, steps), or None when nothing evolves. Every task
    evolves by it, so a Hamiltonian config runs as the inline circuit that
    lists its terms step by step."""
    circuit = cfg.get("_circuit")
    h = cfg.get("_hamiltonian")
    if circuit is not None:
        return circuit
    if h is not None and cfg["t"] != 0.0:
        return trotter_circuit(h, cfg["t"], cfg["steps"])
    return None


def _oracle_evolved(cfg: dict, op: PauliSum) -> np.ndarray:
    """Exactly evolved dense operator, normalized to unit amplitude vector."""
    dense = oracle.dense(op)
    circuit = cfg.get("_circuit")
    h = cfg.get("_hamiltonian")
    if circuit is not None:
        u = dense_unitary(circuit)
        dense = u.conj().T @ dense @ u
    elif h is not None and cfg["t"] != 0.0:
        dense = oracle.heisenberg(dense, h, cfg["t"])
    norm = np.linalg.norm(dense)
    return dense * math.sqrt(2**op.n) / norm


def _exact_otocs(cfg: dict) -> list[float]:
    """Oracle value of every configured pair on the exactly evolved operator."""
    dense = _oracle_evolved(cfg, cfg["_operator"])
    return [oracle.exact_otoc(dense, left, right) for left, right in cfg["_pairs"]]


def _estimate(rep) -> dict:
    """Value, stderr and shots of a report; a bare number is computed, not
    sampled: no error, one shot."""
    if not isinstance(rep, est.EstimatorReport):
        return {"value": float(rep), "stderr": 0.0, "shots": 1}
    return {"value": float(rep.value), "stderr": float(rep.stderr), "shots": int(rep.shots)}


def _delta_block(value: float, stderr: float, exact: float) -> dict:
    block = {"value": float(exact), "abs_delta": abs(float(value) - float(exact))}
    if stderr > 0:
        block["delta_over_stderr"] = block["abs_delta"] / float(stderr)
    return block


def _pair_entry(rep: est.EstimatorReport, exact: float | None) -> dict:
    """One pair's estimate with its metadata and, given an exact value, its
    oracle block."""
    entry = _estimate(rep)
    entry.update(rep.metadata)
    if exact is not None:
        entry["oracle"] = _delta_block(entry["value"], entry["stderr"], exact)
    return entry


# ---------------------------------------------------------------------------
# Task handlers. Each runs its estimator and returns (report, params, exact,
# artifacts): its report (a bare number for a computed value, a list of
# per-pair reports for otoc and nqubit), the params only it reports, a thunk
# giving its exact value, its whole oracle block, or one exact value per
# pair, and its artifacts by file name (text, or a state for save_state).

def _task_evolve(cfg: dict, rng: RngStream):
    op = cfg["_operator"]
    state = _evolved(cfg, op, PAULI if cfg["basis"] == "pauli" else COMPUTATIONAL)
    initial = vectorize(op, state.basis).amplitudes
    value = float(np.vdot(initial, state.amplitudes).real)

    def exact():
        exact_state = vectorize(_oracle_evolved(cfg, op), state.basis)
        return float(np.vdot(initial, exact_state.amplitudes).real)

    return value, {"basis": cfg["basis"]}, exact, {"state.bin": state}


def _task_sample(cfg: dict, rng: RngStream):
    op = cfg["_operator"]
    state = _evolved(cfg, op, PAULI)
    dist = est.sample_pauli_dist(state, cfg["shots"], rng.fork("sample"))
    mode = max(sorted(dist.counts), key=lambda k: dist.counts[k])
    p_hat = dist.counts[mode] / dist.shots
    stderr = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / dist.shots)

    def exact():
        probs = oracle.pauli_probabilities(_oracle_evolved(cfg, op))
        empirical = np.zeros_like(probs)
        for k, c in dist.counts.items():
            empirical[k] = c / dist.shots
        return {"tv_distance": float(0.5 * np.abs(empirical - probs).sum())}

    params = {"mode": index_pauli(mode, op.n).label, "distinct": len(dist.counts)}
    rep = est.EstimatorReport(p_hat, stderr, dist.shots, cfg["seed"])
    return rep, params, exact, {"dist.csv": dist.to_csv()}


def _task_otoc(cfg: dict, rng: RngStream):
    state = _evolved(cfg, cfg["_operator"], PAULI)
    reports = est.estimate_otoc_group(state, cfg["_pairs"], cfg["shots"], rng.fork("otoc"))
    return reports, {}, lambda: _exact_otocs(cfg), {}


def _task_superop(cfg: dict, rng: RngStream):
    op = cfg["_operator"]
    a = cfg["_superop"]
    diagonal = isinstance(a, DiagonalSuperop)
    state = _evolved(cfg, op, PAULI if diagonal else COMPUTATIONAL)
    artifacts = {}
    params = {"power": cfg["power"]}
    if diagonal:
        dist = est.sample_pauli_dist(state, cfg["shots"], rng.fork("superop"))
        artifacts["dist.csv"] = dist.to_csv()
        rep = est.mc_diagonal(dist, a, power=cfg["power"], seed=cfg["seed"])
    else:
        grouping, weights = _groups(a, cfg.get("grouping"))
        plan = est.allocate_shots(weights, cfg["shots"])
        rep = est.estimate_superop_grouped(state, a, grouping, plan, rng.fork("superop"))
        params["groups"] = len(grouping)

    def exact():
        return expectation(a, vectorize(_oracle_evolved(cfg, op), PAULI), k=cfg["power"])

    return rep, params, exact, artifacts


def _task_ose(cfg: dict, rng: RngStream):
    op = cfg["_operator"]
    state = _evolved(cfg, op, PAULI)
    result = est.estimate_ose(
        state, cfg["alpha"], cfg["epsilon"], cfg["delta"], rng.fork("ose")
    )
    params = {
        "alpha": cfg["alpha"], "epsilon": cfg["epsilon"], "delta": cfg["delta"],
        "entropy": result.entropy if math.isfinite(result.entropy) else None,
    }

    def exact():
        return oracle.exact_ose(_oracle_evolved(cfg, op), cfg["alpha"])[0]

    return result.purity, params, exact, {}


def _task_loe(cfg: dict, rng: RngStream):
    op = cfg["_operator"]
    partition = sorted(set(cfg["partition"]))
    state = _evolved(cfg, op, PAULI)
    rep = est.estimate_loe2(state, state, partition, cfg["shots"], rng.fork("loe"))
    return (
        rep,
        {"partition": partition},
        lambda: oracle.exact_loe(_oracle_evolved(cfg, op), partition)["linear"],
        {},
    )


def _task_corr(cfg: dict, rng: RngStream):
    op = cfg["_operator"]
    op_b = cfg.get("_operator_b", op)
    # Re tr(B A(t))/2^n: A evolves, B stays at t = 0.
    u = _configured_circuit(cfg) or Circuit(op.n)
    state = interferometric_state(op, op_b, u, Circuit(op.n))
    rep = est.estimate_corr_interferometric(state, cfg["shots"], rng.fork("corr"))

    def exact():
        # Unitary operators keep unit HS norm, so the scaled dense forms
        # returned here are the operators themselves; an empty config
        # evolves nothing.
        d1 = _oracle_evolved(cfg, op)
        d2 = _oracle_evolved({}, op_b)
        return float(np.trace(d2 @ d1).real) / 2**op.n

    return rep, {}, exact, {}


def _task_choi2pc(cfg: dict, rng: RngStream):
    op = cfg["_operator"]
    site, p = cfg["site"], cfg["p"]
    # |psi>|0> -> sqrt(1-p)|psi>|0> + sqrt(p) X|psi>|1>
    theta = 2.0 * math.asin(math.sqrt(p))
    dilation = Circuit(2, [Gate("ry", (1,), theta), Gate("cx", (1, 0))])
    # The dilated register is 4x the vectorized operator: refuse it first.
    _reserve_dilated(op.n, 1)
    dual, prob = channel_dual_postselect(dilation, 1, vectorize(op, PAULI), sites=(site,))

    def exact():
        dense = oracle.dense(op)
        kraus = [
            math.sqrt(1 - p) * np.eye(2**op.n, dtype=complex),
            math.sqrt(p) * PauliString.single(op.n, site, "X").to_dense(),
        ]
        dual_dense = oracle.exact_channel_dual(kraus, dense)
        norm = np.linalg.norm(dual_dense)
        block = _delta_block(prob, 0.0, float(norm**2 / (np.linalg.norm(dense) ** 2 * 2)))
        if norm > 1e-12:
            fid = abs(np.vdot(vectorize(dual_dense, COMPUTATIONAL).amplitudes, dual.amplitudes))
            block["state_fidelity"] = float(fid)
        return block

    return prob, {"p": p, "site": site}, exact, {"state.bin": dual}


def _task_nqubit(cfg: dict, rng: RngStream):
    op = cfg["_operator"]
    word = next(iter(op.ordered_items()))[1]
    u = _configured_circuit(cfg) or Circuit(op.n)
    reports = est.nqubit_otoc(word, u, cfg["_pairs"], cfg["shots"], rng.fork("nqubit"))
    return reports, {}, lambda: _exact_otocs(cfg), {}


# Peak bytes per lattice site of a compile2d run, by tracemalloc over embed,
# trotter_step_schedule, validate and Schedule.to_json with h_x, h_z and J
# nonzero: 18,100 B at 150x150, 18,339 B with 17-digit angles. Of these, the
# layout, schedule and audit hold 5,128 B; to_json's gate dicts and text the rest.
_LATTICE_SITE_BYTES = 20_000

# Registers of 16 * 4^n bytes, n = rows * cols, that compile2d's oracle
# reference states to the byte budget before the lattice is embedded: the two
# buffers of its doubled evolution, its largest single request. By tracemalloc
# over exact() it holds 4.0 registers at its peak (4.03 at 3x3, 4.01 at 2x5):
# the lowered state, the evolved Pauli-rep reference and the two buffers of
# its basis change. That is about 1.07 GB at 3x4, which ran in 21 s under a
# 2 GiB address-space ceiling when it held 6.0; stating all four would refuse
# 3x4. With two, every lattice of up to 12 sites runs, as before, and a
# larger one exits 3 at once instead of after its schedule.
_LATTICE_ORACLE_REGISTERS = 2


def _task_compile2d(cfg: dict, rng: RngStream):
    rows, cols = cfg["lattice"]["rows"], cfg["lattice"]["cols"]
    reserve(_LATTICE_SITE_BYTES * rows * cols, f"the schedule of a {rows}x{cols} lattice")
    layout = lattice2d.embed(rows, cols)
    schedule = lattice2d.trotter_step_schedule(
        cfg["h_x"], cfg["h_z"], cfg["J"], cfg["dt"], layout
    )
    report = lattice2d.validate(schedule, layout)
    params = {
        "rows": rows, "cols": cols, "depth": report.depth,
        "gate_counts": report.gate_counts,
        "edges_covered": report.edges_covered,
        "violations": list(report.violations),
    }

    def exact():
        # One lowered schedule step against one Heisenberg Trotter step of
        # the lattice Hamiltonian, both applied to the encoded Z on site 0.
        # The reference evolves its real Pauli coefficients and changes basis
        # once; each register is freed once it has been read.
        n = rows * cols
        z0 = PauliString.single(n, 0, "Z")
        start = vectorize(z0, COMPUTATIONAL).amplitudes
        one = apply_circuit(QState(2 * n, start), lattice2d.schedule_to_circuit(schedule, layout))
        del start
        h = lattice2d.grid_hamiltonian(rows, cols, cfg["h_x"], cfg["h_z"], cfg["J"])
        ref = heisenberg_doubled(vectorize(z0, PAULI), super_propagator_circuit(h, cfg["dt"], 1))
        ref = bell_transform(ref, "p_to_c").amplitudes
        ref -= one.amplitudes
        return {"value": 0.0, "abs_delta": float(np.linalg.norm(ref))}

    return report.entangling_depth, params, exact, {"schedule.json": schedule.to_json() + "\n"}


# ---------------------------------------------------------------------------
# The runner: one frame for every task.

_TASKS = {
    "evolve": (_task_evolve, "autocorrelation"),
    "sample": (_task_sample, "mode_frequency"),
    "otoc": (_task_otoc, "otoc"),
    "superop": (_task_superop, "superop"),
    "ose": (_task_ose, "stabilizer_purity"),
    "loe": (_task_loe, "linear_operator_entanglement"),
    "corr": (_task_corr, "two_point"),
    "choi2pc": (_task_choi2pc, "postselect_probability"),
    "nqubit": (_task_nqubit, "nqubit_otoc"),
    "compile2d": (_task_compile2d, "entangling_depth"),
}

TASKS = tuple(_TASKS)


class _Field(NamedTuple):
    """One config field: its JSON type as (test, refusal), or None where
    validate_config loads it after its walk; its default, which is _REQUIRED
    where the tasks that read the field must give it and None where an absent
    field is unused; the tasks that read it; and its range as (test, refusal)."""
    kind: tuple[Callable[[object], bool], str] | None
    default: object
    readers: tuple[str, ...]
    bound: tuple[Callable[[object], bool], str] | None = None


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


_REQUIRED = object()
_INT = (_is_int, "expected an integer")
_NUMBER = (_is_number, "expected a finite number")
# The tasks that evolve their operator, by a hamiltonian or a circuit.
_EVOLVING = ("evolve", "sample", "otoc", "superop", "ose", "loe", "corr", "nqubit")

# Every config field, in the order validate_config checks them; README.md
# lists the same rows. A key with no row is refused, so a misspelt field
# cannot fall back to its default unnoticed.
_FIELDS = {
    "task": _Field(None, _REQUIRED, TASKS),
    "seed": _Field(_INT, 0, TASKS, (lambda v: v >= 0, "must be >= 0")),
    "with_oracle": _Field((lambda v: isinstance(v, bool), "expected a boolean"), False, TASKS),
    "out": _Field((lambda v: isinstance(v, str), "expected a string"), ".", TASKS),
    "operator": _Field(None, _REQUIRED, (*_EVOLVING, "choi2pc")),
    "hamiltonian": _Field(None, None, _EVOLVING),
    "circuit": _Field(None, None, _EVOLVING),
    "t": _Field(_NUMBER, 0.0, _EVOLVING),
    "steps": _Field(_INT, 64, _EVOLVING, (lambda v: v >= 1, "must be >= 1")),
    "basis": _Field((lambda v: v in ("pauli", "computational"),
                     "expected 'pauli' or 'computational'"), "pauli", ("evolve",)),
    # Generator.multinomial and .binomial take int64 counts.
    "shots": _Field(_INT, 4096, ("sample", "otoc", "superop", "loe", "corr", "nqubit"),
                    (lambda v: 1 <= v < 2**63, "must lie in 1..2^63 - 1")),
    "pairs": _Field((lambda v: isinstance(v, list) and bool(v),
                     "expected a nonempty list of [left, right] labels"),
                    _REQUIRED, ("otoc", "nqubit")),
    "superop": _Field(None, _REQUIRED, ("superop",)),
    "grouping": _Field((lambda v: v is None or isinstance(v, list) and all(map(_is_int_list, v)),
                        "expected a list of integer lists"), None, ("superop",)),
    "power": _Field(_INT, 1, ("superop",), (lambda v: v >= 1, "must be >= 1")),
    "alpha": _Field(_INT, 2, ("ose",), (lambda v: v >= 2, "purity order must be an integer >= 2")),
    "epsilon": _Field(_NUMBER, 0.1, ("ose",), (lambda v: v > 0, "must be positive")),
    "delta": _Field(_NUMBER, 0.05, ("ose",), (lambda v: 0 < v < 1, "must lie in (0, 1)")),
    "partition": _Field((lambda v: _is_int_list(v) and bool(v),
                         "expected a nonempty list of site indices"), _REQUIRED, ("loe",)),
    "operator_b": _Field(None, None, ("corr",)),
    "p": _Field(_NUMBER, 0.0, ("choi2pc",), (lambda v: 0 <= v <= 1, "must lie in [0, 1]")),
    "site": _Field(_INT, 0, ("choi2pc",)),
    "lattice": _Field((lambda v: isinstance(v, dict) and _is_int(v.get("rows"))
                       and _is_int(v.get("cols")), "expected {'rows': int, 'cols': int}"),
                      _REQUIRED, ("compile2d",),
                      (lambda v: v["rows"] >= 1 and v["cols"] >= 1, "dimensions must be positive")),
    "dt": _Field(_NUMBER, 0.05, ("compile2d",)),
    "h_x": _Field(_NUMBER, 0.0, ("compile2d",)),
    "h_z": _Field(_NUMBER, 0.0, ("compile2d",)),
    "J": _Field(_NUMBER, 0.0, ("compile2d",)),
}

# Checked in order; the first class the exception is an instance of wins.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    CapExceededError: EXIT_CAP,
    NonCommutingSetError: EXIT_NONCOMMUTING,
    EntangledEigenbasisError: EXIT_NONCOMMUTING,
    ProjectionFailedError: EXIT_FAIL,
    ValueError: EXIT_FAIL,
    OSError: EXIT_FAIL,
}


def _execute(cfg: dict, out: Path, rng: RngStream) -> None:
    """The task's handler, the shared params, the oracle block, then every
    artifact and report.json. An oracle block that cannot fit the byte
    budget refuses before the handler runs, so no estimate is wasted."""
    task = cfg["task"]
    handler, label = _TASKS[task]
    op = cfg.get("_operator")
    if cfg["with_oracle"] and op is not None:
        oracle.reserve_working_set(2**op.n)
    elif cfg["with_oracle"]:  # compile2d, the one task with no operator
        n = cfg["lattice"]["rows"] * cfg["lattice"]["cols"]
        reserve(_LATTICE_ORACLE_REGISTERS * 16 * 4**n, f"a doubled evolution on {2 * n} qubits")
    rep, own, exact, artifacts = handler(cfg, rng)
    params = {"label": label, **own}
    if op is not None:
        params["n"] = op.n
    if task in _FIELDS["t"].readers:
        params.update(t=cfg["t"], steps=cfg["steps"])
    truth = exact() if cfg["with_oracle"] else None
    pairs = rep if isinstance(rep, list) else None
    doc = {
        "task": task,
        "seed": cfg["seed"],
        **_estimate(pairs[0] if pairs else rep),
        "params": params,
    }
    if pairs:
        exacts = truth if truth is not None else [None] * len(pairs)
        doc["reports"] = [_pair_entry(r, e) for r, e in zip(pairs, exacts)]
    elif truth is not None:
        doc["oracle"] = truth if isinstance(truth, dict) else _delta_block(
            doc["value"], doc["stderr"], truth
        )
    # A non-finite result raises ValueError here, before any artifact is written.
    artifacts["report.json"] = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    for name, body in artifacts.items():
        if isinstance(body, str):
            (out / name).write_text(body)
        else:
            save_state(body, out / name)


def run(config: dict, out_dir=None, with_oracle: bool | None = None,
        seed: int | None = None) -> int:
    """Execute one validated config. Returns the process exit code."""
    cfg = dict(config)
    if seed is not None:
        cfg["seed"] = seed
    if with_oracle is not None:
        cfg["with_oracle"] = with_oracle
    out = Path(out_dir) if out_dir is not None else Path(cfg["out"])
    rng = RngStream(cfg["seed"]).fork(cfg["task"])
    try:
        _execute(cfg, out, rng)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process: building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="opvec",
        description="Seeded Heisenberg-picture experiments with file-based artifacts.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--with-oracle", action="store_true", default=None,
                       help="append exact reference values to the report")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    cfg, errors = validate_config(args.config)
    if errors:
        for line in errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_PARSE
    if cfg["task"] != args.task:
        print(f"config error: config names task {cfg['task']!r}, not {args.task!r}",
              file=sys.stderr)
        return EXIT_PARSE
    return run(cfg, out_dir=args.out, with_oracle=args.with_oracle, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
