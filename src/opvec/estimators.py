"""Sampling-based estimators over vectorized operators.

Every routine draws from exact Born distributions of simulated registers,
threads all randomness through a seeded RngStream, and reports value,
standard error, shot count, and seed together so runs are reproducible
bit-for-bit. Standard errors are sample standard deviations of the
per-shot (or per-repetition) values divided by sqrt(count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import amplitude_matrix, reserve
from .errors import (
    EntangledEigenbasisError,
    NonCommutingSetError,
    ParseError,
)
from .pauli import PauliString
from .simulator import (
    Circuit,
    Gate,
    _P_GRID,
    QState,
    RngStream,
    apply_circuit,
    born_sample,
    heisenberg_doubled,
)
from .superop import (
    ALL_SEPARABLE_COMMUTING,
    NOT_COMMUTING,
    DiagonalSuperop,
    OperatorSumSuperop,
    _is_mirrored,
    classify_commuting_set,
    common_eigenbasis_circuit,
    conjugate_through,
    lifted_pauli,
)
from .vectorize import (
    COMPUTATIONAL,
    PAULI,
    VectorizedState,
    bell_transform,
    index_pauli,
    pauli_index,
    vectorize,
)


@dataclass(frozen=True)
class EmpiricalPauliDist:
    """Observed Pauli-index counts from Born sampling in the Pauli rep."""

    n: int
    counts: dict[int, int]
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")
        if any(c <= 0 for c in self.counts.values()):
            raise ValueError("counts must be positive")

    def to_csv(self) -> str:
        lines = ["pauli_string,count"]
        for k in sorted(self.counts):
            lines.append(f"{index_pauli(k, self.n).label},{self.counts[k]}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str) -> "EmpiricalPauliDist":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "pauli_string,count":
            raise ParseError("expected 'pauli_string,count' header")
        counts: dict[int, int] = {}
        n = None
        for ln, line in enumerate(lines[1:], start=2):
            try:
                label, cnt = line.split(",")
                p = PauliString.from_label(label)
                c = int(cnt)
            except ValueError as exc:
                raise ParseError(f"line {ln}: {exc}") from None
            if n is None:
                n = p.n
            elif p.n != n:
                raise ParseError(f"line {ln}: inconsistent string length")
            if c <= 0:
                raise ParseError(f"line {ln}: count must be positive; got {c}")
            if pauli_index(p) in counts:
                raise ParseError(f"line {ln}: repeated Pauli string {label}")
            counts[pauli_index(p)] = c
        if n is None:
            raise ParseError("empty distribution")
        return EmpiricalPauliDist(n, counts, sum(counts.values()))


@dataclass(frozen=True)
class EstimatorReport:
    value: float
    stderr: float
    shots: int
    seed: int
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if self.shots <= 0:
            raise ValueError("shots must be positive")


@dataclass(frozen=True)
class ShotPlan:
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if sum(self.counts) != self.total:
            raise ValueError("plan does not sum to its total")


def _mean_stderr(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Mean and stderr of a sample given distinct values and their counts."""
    total = int(weights.sum())
    mean = float(values @ weights) / total
    if total < 2:
        return mean, 0.0
    var = float(weights @ (values - mean) ** 2) / (total - 1)
    return mean, math.sqrt(max(var, 0.0) / total)


def allocate_shots(weights, total: int) -> ShotPlan:
    """Proportional allocation with largest-remainder rounding; every
    nonzero-weight group gets at least one shot."""
    w = np.asarray(list(weights), dtype=float)
    if w.size == 0 or np.any(w < 0):
        raise ValueError("weights must be nonnegative and nonempty")
    if not np.any(w > 0):
        raise ValueError("at least one weight must be positive")
    nonzero = int((w > 0).sum())
    if total < nonzero:
        raise ValueError(f"need at least {nonzero} shots for nonzero groups")
    raw = total * w / w.sum()
    counts = np.floor(raw).astype(int)
    remainder = raw - counts
    short = total - counts.sum()
    for idx in sorted(range(w.size), key=lambda i: (-remainder[i], i))[:short]:
        counts[idx] += 1
    for idx in np.flatnonzero((w > 0) & (counts == 0)):
        donor = int(np.argmax(counts))
        counts[donor] -= 1
        counts[idx] += 1
    return ShotPlan(tuple(int(c) for c in counts), total)


# ---------------------------------------------------------------------------
# Pauli-distribution sampling and diagonal Monte Carlo.

def sample_pauli_dist(
    state: VectorizedState, shots: int, rng: RngStream
) -> EmpiricalPauliDist:
    """Born-sample the Pauli-rep register; outcomes are Pauli indices."""
    if state.basis != PAULI:
        raise ValueError("sampling the operator distribution requires the Pauli rep")
    reg = QState(2 * state.n, state.amplitudes)
    counts = born_sample(reg, shots, rng)
    return EmpiricalPauliDist(state.n, counts, shots)


def mc_diagonal(
    dist: EmpiricalPauliDist,
    diag: DiagonalSuperop,
    power: int = 1,
    seed: int = 0,
) -> EstimatorReport:
    """Monte Carlo mean of the diagonal eigenvalue (raised to ``power``,
    for higher moments) over an empirical Pauli distribution."""
    if diag.n != dist.n:
        raise ValueError("site count mismatch")
    if power < 1:
        raise ValueError("power must be a positive integer")
    keys = sorted(dist.counts)
    lam = np.asarray(diag.lam(np.array(keys, dtype=np.int64)), dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalue function is unbounded on the sampled support")
    weights = np.array([dist.counts[k] for k in keys], dtype=float)
    mean, stderr = _mean_stderr(lam**power, weights)
    return EstimatorReport(
        mean,
        stderr,
        dist.shots,
        seed,
        metadata={"observable": diag.label or "diagonal", "power": str(power)},
    )


# ---------------------------------------------------------------------------
# Grouped eigenbasis estimators on the doubled register.

def _eigen_signs(outcomes: np.ndarray, phase: complex, word: PauliString) -> np.ndarray:
    """Eigenvalues of a Z-type word at computational outcomes."""
    if word.x != 0:
        raise ValueError("word is not Z-type")
    if abs(phase.imag) > 1e-12 or abs(abs(phase.real) - 1) > 1e-12:
        raise ValueError("non-real phase on a hermitian word")
    masked = outcomes & _site_bitmask(word)
    parity = np.zeros_like(outcomes)
    for _ in range(masked.dtype.itemsize * 8):
        if not masked.any():
            break
        parity ^= masked & 1
        masked >>= 1
    return phase.real * (1.0 - 2.0 * parity.astype(float))


def _site_bitmask(word: PauliString) -> int:
    """z-mask re-expressed over register bit positions (site i is qubit i,
    qubit k-1 is the least significant index bit)."""
    mask = 0
    for i in range(word.n):
        if (word.z >> i) & 1:
            mask |= 1 << (word.n - 1 - i)
    return mask


def _outcome_weights(counts: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct Born outcomes in ascending order, and how often each came up."""
    outcomes = np.array(sorted(counts), dtype=np.int64)
    return outcomes, np.array([counts[int(o)] for o in outcomes], dtype=float)


def _require_commuting(pairs: list[tuple[PauliString, PauliString]], message: str):
    """The family's commutation class; NonCommutingSetError if it has none."""
    verdict = classify_commuting_set(pairs)
    if verdict.verdict == NOT_COMMUTING:
        raise NonCommutingSetError(message, witness=verdict.witness)
    return verdict


def _pair_report(
    eig: np.ndarray, weights: np.ndarray, shots: int, rng: RngStream,
    left: PauliString, right: PauliString,
) -> EstimatorReport:
    mean, stderr = _mean_stderr(eig, weights)
    return EstimatorReport(
        mean, stderr, shots, rng.seed, metadata={"left": left.label, "right": right.label}
    )


def _measure_family(
    state: VectorizedState,
    pairs: list[tuple[PauliString, PauliString]],
    shots: int,
    rng: RngStream,
    message: str,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Born-sample the doubled register in the common eigenbasis of the
    lifted family {L_i (x) R_i^*}: each pair's eigenvalue at every distinct
    outcome, and the outcome counts. ``message`` heads the
    NonCommutingSetError raised when the family does not commute.

    A mirrored family's eigenbasis circuit, CX then H on each site pair,
    undoes the p_to_c basis change, so a Pauli-rep state is sampled as it
    is; any other state or family is moved to the computational rep and
    through the circuit."""
    _require_commuting(pairs, message)
    lifted = [lifted_pauli(l, r) for l, r in pairs]
    circ = common_eigenbasis_circuit([w for _, w in lifted])
    if state.basis == PAULI and all(_is_mirrored(w) for _, w in lifted):
        reg = QState(2 * state.n, state.amplitudes)
    else:
        s = state if state.basis == COMPUTATIONAL else bell_transform(state, "p_to_c")
        reg = apply_circuit(QState(2 * s.n, s.amplitudes), circ)
    outcomes, weights = _outcome_weights(born_sample(reg, shots, rng))
    eigs = [
        _eigen_signs(outcomes, *conjugate_through(circ, sign, word)) for sign, word in lifted
    ]
    return eigs, weights


def estimate_otoc_group(
    state: VectorizedState,
    pairs: list[tuple[PauliString, PauliString]],
    shots: int,
    rng: RngStream,
) -> list[EstimatorReport]:
    """Estimate every <L_i (x) R_i^*> from one sample set measured in the
    family's common eigenbasis."""
    eigs, weights = _measure_family(
        state, pairs, shots, rng, "pairs do not lift to a commuting family"
    )
    return [
        _pair_report(eig, weights, shots, rng, left, right)
        for (left, right), eig in zip(pairs, eigs)
    ]


def estimate_superop_grouped(
    state: VectorizedState,
    a: OperatorSumSuperop,
    grouping: list[list[int]],
    plan: ShotPlan,
    rng: RngStream,
) -> EstimatorReport:
    """Weighted sum of per-group eigenbasis estimates of an operator-sum
    superoperator expectation. Ungrouped terms must be identity-on-both-sides
    and are added exactly; group errors combine in quadrature."""
    if not a.is_self_adjoint:
        raise ValueError("grouped estimation requires a self-adjoint superoperator")
    if len(plan.counts) != len(grouping):
        raise ValueError("shot plan length does not match grouping")
    seen: set[int] = set()
    for group in grouping:
        for idx in group:
            if idx < 0 or idx >= len(a.terms):
                raise ValueError(f"term index {idx} out of range")
            if idx in seen:
                raise ValueError(f"term index {idx} grouped twice")
            seen.add(idx)
    exact = 0.0
    for idx, (f, left, right) in enumerate(a.terms):
        if idx in seen:
            continue
        if left.weight or right.weight:
            raise ValueError(f"non-identity term {idx} left out of the grouping")
        exact += f.real
    s = state if state.basis == COMPUTATIONAL else bell_transform(state, "p_to_c")
    value = exact
    var = 0.0
    total = 0
    for gi, group in enumerate(grouping):
        if not group:
            continue
        gshots = plan.counts[gi]
        if gshots < 1:
            raise ValueError(f"group {gi} got no shots")
        terms = [a.terms[idx] for idx in group]
        if any(abs(f.imag) > 1e-12 for f, _, _ in terms):
            raise ValueError("grouped terms need real coefficients")
        eigs, weights = _measure_family(
            s, [(l, r) for _, l, r in terms], gshots, rng.fork(f"group{gi}"),
            f"group {gi} is not a commuting family",
        )
        per_shot = np.zeros(weights.shape, dtype=float)
        for (f, _, _), eig in zip(terms, eigs):
            per_shot += f.real * eig
        mean, stderr = _mean_stderr(per_shot, weights)
        value += mean
        var += stderr**2
        total += gshots
    if total == 0:
        raise ValueError("grouping contains no sampled terms")
    return EstimatorReport(
        value,
        math.sqrt(var),
        total,
        rng.seed,
        metadata={"groups": str(len(grouping))},
    )


# ---------------------------------------------------------------------------
# Operator stabilizer entropy.

@dataclass(frozen=True)
class OseEstimate:
    purity: EstimatorReport
    entropy: float


def ose_shot_counts(alpha: int, epsilon: float, delta: float) -> tuple[int, int]:
    """(outer sample count M, inner budget N) for additive error epsilon
    with failure probability delta."""
    m = math.ceil(2 * math.log(4 / delta) / epsilon**2)
    n = math.ceil(2 * (alpha - 1) * math.log(4 / delta) / epsilon**2)
    return m, n


# Bytes per outer sample that estimate_ose states to the budget. Its peak is
# three 8-byte arrays per sample: the drawn indices and two of the choice's
# uniform draws, the success probabilities, the inner counts and their
# means. 24.0-24.1 B per sample by tracemalloc at 10^6 and 10^7 samples,
# n = 3 and 5, alpha = 2 and 3.
_OSE_SAMPLE_BYTES = 32


def estimate_ose(
    state: VectorizedState,
    alpha: int,
    epsilon: float,
    delta: float,
    rng: RngStream,
) -> OseEstimate:
    """Stabilizer purity of order alpha and the matching entropy.

    Outer loop draws M Pauli-rep samples k_i; each inner repetition is an
    unbiased estimate of p_k^(alpha-1) from alpha-1 independent outcome
    indicators, drawn here as a single Bernoulli with the product success
    probability (identical in distribution). Inner budget splits uniformly,
    m_i = ceil(N/M). All M inner counts are one binomial call, which draws
    them in sample order, as one call per sample would.
    """
    if alpha < 2:
        raise ValueError("purity order must be an integer >= 2")
    if state.basis != PAULI:
        raise ValueError("stabilizer entropy samples the Pauli rep")
    m, n = ose_shot_counts(alpha, epsilon, delta)
    m_inner = math.ceil(n / m)
    p = np.abs(state.amplitudes) ** 2
    p = p / p.sum()
    outer_rng = rng.fork("outer").generator
    inner_rng = rng.fork("inner").generator
    reserve(_OSE_SAMPLE_BYTES * m, f"{m} stabilizer-entropy samples")
    ks = outer_rng.choice(p.size, size=m, p=p)
    zbars = inner_rng.binomial(m_inner, p[ks] ** (alpha - 1)) / m_inner
    mean = float(zbars.mean())
    stderr = float(zbars.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    entropy = math.log(mean) / (1 - alpha) if mean > 0 else math.inf
    report = EstimatorReport(
        mean,
        stderr,
        m * (1 + m_inner * (alpha - 1)),
        rng.seed,
        metadata={
            "alpha": str(alpha),
            "epsilon": repr(epsilon),
            "delta": repr(delta),
            "outer": str(m),
            "inner_per_sample": str(m_inner),
        },
    )
    return OseEstimate(report, entropy)


# ---------------------------------------------------------------------------
# Linearized operator entanglement via the destructive SWAP test.

def _even_sign_probability(
    state_a: VectorizedState, state_b: VectorizedState, sites: list[int]
) -> float:
    """(1 + tr(rho_a rho_b)) / 2 in [0, 1], rho the copies' reduced states on
    both qubits of each measured site, in the rep the copies arrive in. With
    M a copy's amplitudes as a (measured, rest) matrix, tr(rho_a rho_b) is
    also ||M_a^dag M_b||_F^2, so the overlap is read on the smaller side of
    the cut, m = min(|A|, n-|A|) sites, in matrices of 16^m entries, each
    stated to the byte budget before it is built."""
    n, k = state_a.n, len(sites)
    same = np.array_equal(state_a.amplitudes, state_b.amplitudes)
    m = min(k, n - k)
    built = 1 if same or 2 * k > n else 2
    reserve(16 * 16**m * built, f"the swap test's reduced states on {m} sites")
    qubits = [q for s in sites for q in (2 * s, 2 * s + 1)]

    def split(state: VectorizedState) -> np.ndarray:
        amps = np.moveaxis(state.amplitudes.reshape((2,) * (2 * n)), qubits, range(2 * k))
        return amps.reshape(4**k, -1)

    ma = split(state_a)
    mb = ma if same else split(state_b)
    if 2 * k > n:
        rest = ma.conj().T @ mb
        overlap = np.vdot(rest, rest).real
    else:
        rho_a = ma @ ma.conj().T
        overlap = np.vdot(rho_a if same else mb @ mb.conj().T, rho_a).real
    overlap /= np.vdot(ma, ma).real * np.vdot(mb, mb).real
    return min(max((1.0 + overlap) / 2, 0.0), 1.0)


def estimate_loe2(
    state_a: VectorizedState,
    state_b: VectorizedState,
    partition,
    shots: int,
    rng: RngStream,
) -> EstimatorReport:
    """1 - tr(rho_A^2) from the destructive swap test across two copies.

    Each shot measures every register qubit of the partition's (left, right)
    pairs against its twin in the other copy in the Bell basis and reads -1
    on an odd number of singlets, so it reads +1 with probability (1 +
    tr(rho_A^a rho_A^b)) / 2. The +1 count is one binomial draw at that
    probability, rounded to a multiple of 1/_P_GRID as in
    :func:`estimate_corr_interferometric` and taken from the copies' reduced
    states in either rep: no two-copy register, no table of Bell outcomes
    and no basis change. The overlap is read on the smaller side of the cut,
    m = min(|A|, n-|A|) sites, in matrices of 16^m entries.
    """
    if state_a.n != state_b.n or state_a.basis != state_b.basis:
        raise ValueError("copies must share site count and rep")
    n = state_a.n
    sites = sorted(set(partition))
    if not sites or len(sites) == n:
        raise ValueError("partition must be a nonempty proper subset of sites")
    if sites[0] < 0 or sites[-1] >= n:
        raise ValueError("partition site out of range")
    p_even = _even_sign_probability(state_a, state_b, sites)
    even = int(rng.generator.binomial(shots, round(p_even * _P_GRID) / _P_GRID))
    purity, stderr = _mean_stderr(np.array([1.0, -1.0]), np.array([even, shots - even], dtype=float))
    return EstimatorReport(
        1.0 - purity,
        stderr,
        shots,
        rng.seed,
        metadata={"partition": ",".join(str(s) for s in sites), "purity": repr(purity)},
    )


# ---------------------------------------------------------------------------
# Interferometric two-point correlator.

def estimate_corr_interferometric(
    state: QState, shots: int, rng: RngStream
) -> EstimatorReport:
    """Empirical <X> on the ancilla (the register's last qubit): of
    ``shots`` X measurements, the number reading +1 is one binomial draw at
    p = (1 + <X>)/2, with <X> = 2 Re sum_i conj(a_i0) a_i1 / |a|^2 from the
    amplitudes a_i0, a_i1 of ancilla 0 and 1."""
    if state.k % 2 != 1:
        raise ValueError("expected a doubled register plus one ancilla")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    pairs = state.amplitudes.reshape(-1, 2)
    a0, a1 = pairs[:, 0], pairs[:, 1]
    x = 2 * np.vdot(a0, a1).real / (np.vdot(a0, a0).real + np.vdot(a1, a1).real)
    plus = int(rng.generator.binomial(shots, round((1 + x) / 2 * _P_GRID) / _P_GRID))
    mean, stderr = _mean_stderr(np.array([1.0, -1.0]), np.array([plus, shots - plus], dtype=float))
    return EstimatorReport(mean, stderr, shots, rng.seed, metadata={"basis": "x"})


# ---------------------------------------------------------------------------
# n-qubit randomized sampler and its OTOC estimator.

# Bytes per shot that nqubit_sample states to the budget. Its peak is four
# 8-byte arrays per shot (the column and threshold draws, the argsort order
# and the drawn rows) and the sort's scratch, then the column draws, the rows
# and the 16-byte output pairs: 40.0-40.1 B per shot by tracemalloc at 10^6
# shots for n = 3, 5 and 7, and 41.4 at 10^5 shots for n = 7. Counting the
# pairs afterwards holds the output and 18 B more per shot.
_NQUBIT_SHOT_BYTES = 48


def nqubit_sample(w: np.ndarray, shots: int, rng: RngStream) -> np.ndarray:
    """Pairs (i, j) sampled with probability |W_ji|^2 over uniform i, for a
    2^n x 2^n unitary W; returned as an int array of shape (shots, 2).

    Every column i's shots take one searchsorted call on that column's
    cumulative distribution, in the order the shots were drawn. The
    per-shot arrays are stated to the byte budget before the first draw."""
    dim = w.shape[0]
    if w.shape != (dim, dim):
        raise ValueError(f"W must be a square matrix; got shape {w.shape}")
    reserve(_NQUBIT_SHOT_BYTES * shots, f"{shots} nqubit shots")
    cdfs = np.cumsum(np.abs(w) ** 2, axis=0)
    cdfs /= cdfs[-1]
    gen = rng.generator
    i_arr = gen.integers(0, dim, size=shots)
    u_arr = gen.random(shots)
    j_arr = np.empty(shots, dtype=np.int64)
    order = np.argsort(i_arr, kind="stable")
    bounds = np.cumsum(np.bincount(i_arr, minlength=dim))[:-1]
    for i, group in enumerate(np.split(order, bounds)):
        j_arr[group] = np.searchsorted(cdfs[:, i], u_arr[group], side="right")
    del order, u_arr
    return np.stack([i_arr, j_arr], axis=1)


# The complex conjugate of each gate an eigenbasis circuit is made of.
_CONJUGATE_NAME = {"h": "h", "s": "sdg", "sdg": "s", "cx": "cx", "cz": "cz"}


def _count_pairs(samples: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (shots, 2) array of n-bit outcome pairs in
    (i, j) order, and their counts, as np.unique(samples, axis=0,
    return_counts=True) gives them, counted on one int64 key (i << n) | j."""
    keys, cnt = np.unique((samples[:, 0] << n) | samples[:, 1], return_counts=True)
    return np.stack([keys >> n, keys & ((1 << n) - 1)], axis=1), cnt


def nqubit_otoc(
    op: PauliString,
    u: Circuit,
    pairs: list[tuple[PauliString, PauliString]],
    shots: int,
    rng: RngStream,
) -> list[EstimatorReport]:
    """Correlators of a conjugated Pauli against separable commuting pairs,
    from single-register sampling. Left words must commute pairwise and so
    must right words; families that only commute after lifting are rejected.

    U^dag P U comes from the transfer path: :func:`heisenberg_doubled` of
    ||P>>, then the computational rep, where its row bits sit on register
    qubits 2q and its column bits on 2q+1. The left eigenbasis circuit D_L
    runs on the row qubits and the complex conjugate of the right one, D_R,
    on the column qubits, which gives ||D_L U^dag P U D_R^dag>>. Its
    amplitude matrix times 2^(n/2) is the unitary W that
    :func:`nqubit_sample` draws from."""
    n = op.n
    if u.k != n:
        raise ValueError("circuit acts on a different qubit count")
    verdict = _require_commuting(pairs, "pairs do not lift to a commuting family")
    if verdict.verdict != ALL_SEPARABLE_COMMUTING:
        raise EntangledEigenbasisError(
            "family requires an eigenbasis entangling the two copies",
            witness=verdict.witness,
        )
    diag_left = common_eigenbasis_circuit([l for l, _ in pairs])
    diag_right = common_eigenbasis_circuit([r for _, r in pairs])
    evolved = heisenberg_doubled(vectorize(op, PAULI), u)
    reg = QState(2 * n, bell_transform(evolved, "p_to_c").amplitudes)
    gates = [Gate(g.name, tuple(2 * q for q in g.targets)) for g in diag_left.gates]
    gates += [
        Gate(_CONJUGATE_NAME[g.name], tuple(2 * q + 1 for q in g.targets))
        for g in diag_right.gates
    ]
    reg = apply_circuit(reg, Circuit(2 * n, gates))
    w = math.sqrt(2**n) * amplitude_matrix(reg.amplitudes, n)
    samples = nqubit_sample(w, shots, rng)
    uniq, cnt = _count_pairs(samples, n)
    weights = cnt.astype(float)
    reports = []
    for left, right in pairs:
        eig = _eigen_signs(uniq[:, 1], *conjugate_through(diag_left, 1.0, left))
        eig = eig * _eigen_signs(uniq[:, 0], *conjugate_through(diag_right, 1.0, right))
        reports.append(_pair_report(eig, weights, shots, rng, left, right))
    return reports
