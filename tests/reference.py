"""Dense references that the tests compare production code against, and
the test-only builders they share.

Each reference builds an explicit dense matrix, so each suits small n only:
``transform_matrix`` checks ``bell_transform``, ``walsh_matrix`` checks
``walsh_hadamard``, ``interleaved_kron`` checks ``lifted_pauli``,
``transfer_matrix`` checks ``apply_vectorized``, ``expectation`` and
``to_operator_sum`` below, and ``apply_dense`` checks ``apply_vectorized``.
``to_operator_sum`` writes a diagonal superoperator as the operator-sum
superoperator that the grouped estimators and dense transfer matrices take.
``kron_dense`` checks the Pauli-matrix builders, ``apply_matrix``, the
per-step kernel that ``run_passes`` replaced, checks the pass executor bit
for bit, and ``local_images`` checks the Clifford images that
``conjugate_pauli`` reads from transfer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from opvec._linalg import reserve
from opvec.errors import CapExceededError
from opvec.pauli import SIGMA, PauliString, PauliSum
from opvec.simulator import Gate, gate_matrix
from opvec.superop import DiagonalSuperop, OperatorSumSuperop, walsh_hadamard
from opvec.vectorize import BasisTag, index_pauli

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def transform_matrix(n: int, direction: str) -> np.ndarray:
    """Dense basis-change matrix on the full doubled register: CNOT (H x I)
    per (L, R) site pair from the Pauli rep to the computational rep."""
    base = CNOT @ np.kron(H, np.eye(2))
    if direction == "c_to_p":
        base = base.conj().T
    elif direction != "p_to_c":
        raise ValueError(f"unknown direction {direction!r}")
    out = np.eye(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, base)
    return out


def walsh_matrix(n: int) -> np.ndarray:
    """Dense K, the reference for walsh_hadamard, deliberately capped at n <= 2."""
    if n > 2:
        raise CapExceededError("dense commutation-sign matrix is capped at n=2")
    k = np.empty((4**n, 4**n))
    for i in range(4**n):
        pi = index_pauli(i, n)
        for j in range(4**n):
            k[i, j] = 1.0 if pi.commutes(index_pauli(j, n)) else -1.0
    return k


def interleaved_kron(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """kron(a, b) reordered from [L-block, R-block] to interleaved qubits."""
    block = np.kron(a, b)
    src = np.zeros(4**n, dtype=np.int64)
    for q in range(2 * n):
        site, copy = divmod(q, 2)
        block_pos = site if copy == 0 else n + site
        bit = ((np.arange(4**n) >> (2 * n - 1 - q)) & 1).astype(np.int64)
        src |= bit << (2 * n - 1 - block_pos)
    return block[np.ix_(src, src)]


@dataclass
class TransferMatrix:
    basis: BasisTag
    n: int
    matrix: np.ndarray = field(repr=False)

    @property
    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) < 1e-12)


def _interleaved_term(left: PauliString, right: PauliString, site: np.ndarray) -> np.ndarray:
    """L (x) R^* on the interleaved register, each site's 4x4 block
    conjugated by ``site``."""
    out = np.eye(1, dtype=complex)
    for i in range(left.n):
        block = np.kron(SIGMA[left.site(i)], SIGMA[right.site(i)].conj())
        out = np.kron(out, site @ block @ site.conj().T)
    return out


def transfer_matrix(
    a: OperatorSumSuperop | DiagonalSuperop, basis: BasisTag, n: int | None = None
) -> TransferMatrix:
    """Dense matrix of the superoperator on vectorized states of ``basis``."""
    if n is None:
        n = a.n
    if n != a.n:
        raise ValueError("site count mismatch")
    reserve(16 * 16**n, f"a dense transfer matrix on {n} sites")
    if isinstance(a, DiagonalSuperop):
        m_p = np.diag(a.lam_vector()).astype(complex)
        if basis.kind == "pauli":
            return TransferMatrix(basis, n, m_p)
        r = transform_matrix(n, "c_to_p")
        return TransferMatrix(basis, n, r.conj().T @ m_p @ r)
    # The basis change is a kron of one 4x4 matrix per site, so the Pauli-rep
    # matrix conjugates each site's block by it, with no 4^n-sided product.
    site = transform_matrix(1, "c_to_p") if basis.kind == "pauli" else np.eye(4)
    m = np.zeros((4**n, 4**n), dtype=complex)
    for f, left, right in a.terms:
        m += f * _interleaved_term(left, right, site)
    return TransferMatrix(basis, n, m)


def to_operator_sum(d: DiagonalSuperop) -> OperatorSumSuperop:
    """Diagonal operator-sum form sum_k f_k P_k (.) P_k of ``d``, from its
    sparse coefficients, or from a dense transform when none are stored."""
    if d.f_sparse is not None:
        terms = tuple(
            (f, PauliString(d.n, z, x), PauliString(d.n, z, x))
            for (z, x), f in sorted(d.f_sparse.items())
            if f != 0
        )
        return OperatorSumSuperop(d.n, terms)
    f = walsh_hadamard(d.lam_vector(), d.n, "lambda_to_f")
    terms = []
    for i, fv in enumerate(f):
        if abs(fv) > 1e-14:
            p = index_pauli(i, d.n)
            terms.append((fv, p, p))
    return OperatorSumSuperop(d.n, tuple(terms))


def apply_dense(a: OperatorSumSuperop, op: np.ndarray) -> np.ndarray:
    out = np.zeros_like(op, dtype=complex)
    for f, l, r in a.terms:
        out += f * (l.to_dense() @ op @ r.to_dense())
    return out


def kron_dense(p: PauliString) -> np.ndarray:
    """The word's matrix as the kron chain of its letters' 2x2 matrices."""
    if p.n == 0:
        return np.ones((1, 1), dtype=complex)
    return reduce(np.kron, (SIGMA[p.site(i)] for i in range(p.n)))


def kron_sum(s: PauliSum) -> np.ndarray:
    """The sum's matrix: c times each word's kron chain, added in items() order."""
    out = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for c, p in s.items():
        out += c * kron_dense(p)
    return out


# Amplitudes transposed at a time by apply_matrix's chunked branch.
_CHUNK = 1 << 13


def apply_matrix(vec: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], k: int) -> np.ndarray:
    """``mat`` (2^m x 2^m) on the ``targets`` qubits of a k-qubit vector, as
    one new array: the per-step kernel each register pass used before the
    pass executor. Contiguous ascending targets are an
    (A, D, B) contraction: D * B <= 32 folds into mat (x) I_B, 1 < B < D runs
    one transposed GEMM per chunk of _CHUNK amplitudes, and B >= D one batched
    GEMM. Other target orders move the target axes to the front and back."""
    m = len(targets)
    lo = targets[0] if m else 0
    if tuple(targets) != tuple(range(lo, lo + m)):
        t = np.moveaxis(vec.reshape((2,) * k), targets, range(m)).reshape(2**m, -1)
        t = (mat @ t).reshape((2,) * k)
        return np.moveaxis(t, range(m), targets).reshape(-1)
    dim, b = 2**m, 2 ** (k - lo - m)
    if 1 < b and dim * b <= 32:
        mat = (mat[:, None, :, None] * np.eye(b)[None, :, None, :]).reshape(dim * b, dim * b)
        dim, b = dim * b, 1
    if b == 1:
        out = vec.reshape(-1, dim) @ mat.T
    elif b < dim:
        t = vec.reshape(-1, dim, b)
        out = np.empty(t.shape, dtype=np.result_type(vec, mat))
        rows = max(1, _CHUNK // (dim * b))
        for r in range(0, len(t), rows):
            part = t[r : r + rows].transpose(0, 2, 1).reshape(-1, dim) @ mat.T
            out[r : r + rows] = part.reshape(-1, b, dim).transpose(0, 2, 1)
    else:
        out = mat @ vec.reshape(-1, dim, b)
    return out.reshape(-1)


def apply_steps(vec: np.ndarray, steps: list, k: int, plans: dict | None = None) -> np.ndarray:
    """One :func:`apply_matrix` per (matrix, targets) step, in order, on each
    k-qubit register that ``vec`` holds back to back; it takes
    ``run_passes``'s plans argument, to stand in for it, and plans nothing."""
    if vec.size > 2**k:
        return np.concatenate([apply_steps(reg, steps, k) for reg in vec.reshape(-1, 2**k)])
    for mat, targets in steps:
        vec = apply_matrix(vec, mat, targets, k)
    return vec


def local_images(gate: Gate) -> tuple:
    """C P C^dag of each local word P of ``gate``'s targets, by dense
    conjugation and exact re-identification against every candidate word:
    (phase, z bits, x bits) of the first candidate whose overlap exceeds 1/2
    in modulus, when it is within 1e-9 of a unit phase, else None. It checks
    ``superop._local_images``."""
    m = len(gate.targets)
    words = [index_pauli(idx, m) for idx in range(4**m)]
    dense = [w.to_dense() for w in words]
    g = gate_matrix(gate)
    images = []
    for fac in dense:
        out = g @ fac @ g.conj().T
        image = None
        for cand, cand_dense in zip(words, dense):
            coef = np.trace(cand_dense.conj().T @ out) / 2**m
            if abs(coef) > 0.5:
                snapped = min((1, 1j, -1, -1j), key=lambda ph: abs(ph - coef))
                if abs(snapped - coef) <= 1e-9:
                    image = (snapped, cand.z, cand.x)
                break
        images.append(image)
    return tuple(images)
