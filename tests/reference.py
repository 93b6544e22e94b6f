"""Dense references that the tests compare production code against.

Each builds an explicit dense matrix, so each suits small n only:
``transform_matrix`` checks ``bell_transform``, ``walsh_matrix`` checks
``walsh_hadamard``, ``interleaved_kron`` checks ``lifted_pauli``, and
``transfer_matrix`` checks ``to_operator_sum``, ``apply_vectorized`` and
``expectation``, and ``apply_dense`` checks ``apply_vectorized``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from opvec._linalg import reserve
from opvec.errors import CapExceededError
from opvec.pauli import SIGMA, PauliString
from opvec.superop import DiagonalSuperop, OperatorSumSuperop
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


def _interleaved_term(left: PauliString, right: PauliString) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for i in range(left.n):
        block = np.kron(SIGMA[left.site(i)], SIGMA[right.site(i)].conj())
        out = np.kron(out, block)
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
    m_c = np.zeros((4**n, 4**n), dtype=complex)
    for f, left, right in a.terms:
        m_c += f * _interleaved_term(left, right)
    if basis.kind == "computational":
        return TransferMatrix(basis, n, m_c)
    r = transform_matrix(n, "c_to_p")
    return TransferMatrix(basis, n, r @ m_c @ r.conj().T)


def apply_dense(a: OperatorSumSuperop, op: np.ndarray) -> np.ndarray:
    out = np.zeros_like(op, dtype=complex)
    for f, l, r in a.terms:
        out += f * (l.to_dense() @ op @ r.to_dense())
    return out
