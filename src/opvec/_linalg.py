"""Small dense-statevector kernels shared by the vectorization, simulator,
and superoperator layers.

Index convention used everywhere: a K-qubit state of local dimension d is a
flat vector whose reshape to (d,)*K puts qubit 0 on axis 0, i.e. qubit 0 is
the most significant digit of the flat index.
"""

from __future__ import annotations

import numpy as np


def apply_matrix(vec: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], k: int, d: int = 2) -> np.ndarray:
    """Apply ``mat`` (d^m x d^m) to the ``targets`` axes of a K-qudit vector."""
    m = len(targets)
    t = np.moveaxis(vec.reshape((d,) * k), targets, range(m))
    t = (mat @ t.reshape(d**m, -1)).reshape((d,) * k)
    return np.moveaxis(t, range(m), targets).reshape(-1)


def amplitude_matrix(vec: np.ndarray, n: int, d: int = 2) -> np.ndarray:
    """View a doubled-register vector (site-interleaved (L,R) pairs) as the
    d^n x d^n matrix S with S[i, j] = amplitude on |i>_L |j>_R."""
    t = vec.reshape((d,) * (2 * n))
    t = np.transpose(t, [2 * s for s in range(n)] + [2 * s + 1 for s in range(n)])
    return t.reshape(d**n, d**n).copy()


def from_amplitude_matrix(mat: np.ndarray, n: int, d: int = 2) -> np.ndarray:
    """Inverse of :func:`amplitude_matrix`."""
    t = mat.reshape((d,) * (2 * n))
    order = np.argsort([2 * s for s in range(n)] + [2 * s + 1 for s in range(n)])
    return np.transpose(t, order).reshape(-1)


def apply_block(vec: np.ndarray, n: int, left: np.ndarray | None, right: np.ndarray | None, d: int = 2) -> np.ndarray:
    """Apply (A x B) with A on all L qubits and B on all R qubits of a
    site-interleaved doubled register: S -> A S B^T in matrix form."""
    s = amplitude_matrix(vec, n, d)
    if left is not None:
        s = left @ s
    if right is not None:
        s = s @ right.T
    return from_amplitude_matrix(s, n, d)

