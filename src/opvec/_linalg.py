"""Small dense-statevector kernels shared by the vectorization, simulator,
and superoperator layers.

Index convention used everywhere: a K-qubit state is a flat vector whose
reshape to (2,)*K puts qubit 0 on axis 0, i.e. qubit 0 is the most
significant bit of the flat index.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError

# Working memory, in bytes, that one dense allocation may ask for. Every array
# that grows as 2^n or faster states its bytes to :func:`reserve` before it
# is built, so an oversized task exits with CapExceededError instead of
# exhausting memory. Chosen from measured peaks under a 2 GiB address-space
# ceiling (numpy 2.4, one OpenBLAS thread, Linux x86-64): the largest request
# a CLI task made and finished with was 512 MiB (the oracle's working set at
# 11 sites; choi2pc there peaked at 1.12 GB resident, corr at 0.57 GB); the
# smallest that ran out of memory was 1 GiB (choi2pc at 12 sites, evolve at
# 13). Every value in between admits the same runs.
BYTE_BUDGET = 3 << 28


def reserve(nbytes: int, what: str) -> None:
    """Refuse ``what``, before it is allocated, if its ``nbytes`` of working
    memory exceed BYTE_BUDGET."""
    if nbytes > BYTE_BUDGET:
        raise CapExceededError(f"{what} needs {nbytes} bytes; the byte budget allows {BYTE_BUDGET}")


# Largest (target block) x (trailing block) size folded into one matrix,
# mat (x) I_B: many tiny batched products cost far more than one wider product
# over the last axis.
_FOLD = 32

# Amplitudes transposed at a time when a dense block's trailing block is
# narrower than the matrix: each chunk's copy and product stay in L2.
_CHUNK = 1 << 13


def apply_matrix(vec: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], k: int) -> np.ndarray:
    """Apply ``mat`` (2^m x 2^m) to the ``targets`` qubits of a K-qubit vector.

    A 1-D ``mat`` is a diagonal, applied as an elementwise multiply. Targets
    forming an ascending contiguous run are contracted through an (A, D, B)
    reshape with no axis copies of the register: a trailing block with
    D * B <= _FOLD is folded into mat (x) I_B, and a dense ``mat`` whose
    trailing block is still narrower than it (1 < B < D) is applied by one
    GEMM per chunk of about _CHUNK amplitudes transposed to (-1, D), not by
    A products of a D x D by a thin D x B matrix. Any other target order
    moves the target axes to the front and back."""
    m = len(targets)
    lo = targets[0] if m else 0
    if tuple(targets) != tuple(range(lo, lo + m)):
        t = np.moveaxis(vec.reshape((2,) * k), targets, range(m)).reshape(2**m, -1)
        t = (mat[:, None] * t if mat.ndim == 1 else mat @ t).reshape((2,) * k)
        return np.moveaxis(t, range(m), targets).reshape(-1)
    dim, b = 2**m, 2 ** (k - lo - m)
    if 1 < b and dim * b <= _FOLD:
        if mat.ndim == 1:
            mat = np.repeat(mat, b)
        else:
            mat = (mat[:, None, :, None] * np.eye(b)[None, :, None, :]).reshape(dim * b, dim * b)
        dim, b = dim * b, 1
    if b == 1:
        t = vec.reshape(-1, dim)
        out = t * mat if mat.ndim == 1 else t @ mat.T
    elif mat.ndim == 1:
        out = vec.reshape(-1, dim, b) * mat[:, None]
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


def amplitude_matrix(vec: np.ndarray, n: int) -> np.ndarray:
    """View a doubled-register vector (site-interleaved (L,R) pairs) as the
    2^n x 2^n matrix S with S[i, j] = amplitude on |i>_L |j>_R."""
    t = vec.reshape((2,) * (2 * n))
    t = np.transpose(t, [2 * s for s in range(n)] + [2 * s + 1 for s in range(n)])
    return t.reshape(2**n, 2**n).copy()


def from_amplitude_matrix(mat: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`amplitude_matrix`."""
    t = mat.reshape((2,) * (2 * n))
    order = np.argsort([2 * s for s in range(n)] + [2 * s + 1 for s in range(n)])
    return np.transpose(t, order).reshape(-1)


def apply_block(vec: np.ndarray, n: int, left: np.ndarray | None, right: np.ndarray | None) -> np.ndarray:
    """Apply (A x B) with A on all L qubits and B on all R qubits of a
    site-interleaved doubled register: S -> A S B^T in matrix form."""
    s = amplitude_matrix(vec, n)
    if left is not None:
        s = left @ s
    if right is not None:
        s = s @ right.T
    return from_amplitude_matrix(s, n)

