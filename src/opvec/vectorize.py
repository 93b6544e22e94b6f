"""Operator-to-state vectorization and the basis changes between its
representations.

An n-site operator O with expansion O = sum_k c_k Q_k over an orthogonal
operator basis {Q_k} (tr(Q_j^dag Q_k) = N delta_jk) maps to the unit vector
whose k-th amplitude is c_k / sqrt(sum_i |c_i|^2) on a register of 2n
qubits. Two bases are supported:

* computational: Q = |i><j| products per site (N = 1). The doubled register
  stores the (row, column) indices of each site as an adjacent qubit pair
  [site0_L, site0_R, site1_L, site1_R, ...], so this is row-stacking of the
  matrix with site-interleaved index bits.
* pauli: Q = Z^z X^x products per site (N = 2^n). The index packs each
  site's (z, x) as two bits in the same interleaved order. A standard Pauli
  word contributes its coefficient times (-i) per Y site, since
  Y = -i Z X.

The two representations are related by a local basis change acting on each
(L, R) qubit pair, one real orthogonal 4x4 matrix, so states can be moved
freely between representations.

In the Pauli rep a sandwich L (.) R of two Pauli words is a signed
permutation: the amplitude of Q_k moves to index k ^ idx(L) ^ idx(R), times
a phase that is a product of one factor per site.

Vectors are serialized to a small binary format: a 13-byte header
(magic "OPV1", basis tag byte, uint32 n, uint32 local dimension, which is
always 2, little-endian) followed by the amplitudes as little-endian
complex64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ._linalg import amplitude_matrix, from_amplitude_matrix, reserve, run_passes
from .errors import ParseError
from .pauli import SIGMA, PauliString, PauliSum

_MAGIC = b"OPV1"
_TAG_CODES = {"computational": 0, "pauli": 1}
_TAG_NAMES = {v: k for k, v in _TAG_CODES.items()}

NORM_TOL = 1e-12


@dataclass(frozen=True)
class BasisTag:
    kind: str

    def __post_init__(self):
        if self.kind not in _TAG_CODES:
            raise ValueError(f"unknown basis kind {self.kind!r}")


COMPUTATIONAL = BasisTag("computational")
PAULI = BasisTag("pauli")


@dataclass
class VectorizedState:
    """Unit vector on 2n qubits representing an n-site operator."""

    n: int
    basis: BasisTag
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        want = 4**self.n
        if self.amplitudes.shape[0] != want:
            raise ValueError(f"expected {want} amplitudes, got {self.amplitudes.shape[0]}")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"vectorized states are unit norm; got {norm!r}")


# ---------------------------------------------------------------------------
# Pauli index codec: site i's (z_i, x_i) occupy index bits (2i, 2i+1),
# site 0 most significant.

def pauli_index(p: PauliString) -> int:
    idx = 0
    for i in range(p.n):
        idx = (idx << 2) | (((p.z >> i) & 1) << 1) | ((p.x >> i) & 1)
    return idx


def index_pauli(idx: int, n: int) -> PauliString:
    if not 0 <= idx < 4**n:
        raise ValueError(f"index {idx} outside 4^{n}")
    z = x = 0
    for i in reversed(range(n)):
        x |= (idx & 1) << i
        z |= ((idx >> 1) & 1) << i
        idx >>= 2
    return PauliString(n, z, x)


# ---------------------------------------------------------------------------
# Local basis-change transforms.

# The real orthogonal matrix taking a Pauli-rep (L, R) pair to the
# computational rep, CNOT (H x I); its transpose takes it back. Both act on
# the float64 view of a complex register, whose last qubit is re/im, so the
# basis change makes no complex product.
_BELL = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]]) / np.sqrt(2)
_BELL.setflags(write=False)
_BELL_TO = {"p_to_c": (_BELL, COMPUTATIONAL), "c_to_p": (_BELL.T, PAULI)}

# The plans of each direction's n pair passes, by (direction, n), made on
# first use and kept, as the matrices are these constants: at most two folds
# of the 4x4 matrix with the identity on the trailing qubits (8x8 and 32x32,
# 8.6 KiB) and n bound kernels each.
_BELL_PLANS: dict[tuple[str, int], dict] = {}


def bell_transform(state: VectorizedState, direction: str) -> VectorizedState:
    """Change a state between the computational and Pauli reps.

    direction: "c_to_p" or "p_to_c". Acts as one fixed real two-qubit
    orthogonal matrix per (L, R) site pair, on the register's real and
    imaginary parts alike; the two directions are each other's transpose,
    so they compose to the identity up to rounding.
    """
    if direction not in _BELL_TO:
        raise ValueError(f"unknown direction {direction!r}")
    out_basis = _BELL_TO[direction][1]
    if state.basis == out_basis:
        raise ValueError(f"state is already in {out_basis.kind!r}")
    return VectorizedState(state.n, out_basis, _bell_passes(state.amplitudes, state.n, direction))


def _bell_passes(amps: np.ndarray, n: int, direction: str) -> np.ndarray:
    """The amplitudes of :func:`bell_transform`, of any norm."""
    steps = [(_BELL_TO[direction][0], (2 * site, 2 * site + 1)) for site in range(n)]
    plans = _BELL_PLANS.setdefault((direction, n), {})
    floats = np.ascontiguousarray(amps).view(np.float64)
    return run_passes(floats, steps, 2 * n + 1, plans).view(complex)


# ---------------------------------------------------------------------------
# Pauli words acting on the Pauli rep.

# _SANDWICH[l, r, d]: the phase of sigma_l Q_{d ^ l ^ r} sigma_r = phase Q_d
# on one site, with sigma the standard words and Q = Z^z X^x the product
# forms, all indexed by the digit 2z + x (I, X, Z, Y). Every entry is exactly
# 1, -1, 1j or -1j.
_PRODUCT_FORMS = (SIGMA["I"], SIGMA["X"], SIGMA["Z"], SIGMA["Z"] @ SIGMA["X"])
_WORDS = tuple(SIGMA[c] for c in "IXZY")
_SANDWICH = np.array([[[
    np.trace(_PRODUCT_FORMS[d].conj().T @ _WORDS[l] @ _PRODUCT_FORMS[d ^ l ^ r] @ _WORDS[r]) / 2
    for d in range(4)] for r in range(4)] for l in range(4)])
_SANDWICH.setflags(write=False)


def apply_pauli_terms(amps: np.ndarray, n: int, terms) -> np.ndarray:
    """sum f L (.) R over the (f, L, R) terms, Hermitian Pauli words L and R,
    on the 4^n Pauli-rep amplitudes ``amps``, as a new array (the norm is
    not kept). Each term is one gather of ``amps`` at j ^ idx(L) ^ idx(R),
    times f and the outer product of each site's row of _SANDWICH, site 0
    first: no dense matrix is built."""
    size = 4**n
    # The sum, one term's gathered amplitudes and phases, and two index vectors.
    reserve(4 * 16 * size, f"a sum of Pauli sandwiches on {2 * n} qubits")
    idx = np.arange(size)
    out = np.zeros(size, dtype=complex)
    term = np.empty(size, dtype=complex)
    for f, left, right in terms:
        li, ri = pauli_index(left), pauli_index(right)
        phase = np.full(1, f, dtype=complex)
        for shift in range(2 * n - 2, -1, -2):
            phase = np.multiply.outer(phase, _SANDWICH[(li >> shift) & 3, (ri >> shift) & 3])
        # Every index is in range; under the default mode="raise" numpy
        # would gather into a temporary and copy it into ``term``.
        np.take(amps, idx ^ (li ^ ri), out=term, mode="wrap")
        term *= phase.reshape(-1)
        out += term
    return out


# ---------------------------------------------------------------------------
# The map itself.

def vectorize(op: PauliString | PauliSum | np.ndarray, basis: BasisTag) -> VectorizedState:
    """Map an operator to its unit-norm vectorized state in ``basis``.

    Accepts a Pauli word or sum or a dense square matrix of dimension 2^n.
    The zero operator has no direction and is rejected.
    """
    if isinstance(op, PauliString):
        op = PauliSum.from_terms([(1.0, op)])
    if isinstance(op, PauliSum):
        reserve(16 * 4**op.n, f"a register of {2 * op.n} qubits")
        amps = np.zeros(4**op.n, dtype=complex)
        if basis == PAULI:
            for c, p in op.items():
                amps[pauli_index(p)] = c * (-1j) ** p.y_count
        else:
            # Each word's row values, added term by term as PauliSum.to_dense
            # adds them, at the interleaved index of (row, row ^ xmask).
            rows = _spread(np.arange(2**op.n), op.n)
            for c, p in op.items():
                amps[(rows << 1) | (rows ^ _spread(p.xmask, op.n))] += c * p.row_values()
        return _normalized(op.n, basis, amps, out=amps)
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be a square matrix")
    n = (mat.shape[0] - 1).bit_length()
    if mat.shape[0] != 1 << n:
        raise ValueError(f"dimension {mat.shape[0]} is not a power of 2")
    reserve(16 * 4**n, f"a register of {2 * n} qubits")
    state = _normalized(n, COMPUTATIONAL, from_amplitude_matrix(mat, n))
    return state if basis.kind == "computational" else bell_transform(state, "c_to_p")


def _spread(bits, n: int):
    """Bit j of each of ``bits`` (n bits) moved to bit 2j: a row or column
    index as the L or R bits of an interleaved register index."""
    out = bits & 1
    for j in range(1, n):
        out = out | (((bits >> j) & 1) << (2 * j))
    return out


def _normalized(n: int, basis: BasisTag, amps: np.ndarray, out=None) -> VectorizedState:
    """The state of ``amps`` divided by their norm, written into ``out`` when
    given (the caller's own array, so no second register is made)."""
    norm = np.linalg.norm(amps)
    if norm < 1e-300:
        raise ValueError("cannot vectorize the zero operator")
    return VectorizedState(n, basis, np.divide(amps, norm, out=out))


def devectorize(state: VectorizedState) -> np.ndarray:
    """Dense unit-HS-norm operator whose expansion amplitudes are the state."""
    if state.basis.kind != "computational":
        state = bell_transform(state, "p_to_c")
    return amplitude_matrix(state.amplitudes, state.n)


# ---------------------------------------------------------------------------
# Binary serialization.

def save_state(state: VectorizedState, path) -> None:
    header = struct.pack("<4sBII", _MAGIC, _TAG_CODES[state.basis.kind], state.n, 2)
    payload = state.amplitudes.astype("<c8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)


def load_state(path) -> VectorizedState:
    """Read a state file; a malformed header or payload is a ParseError."""
    with open(path, "rb") as fh:
        header = fh.read(13)
        if len(header) != 13:
            raise ParseError("truncated state file header")
        magic, tag, n, d = struct.unpack("<4sBII", header)
        if magic != _MAGIC:
            raise ParseError("not a vectorized-state file")
        if tag not in _TAG_NAMES:
            raise ParseError(f"unknown basis tag {tag}")
        if d != 2:
            raise ParseError(f"local dimension {d} in header; states are on qubits")
        payload = np.frombuffer(fh.read(), dtype="<c8")
    # Past 32 sites no payload could hold 4^n amplitudes, so the power is
    # never computed.
    if n > 32 or payload.shape[0] != 4**n:
        raise ParseError(f"expected 4^{n} amplitudes, found {payload.shape[0]}")
    amps = payload.astype(complex)
    norm = np.linalg.norm(amps)
    if not 0 < norm < np.inf:
        raise ParseError(f"payload norm {norm!r} cannot be normalized")
    # complex64 round-off can leave the norm slightly off; renormalize.
    return VectorizedState(n, BasisTag(_TAG_NAMES[tag]), amps / norm)
