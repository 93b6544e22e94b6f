"""Exact dense ground truth for every sampled quantity. Every function
reserves its dense matrices against the byte budget before it builds them.

Everything here is brute-force linear algebra on 2^n x 2^n matrices:
conjugation by explicit propagators from hermitian eigendecompositions,
trace formulas and reduced density matrices. None of the
vectorized-register or circuit kernels are used, so agreement with the
estimator stack is a genuine cross-check rather than a tautology.

The propagator of a Pauli-sum Hamiltonian stays dense and exact, but is
computed per symmetry sector: a Pauli word moves basis state b only to
b ^ x_P, so H is block-diagonal on the cosets of the span of its terms'
x masks, and one batched ``eigh`` diagonalizes every block. The transverse
Ising chain has two sectors (the parity sectors) and a diagonal H has 2^n
of size 1. The oracle falls back to one sector, the whole matrix, when the
masks span every bit (an X field on every site, or the chain's XX bonds
plus any word with an odd number of X and Y letters) or when H is given as
a dense matrix. On the Ising chain (numpy 2.4, one OpenBLAS thread,
x86-64), U^dag Z_0 U took 1.9 ms against 2.5 ms for one block at 7 sites,
and 0.21 s against 0.65 s at 10; the propagator alone 0.13 s against
0.39 s at 10.

The eigensystem of the last Pauli-sum Hamiltonian, its sectors with one
eigenvector matrix each, is kept in one read-only entry keyed by the sum's
content, so every later call under the same H, at any t, skips the ``eigh``
and forms U from the same bits. It holds about 64 KiB at 7 sites (the Ising
chain's two real sectors) and up to 64 MiB for one complex sector at 11.

On Pauli words, the OTOC trace tr(O^dag P O Q) is vdot(P O, O Q) with each
side O permuted and scaled by one word, with no dense product.

Entropies use the natural logarithm throughout.
"""

from __future__ import annotations

import numpy as np

from ._linalg import reserve, size_text
from .pauli import SIGMA, PauliString, PauliSum

# Largest unitarity, completeness or imaginary residue accepted as rounding.
_TOLERANCE = 1e-10

# Dense matrices of one size that an oracle computation holds at once, with
# its inputs, products and LAPACK workspace. Peak resident growth measured at
# 9 and 10 sites (numpy 2.4, one OpenBLAS thread): on one sector (the Ising
# chain plus a YZ bond), 5.5 matrices for propagator and 6.5 for heisenberg;
# on the chain's two sectors, 2.9 and 4.5 (3.8 and 4.8 with a complex XY
# bond). exact_otoc on Pauli words holds 4 with its operator (tracemalloc at
# 9 sites; 6 before it skipped the dense products).
# The eigensystem kept between calls is at most one more matrix, for one
# complex sector, and a quarter of one on the Ising chain: by tracemalloc at
# 9 sites with one complex sector kept, a whole CLI run peaked at most that
# one matrix higher than with none kept (corr 7 to 8, choi2pc 11 to 12).
_HELD = 8


def reserve_working_set(dim: int) -> None:
    """Refuse an oracle computation at dimension ``dim``, before anything is
    built, if the dense matrices it holds exceed the byte budget."""
    reserve(_HELD * 16 * dim**2, f"the oracle's working set at dimension {size_text(dim)}")


def dense(op) -> np.ndarray:
    """The operator as a square matrix, once the matrices an oracle
    computation holds at its size fit the byte budget. Every oracle function
    and every CLI oracle block starts here."""
    if isinstance(op, (PauliString, PauliSum)):
        dim = 2**op.n
    else:
        op = np.asarray(op, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("operator must be square")
        dim = op.shape[0]
    reserve_working_set(dim)
    return op if isinstance(op, np.ndarray) else op.to_dense()


def _sites(mat: np.ndarray) -> int:
    n = int(round(np.log2(mat.shape[0])))
    if 2**n != mat.shape[0]:
        raise ValueError("dimension is not a power of 2")
    return n


def _sectors(h, dim: int) -> np.ndarray:
    """The basis indices of H's symmetry sectors, one sector per row, of
    shape (C, m). A Pauli word with x mask x_P links basis state b only to
    b ^ x_P, so a Pauli sum is block-diagonal on the cosets of the GF(2)
    span of its x masks: m = 2^rank, C = 2^(n - rank). Each index is labelled
    by its coset representative, reduced against an echelon basis of the
    masks, and a stable sort groups the labels, so each row ascends. Any
    other input is one sector of all ``dim`` indices."""
    if not isinstance(h, PauliSum):
        return np.arange(dim)[None, :]
    pivots: dict[int, int] = {}  # leading bit -> echelon basis vector
    for z, x in h.terms:
        v = PauliString(h.n, z, x).xmask
        for bit in sorted(pivots, reverse=True):
            if v >> bit & 1:
                v ^= pivots[bit]
        if v:
            pivots[v.bit_length() - 1] = v
    labels = np.arange(2**h.n)
    for bit in sorted(pivots, reverse=True):
        labels ^= np.where(labels >> bit & 1, pivots[bit], 0)
    return np.argsort(labels, kind="stable").reshape(-1, 2 ** len(pivots))


# The eigensystem (:func:`_eigensystem`) of the last Pauli-sum Hamiltonian
# diagonalized, as (key, (sec, evals, vecs)), or None.
_KEPT: tuple | None = None


def _key(h: PauliSum) -> tuple:
    """H's content: its site count, and its terms in ``to_dense``'s order with
    their coefficients by their bits, so that 0.0 and -0.0 differ."""
    terms = sorted(h.terms.items())
    return h.n, tuple(k for k, _ in terms), np.array([c for _, c in terms], dtype=complex).tobytes()


def _eigensystem(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H's sectors (:func:`_sectors`), of shape (C, m), with the eigenvalues,
    (C, m), and eigenvectors, (C, m, m), of its diagonal blocks, from one
    batched hermitian ``eigh``, all read-only. Blocks with no imaginary part,
    as from Pauli words with an even number of Ys each, are diagonalized as
    real symmetric matrices. A Pauli sum's eigensystem is kept in one slot,
    keyed by :func:`_key`, so a later call with a sum of the same content
    reuses it; a call that misses empties the slot before it builds, so the
    working set it reserves still bounds the peak. A dense H is never kept."""
    global _KEPT
    key = _key(h) if isinstance(h, PauliSum) else None
    if key is not None and _KEPT is not None and _KEPT[0] == key:
        reserve_working_set(2**h.n)
        return _KEPT[1]
    _KEPT = None
    hm = dense(h)
    sec = _sectors(h, len(hm))
    blocks = hm[None] if len(sec) == 1 else hm[sec[:, :, None], sec[:, None, :]]
    if np.max(np.abs(blocks - blocks.conj().transpose(0, 2, 1))) > 1e-12:
        raise ValueError("Hamiltonian must be hermitian")
    eig = (sec, *np.linalg.eigh(blocks if blocks.imag.any() else blocks.real))
    for a in eig:
        a.flags.writeable = False
    if key is not None:
        _KEPT = key, eig
    return eig


def _propagator_blocks(h, t: float) -> tuple[np.ndarray, np.ndarray]:
    """H's sectors and e^{-iHt} on each, of shape (C, m, m), from its
    eigensystem (:func:`_eigensystem`). A real eigensystem forms each block
    of U from two real products, (V cos Et) V^T - i (V sin Et) V^T."""
    sec, evals, vecs = _eigensystem(h)
    if np.iscomplexobj(vecs):
        phases = np.exp(-1j * evals * t)[:, None, :]
        return sec, (vecs * phases) @ vecs.conj().transpose(0, 2, 1)
    vecs_t = vecs.transpose(0, 2, 1)
    u = np.empty(vecs.shape, dtype=complex)
    u.real = (vecs * np.cos(evals * t)[:, None, :]) @ vecs_t
    u.imag = (vecs * -np.sin(evals * t)[:, None, :]) @ vecs_t
    return sec, u


def propagator(h, t: float) -> np.ndarray:
    """e^{-iHt}, block by block on H's symmetry sectors, scattered into one
    2^n x 2^n matrix (:func:`_propagator_blocks`). A dense-matrix H, or a
    Pauli sum whose x masks span every bit, is one block."""
    sec, blocks = _propagator_blocks(h, t)
    if len(sec) == 1:
        return blocks[0]
    u = np.zeros((sec.size, sec.size), dtype=complex)
    u[sec[:, :, None], sec[:, None, :]] = blocks
    return u


def heisenberg(op, h, t: float) -> np.ndarray:
    """U^dag O U with U = e^{-iHt}, one sector pair (a, b) at a time as
    U_a^dag O_ab U_b, skipping every block O_ab that is all zero. On one
    sector this is the plain product of whole matrices."""
    om = dense(op)
    sec, blocks = _propagator_blocks(h, t)
    if om.shape != (sec.size, sec.size):
        raise ValueError("operator and Hamiltonian dims differ")
    if len(sec) == 1:
        u = blocks[0]
        return u.conj().T @ om @ u
    out = np.zeros(om.shape, dtype=complex)
    for a, rows in enumerate(sec):
        o_a = om[rows[None, :, None], sec[:, None, :]]  # O_ab for every b
        bs = np.flatnonzero(o_a.any(axis=(1, 2)))
        evolved = blocks[a].conj().T @ o_a[bs] @ blocks[bs]
        out[rows[None, :, None], sec[bs][:, None, :]] = evolved
    return out


def exact_heisenberg(op, u) -> np.ndarray:
    om = dense(op)
    um = dense(u)
    if om.shape != um.shape:
        raise ValueError("operator and propagator dims differ")
    if np.max(np.abs(um @ um.conj().T - np.eye(um.shape[0]))) > _TOLERANCE:
        raise ValueError("propagator is not unitary within tolerance")
    return um.conj().T @ om @ um


_STACK = np.stack([SIGMA[c] for c in "IXZY"])


def exact_pauli_amplitudes(op) -> np.ndarray:
    """All 4^n amplitudes tr(Q_k O)/2^n, indexed base-4 with digits
    I,X,Z,Y and site 0 most significant. Computed by site-by-site tensor
    contraction rather than any vectorized-register code."""
    om = dense(op)
    n = _sites(om)
    cur = om.reshape((2,) * (2 * n))
    for k in range(n):
        # row axis of the next site sits at k, its column axis at n
        cur = np.tensordot(_STACK, cur, axes=([1, 2], [n, k]))
    cur = np.transpose(cur, axes=tuple(reversed(range(n))))
    return cur.reshape(-1) / 2**n


def pauli_probabilities(op) -> np.ndarray:
    c = exact_pauli_amplitudes(op)
    p = np.abs(c) ** 2
    total = p.sum()
    if total <= 0:
        raise ValueError("zero operator has no distribution")
    return p / total


def exact_otoc(op, p, q) -> float:
    """tr(O^dag P^dag O Q)/2^n for the already-evolved operator O. For Pauli
    words P and Q this is vdot(P O, O Q): a word's matrix has one nonzero per
    row, at column row ^ xmask, so P O is O's rows permuted and scaled by
    P's row values, and O Q is O's columns permuted and scaled by Q's."""
    om = dense(op)
    if isinstance(p, PauliString) and isinstance(q, PauliString):
        if q.n != p.n or 2**p.n != len(om):
            raise ValueError("operator and word dims differ")
        idx = np.arange(len(om))
        po = om[idx ^ p.xmask]
        po *= p.row_values()[:, None]
        oq = om[:, idx ^ q.xmask]
        oq *= q.row_values()[idx ^ q.xmask]
        val = np.vdot(po, oq) / len(om)
    else:
        pm = dense(p)
        qm = dense(q)
        # tr(X Q) = sum_ij X_ij Q_ji, with no fourth product.
        val = np.sum((om.conj().T @ pm.conj().T @ om) * qm.T) / len(om)
    if abs(val.imag) > _TOLERANCE:
        raise ValueError(f"imaginary residue {val.imag} exceeds tolerance")
    return float(val.real)


def exact_ose(op, alpha: int) -> tuple[float, float]:
    """(purity of order alpha, entropy) of the Pauli distribution; alpha=1
    gives (1, Shannon entropy)."""
    if alpha < 1:
        raise ValueError("entropy order must be a positive integer")
    p = pauli_probabilities(op)
    p = p[p > 0]
    if alpha == 1:
        return 1.0, float(-(p * np.log(p)).sum())
    purity = float((p**alpha).sum())
    return purity, float(np.log(purity) / (1 - alpha))


def exact_loe(op, partition, alpha: int = 2) -> dict[str, float]:
    """Entanglement of the vectorized operator across a site bipartition.

    The reduced state keeps, for every site in the partition, both qubits
    of its (left, right) pair. Returns the trace power tr(rho_A^alpha),
    the Renyi entropy log(tr)/(1-alpha), and the linearized value 1 - tr.
    """
    if alpha < 2:
        raise ValueError("entanglement order must be an integer >= 2")
    om = dense(op)
    n = _sites(om)
    sites = sorted(set(partition))
    if not sites or len(sites) == n:
        raise ValueError("partition must be a nonempty proper subset of sites")
    if sites[0] < 0 or sites[-1] >= n:
        raise ValueError("partition site out of range")
    norm = np.sqrt(np.trace(om.conj().T @ om).real)
    if norm == 0:
        raise ValueError("zero operator")
    # interleaved doubled wavefunction: axis 2i = row bit i, 2i+1 = col bit i
    psi = om.reshape((2,) * (2 * n)) / norm
    order = [ax for i in range(n) for ax in (i, n + i)]
    psi = np.transpose(psi, axes=order)
    keep = [ax for s in sites for ax in (2 * s, 2 * s + 1)]
    rest = [ax for ax in range(2 * n) if ax not in keep]
    mat = np.transpose(psi, axes=keep + rest).reshape(4 ** len(sites), -1)
    # The reduced states of the partition and of its complement share their
    # nonzero spectrum; the smaller one has at most 4^n entries.
    rho = mat @ mat.conj().T if 2 * len(sites) <= n else mat.conj().T @ mat
    evals = np.linalg.eigvalsh(rho)
    evals = np.clip(evals, 0.0, None)
    trace_power = float((evals**alpha).sum())
    return {
        "trace": trace_power,
        "entropy": float(np.log(trace_power) / (1 - alpha)),
        "linear": 1.0 - trace_power,
    }


def exact_channel_dual(kraus, op) -> np.ndarray:
    """Adjoint channel sum E_k^dag O E_k after checking Kraus completeness."""
    mats = [np.asarray(e, dtype=complex) for e in kraus]
    if not mats:
        raise ValueError("empty Kraus list")
    dim = mats[0].shape[0]
    total = sum(e.conj().T @ e for e in mats)
    if np.max(np.abs(total - np.eye(dim))) > _TOLERANCE:
        raise ValueError("Kraus operators do not satisfy completeness")
    om = dense(op)
    if om.shape[0] != dim:
        raise ValueError("operator and Kraus dims differ")
    return sum(e.conj().T @ om @ e for e in mats)
