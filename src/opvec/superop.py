"""Superoperators on n-site operators and their action on the doubled
register.

An operator-sum superoperator A(O) = sum f L O R (Hermitian Pauli words L, R)
acts on Pauli-rep vectorized states term by term as a signed permutation
(:func:`vectorize.apply_pauli_terms`): index k moves to k ^ idx(L) ^ idx(R),
times one phase per site. Diagonal superoperators are carried as a
real function lambda over Pauli indices plus, when one exists, a sparse
operator-sum coefficient vector f; the two are related by the commutation
sign transform lambda = K f, f = K lambda / 4^n with
K[i,k] = +1 iff strings i and k commute. Commutation signs multiply site by
site, so K is the n-fold tensor power of one 4x4 sign matrix and is applied
one site at a time, never materialized.

Self-adjointness of an operator-sum superoperator is equivalent to its
merged (L, R) coefficients being real, which in turn is equivalent to a
Hermitian transfer matrix and real expectation values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import reserve, run_passes
from .errors import NonCommutingSetError, ParseError
from .pauli import PauliString
from .simulator import Circuit, Gate, _transfer_matrix, gate_matrix
from .vectorize import (
    PAULI,
    VectorizedState,
    apply_pauli_terms,
    bell_transform,
    index_pauli,
    pauli_index,
)

NOT_COMMUTING = "NotCommuting"
ALL_SEPARABLE_COMMUTING = "AllSeparableCommuting"
COMMUTING_ENTANGLED = "CommutingEntangledEigenbasis"


# ---------------------------------------------------------------------------
# Operator-sum representation.

@dataclass(frozen=True)
class OperatorSumSuperop:
    """A(O) = sum_j f_j L_j O R_j over Hermitian Pauli words."""

    n: int
    terms: tuple[tuple[complex, PauliString, PauliString], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "terms",
            tuple((complex(f), l, r) for f, l, r in self.terms),
        )
        for _, l, r in self.terms:
            if l.n != self.n or r.n != self.n:
                raise ValueError("term site count mismatch")

    def merged(self) -> dict[tuple[int, int, int, int], complex]:
        """Coefficients keyed by (left.z, left.x, right.z, right.x), summed
        over duplicate (L, R) pairs, exact zeros dropped."""
        out: dict[tuple[int, int, int, int], complex] = {}
        for f, l, r in self.terms:
            key = (l.z, l.x, r.z, r.x)
            out[key] = out.get(key, 0.0) + f
        return {k: v for k, v in out.items() if v != 0}

    @property
    def is_self_adjoint(self) -> bool:
        return all(abs(v.imag) < 1e-12 for v in self.merged().values())

    def apply_vectorized(self, amps: np.ndarray) -> np.ndarray:
        """Action on raw Pauli-rep amplitudes (norm not preserved)."""
        return apply_pauli_terms(amps, self.n, self.terms)

    @staticmethod
    def from_text(text: str) -> "OperatorSumSuperop":
        terms = []
        n = None
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"line {ln}: expected '<re> <im> <left> <right>'")
            try:
                f = complex(float(parts[0]), float(parts[1]))
                left = PauliString.from_label(parts[2])
                right = PauliString.from_label(parts[3])
            except ValueError as exc:
                raise ParseError(f"line {ln}: {exc}") from None
            if not np.isfinite(f):
                raise ParseError(f"line {ln}: coefficient is not finite")
            if n is None:
                n = left.n
            if left.n != n or right.n != n:
                raise ParseError(f"line {ln}: inconsistent string length")
            terms.append((f, left, right))
        if not terms:
            raise ParseError("empty superoperator spec")
        return OperatorSumSuperop(n, tuple(terms))


# ---------------------------------------------------------------------------
# Diagonal superoperators.

# +1 where two single-site Paulis commute, digits I, X, Z, Y as in the
# Pauli index: the one-site factor of the commutation-sign matrix K.
_SITE_SIGNS = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)


# Pauli indices per eigenvalue call in lam_vector: the digit table of one
# chunk stays small at any site count.
_LAM_CHUNK = 1 << 16


@dataclass
class DiagonalSuperop:
    """Superoperator diagonal in the Pauli rep: a real eigenvalue function
    that maps an integer array of Pauli indices to their eigenvalues.
    f_sparse, when present, is the operator-sum coefficient vector keyed by
    (z, x); observables like boundary indicators have no sparse f and carry
    only the function."""

    n: int
    lam: Callable[[np.ndarray], np.ndarray]
    f_sparse: dict[tuple[int, int], float] | None = None
    label: str = ""

    def lam_vector(self) -> np.ndarray:
        """Eigenvalues of all 4^n Pauli indices, from ``lam`` on
        consecutive index ranges."""
        size = 4**self.n
        reserve(8 * size, f"an eigenvalue table on {self.n} sites")
        out = np.empty(size)
        for lo in range(0, size, _LAM_CHUNK):
            out[lo : lo + _LAM_CHUNK] = self.lam(np.arange(lo, min(size, lo + _LAM_CHUNK)))
        return out


def walsh_hadamard(values: np.ndarray, n: int, direction: str) -> np.ndarray:
    """Commutation-sign transform between operator-sum coefficients f and
    diagonal entries lambda: lambda = K f and f = K lambda / 4^n.

    K is applied as one 4x4 sign contraction per site, O(n 4^n).
    """
    out = np.array(values, dtype=float).reshape(-1)
    if out.shape[0] != 4**n:
        raise ValueError(f"expected 4^{n} entries")
    if direction not in ("f_to_lambda", "lambda_to_f"):
        raise ValueError(f"unknown direction {direction!r}")
    out = run_passes(out, [(_SITE_SIGNS, (2 * site, 2 * site + 1)) for site in range(n)], 2 * n)
    if direction == "lambda_to_f":
        out /= 4**n
    return out


def _site_digits(idx: np.ndarray, n: int) -> np.ndarray:
    """(n, len(idx)) base-4 digits of Pauli indices, row s for site s:
    0, 1, 2, 3 for I, X, Z, Y, as in the Pauli index."""
    shifts = 2 * np.arange(n - 1, -1, -1)
    return (np.asarray(idx)[None, :] >> shifts[:, None]) & 3


def _weights(idx: np.ndarray, n: int) -> np.ndarray:
    return np.count_nonzero(_site_digits(idx, n), axis=0)


def size_superop(n: int) -> DiagonalSuperop:
    """Operator-size observable: eigenvalue = Pauli weight; sparse f has
    3n/4 on the identity and -1/4 on each weight-1 string."""
    f: dict[tuple[int, int], float] = {(0, 0): 3 * n / 4}
    for i in range(n):
        f[(1 << i, 0)] = -0.25
        f[(0, 1 << i)] = -0.25
        f[(1 << i, 1 << i)] = -0.25
    return DiagonalSuperop(n, lam=lambda idx: _weights(idx, n).astype(float), f_sparse=f, label="size")


def builtin_diagonal(spec: str, n: int) -> DiagonalSuperop:
    """Named diagonal observables: ``size``, ``weight_indicator@k``,
    ``rhs_boundary@x`` (1-based position of the last non-identity site, 0
    for the identity), ``diag_otoc@<label>`` (+1 where the string commutes
    with the label, -1 where it anticommutes)."""
    if spec == "size":
        return size_superop(n)
    name, _, arg = spec.partition("@")
    if name == "weight_indicator":
        k = int(arg)
        return DiagonalSuperop(
            n, lam=lambda idx: (_weights(idx, n) == k).astype(float), label=spec
        )
    if name == "rhs_boundary":
        x = int(arg)

        def boundary(idx):
            nonzero = _site_digits(idx, n) != 0
            last = np.where(nonzero.any(axis=0), n - np.argmax(nonzero[::-1], axis=0), 0)
            return (last == x).astype(float)

        return DiagonalSuperop(n, lam=boundary, label=spec)
    if name == "diag_otoc":
        q = PauliString.from_label(arg)
        if q.n != n:
            raise ValueError(f"{spec}: string length {q.n} != {n}")
        rows = _SITE_SIGNS[_site_digits([pauli_index(q)], n)[:, 0]]
        return DiagonalSuperop(
            n,
            lam=lambda idx: np.prod(np.take_along_axis(rows, _site_digits(idx, n), axis=1), axis=0),
            label=spec,
        )
    raise ValueError(f"unknown diagonal observable {spec!r}")


# ---------------------------------------------------------------------------
# Expectation values.

def expectation(
    a: OperatorSumSuperop | DiagonalSuperop, state: VectorizedState, k: int = 1
) -> float:
    """k-th moment of the superobservable over the encoded operator."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if state.n != a.n:
        raise ValueError("site count mismatch")
    s = state if state.basis == PAULI else bell_transform(state, "c_to_p")
    if isinstance(a, DiagonalSuperop):
        lam = a.lam_vector()
        return float(np.abs(s.amplitudes) ** 2 @ lam**k)
    if not a.is_self_adjoint:
        raise ValueError("expectation values require a self-adjoint superoperator")
    cur = s.amplitudes
    for _ in range(k):
        cur = a.apply_vectorized(cur)
    val = complex(np.vdot(s.amplitudes, cur))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"imaginary residue {val.imag} exceeds tolerance")
    return float(val.real)


# ---------------------------------------------------------------------------
# Commutation structure of superoperator families.

@dataclass(frozen=True)
class CommutationClass:
    verdict: str
    witness: tuple[int, int] | None = None


def classify_commuting_set(
    pairs: list[tuple[PauliString, PauliString]]
) -> CommutationClass:
    """Classify {L_i (.) R_i} by the pairwise structure of the lifted
    operators L_i (x) R_i^*: joint commutation requires the left pair and
    right pair to commute or anticommute together; an anticommuting pair
    forces the common eigenbasis to entangle the two copies."""
    if not pairs:
        raise ValueError("empty set")
    anti_pair = None
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            pc = pairs[i][0].commutes(pairs[j][0])
            qc = pairs[i][1].commutes(pairs[j][1])
            if pc != qc:
                return CommutationClass(NOT_COMMUTING, (i, j))
            if not pc and anti_pair is None:
                anti_pair = (i, j)
    if anti_pair is not None:
        return CommutationClass(COMMUTING_ENTANGLED, anti_pair)
    return CommutationClass(ALL_SEPARABLE_COMMUTING, None)


def lifted_pauli(left: PauliString, right: PauliString) -> tuple[int, PauliString]:
    """L (x) R^* as (sign, word) on the interleaved doubled register;
    conjugation flips the sign once per Y in R."""
    if left.n != right.n:
        raise ValueError("site count mismatch")
    z = x = 0
    for i in range(left.n):
        z |= ((left.z >> i) & 1) << (2 * i)
        x |= ((left.x >> i) & 1) << (2 * i)
        z |= ((right.z >> i) & 1) << (2 * i + 1)
        x |= ((right.x >> i) & 1) << (2 * i + 1)
    sign = -1 if right.y_count % 2 else 1
    return sign, PauliString(2 * left.n, z, x)


# ---------------------------------------------------------------------------
# Clifford conjugation of Pauli words.

# Images of every local Pauli word under one gate kind, keyed by name, axes
# and repr(angle): a tuple indexed by the local word's Pauli index, each
# entry (sign, z bits, x bits) over the gate's targets, or None where the
# image is not a single Pauli word.
_IMAGES: dict[tuple, tuple] = {}


def _local_images(gate: Gate) -> tuple:
    """C P C^dag of each local word P, read from column P of the transfer
    matrix of C^dag (:func:`simulator._transfer_matrix`). The image of a
    Hermitian word is Hermitian, so when it is one word, that column holds a
    single entry of +-1."""
    m = len(gate.targets)
    images = []
    for col in _transfer_matrix(gate_matrix(gate).conj().T).T:
        idx = int(np.argmax(np.abs(col)))
        if abs(abs(col[idx]) - 1) <= 1e-9:
            word = index_pauli(idx, m)
            images.append((1 if col[idx] > 0 else -1, word.z, word.x))
        else:
            images.append(None)
    return tuple(images)


def conjugate_pauli(gate: Gate, phase: complex, p: PauliString) -> tuple[complex, PauliString]:
    """phase * p -> C (phase * p) C^dag for a single Clifford gate. The image
    of the local factor is read from a table filled once per gate kind by
    :func:`_local_images`; a ``u`` gate is derived afresh, never shared."""
    if gate.name == "u":
        images = _local_images(gate)
    else:
        key = (gate.name, gate.axes, repr(gate.angle))
        images = _IMAGES.get(key)
        if images is None:
            images = _IMAGES[key] = _local_images(gate)
    idx = 0
    for t in gate.targets:
        idx = (idx << 2) | (((p.z >> t) & 1) << 1) | ((p.x >> t) & 1)
    image = images[idx]
    if image is None:
        raise ValueError(f"gate {gate.name} is not Clifford on Pauli words")
    snapped, lz, lx = image
    z, x = p.z, p.x
    for i, t in enumerate(gate.targets):
        z = (z & ~(1 << t)) | (((lz >> i) & 1) << t)
        x = (x & ~(1 << t)) | (((lx >> i) & 1) << t)
    return phase * snapped, PauliString(p.n, z, x)


def conjugate_through(
    circuit: Circuit, phase: complex, p: PauliString
) -> tuple[complex, PauliString]:
    for g in circuit.gates:
        phase, p = conjugate_pauli(g, phase, p)
    return phase, p


# ---------------------------------------------------------------------------
# Common eigenbasis synthesis.

def _independent_subset(strings: list[PauliString]) -> list[PauliString]:
    """Maximal independent subset under GF(2) symplectic representation,
    scanning in input order."""
    k = strings[0].n
    basis: list[int] = []
    out = []
    for s in strings:
        vec = s.z | (s.x << k)
        cur = vec
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
            out.append(s)
    return out


def _lowest_site(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _eliminate(strings: list[PauliString], qubit_of) -> list[Gate]:
    """Clifford gate sequence conjugating every string to Z-type. One pass
    per independent generator: S to clear a Y pivot, CX off the pivot to
    clear other X support, S again if the pivot regrew a Y, CZ to clear Z
    support, then H. Earlier generators survive because later pivots avoid
    their qubits and all later gates fix single-site Z's there."""
    gens = [(1 + 0j, s) for s in _independent_subset(strings)]
    gates: list[Gate] = []

    def emit(name: str, *targets: int) -> None:
        g = Gate(name, tuple(qubit_of(t) for t in targets))
        gates.append(g)
        local = Gate(name, targets)
        for idx, (ph, s) in enumerate(gens):
            gens[idx] = conjugate_pauli(local, ph, s)

    for gi in range(len(gens)):
        if gens[gi][1].x == 0:
            continue
        q = _lowest_site(gens[gi][1].x)
        if (gens[gi][1].z >> q) & 1:
            emit("s", q)
        rest = gens[gi][1].x & ~(1 << q)
        while rest:
            r = _lowest_site(rest)
            emit("cx", q, r)
            rest &= rest - 1
        if (gens[gi][1].z >> q) & 1:
            emit("s", q)
        zrest = gens[gi][1].z & ~(1 << q)
        while zrest:
            r = _lowest_site(zrest)
            emit("cz", q, r)
            zrest &= zrest - 1
        emit("h", q)
        assert gens[gi][1].x == 0
    return gates


def _is_mirrored(s: PauliString) -> bool:
    n = s.n // 2
    for i in range(n):
        if s.site(2 * i) != s.site(2 * i + 1):
            return False
    return True


def _restrict(s: PauliString, offset: int) -> PauliString:
    n = s.n // 2
    z = x = 0
    for i in range(n):
        z |= ((s.z >> (2 * i + offset)) & 1) << i
        x |= ((s.x >> (2 * i + offset)) & 1) << i
    return PauliString(n, z, x)


def common_eigenbasis_circuit(strings: list[PauliString]) -> Circuit:
    """Clifford circuit conjugating every string of a commuting family on a
    doubled register to Z-type.

    Mirrored families (every string identical on the two copies) get the
    per-site Bell layer; families whose copy restrictions commute separately
    get independent per-copy eliminations; anything else gets a full
    symplectic elimination.
    """
    if not strings:
        raise ValueError("empty set")
    k = strings[0].n
    if any(s.n != k for s in strings):
        raise ValueError("inconsistent string length")
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            if not strings[i].commutes(strings[j]):
                raise NonCommutingSetError(
                    f"strings {i} and {j} do not commute", witness=(i, j)
                )
    if k % 2 == 0:
        n = k // 2
        if all(_is_mirrored(s) for s in strings):
            gates = []
            for i in range(n):
                gates.append(Gate("cx", (2 * i, 2 * i + 1)))
                gates.append(Gate("h", (2 * i,)))
            return Circuit(k, gates)
        lefts = [_restrict(s, 0) for s in strings]
        rights = [_restrict(s, 1) for s in strings]
        if _all_commuting(lefts) and _all_commuting(rights):
            gates = _eliminate(lefts, lambda t: 2 * t)
            gates += _eliminate(rights, lambda t: 2 * t + 1)
            return Circuit(k, gates)
    return Circuit(k, _eliminate(strings, lambda t: t))


def _all_commuting(strings: list[PauliString]) -> bool:
    return all(
        strings[i].commutes(strings[j])
        for i in range(len(strings))
        for j in range(i + 1, len(strings))
    )
