"""Dense statevector simulator for small qubit registers.

Statevector convention: qubit 0 is the most significant index bit, so
basis state |q0 q1 ... q_{k-1}> sits at index q0*2^{k-1} + ... + q_{k-1}.
Doubled registers interleave the two copies as [0_L, 0_R, 1_L, 1_R, ...];
site i of the represented operator owns qubits 2i (left copy) and 2i+1
(right copy).

A circuit is a sequence of gates, applied in order. :func:`_lower` turns
it into (matrix, targets) steps on its own register, one per gate or part of
a wide pexp's CX ladder, and :func:`run_passes` applies them one pass each.

Heisenberg evolution of a vectorized operator runs in the Hermitian-Pauli
basis, where site i's qubit pair (2i, 2i+1) indexes I, X, Z, Y. There the
doubled image U^dag (x) U^T of a gate is its real orthogonal Pauli transfer
matrix, so a Hermitian operator evolves as a float64 vector. The one
evolution, :func:`heisenberg_doubled`, runs the steps of the one lowering,
:func:`_transfer`: gates in reverse order, single-site steps absorbed into
blocks, blocks on the last three sites joined, and a circuit that repeats
one period, as a Trotter circuit repeats one step, lowered one period at a
time and the period's steps repeated.

A circuit made only of Pauli rotations whose generators all commute with a
word S of I and Z letters with Z on site 0 is tapered, as a Hamiltonian's
Pauli symmetry removes a qubit in the Schrodinger picture (Bravyi,
Gambetta, Mezzacapo and Temme, 2017): the evolution keeps each word's
commutation sign with S, so after the Clifford C that maps S to X on
site 0 each sector is one half of the register, fixed by its most
significant qubit, and evolves on 2n - 1 qubits through C U C^dag's
lowering, restricted to that sector. The coefficients move to and from
C O C^dag's words by one gather each way, a permutation that is linear
over GF(2) in the index bits. The Ising chain, with S = Z on every site,
is tapered. A circuit with any other gate, with no such S, whose conjugated
lowering has more steps than its own, or with a step on site 0 that does not
keep its z bit, as a conjugated wide pexp with X there has, keeps the full
register.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _period, reserve, run_passes
from .errors import ProjectionFailedError
from .pauli import PAULI_CHARS, SIGMA, PauliString, PauliSum
from .vectorize import (
    _BELL,
    PAULI,
    VectorizedState,
    _bell_passes,
    apply_pauli_terms,
    bell_transform,
    vectorize,
)

_SQ = 1 / np.sqrt(2)

_FIXED = {
    "id": SIGMA["I"],
    "x": SIGMA["X"],
    "y": SIGMA["Y"],
    "z": SIGMA["Z"],
    "h": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]),
    "tdg": np.diag([1, np.exp(-1j * np.pi / 4)]),
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
for _m in _FIXED.values():
    _m.flags.writeable = False
_ROTATION_AXES = {"rx": "X", "ry": "Y", "rz": "Z", "rxx": "XX", "ryy": "YY", "rzz": "ZZ"}
_SELF_INVERSE = {"id", "x", "y", "z", "h", "cx", "cz", "swap"}
_INVERSE_NAME = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
_TO_Z = {"X": ("h",), "Y": ("sdg", "h"), "Z": ()}  # gates rotating each axis onto Z

GATE_NAMES = frozenset(_FIXED) | frozenset(_ROTATION_AXES) | {"pexp", "u"}


@dataclass(frozen=True)
class Gate:
    """One gate: a named standard gate, a rotation with an angle, a Pauli
    exponential exp(-i angle P/2) over an axis word, or an explicit small
    unitary (name "u"). Angles are stored as Python floats; u gates compare
    and hash by their matrix bytes."""

    name: str
    targets: tuple[int, ...]
    angle: float | None = None
    axes: str | None = None
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    _matrix_bytes: bytes = field(default=b"", init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.angle is not None:
            object.__setattr__(self, "angle", float(self.angle))
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.name}: {self.targets}")
        if self.name in _FIXED:
            want = 1 if _FIXED[self.name].shape[0] == 2 else 2
            if len(self.targets) != want:
                raise ValueError(f"{self.name} takes {want} target(s)")
            if self.angle is not None:
                raise ValueError(f"{self.name} takes no angle")
        elif self.name in _ROTATION_AXES:
            if len(self.targets) != len(_ROTATION_AXES[self.name]):
                raise ValueError(f"{self.name} arity mismatch")
            if self.angle is None:
                raise ValueError(f"{self.name} requires an angle")
        elif self.name == "pexp":
            if self.angle is None or not self.axes:
                raise ValueError("pexp requires an angle and an axis word")
            if len(self.axes) != len(self.targets):
                raise ValueError("pexp axis word length must match target count")
            if any(a not in "XYZ" for a in self.axes):
                raise ValueError(f"bad pexp axes {self.axes!r}")
        elif self.name == "u":
            if self.matrix is None:
                raise ValueError("u requires an explicit matrix")
            # A private read-only copy, so the unitarity check keeps holding.
            m = np.array(self.matrix, dtype=complex)
            if len(self.targets) > 2:
                raise ValueError("explicit unitaries are limited to 2 targets")
            if m.shape != (2 ** len(self.targets),) * 2:
                raise ValueError("matrix dimension does not match targets")
            if np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) > 1e-12:
                raise ValueError("matrix is not unitary")
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
            object.__setattr__(self, "_matrix_bytes", m.tobytes())

    def inverse(self) -> "Gate":
        if self.name in _SELF_INVERSE:
            return self
        if self.name in _INVERSE_NAME:
            return Gate(_INVERSE_NAME[self.name], self.targets)
        if self.name == "u":
            return Gate("u", self.targets, matrix=self.matrix.conj().T)
        return Gate(self.name, self.targets, -self.angle, self.axes)


def gate_matrix(g: Gate) -> np.ndarray:
    """Dense matrix of a gate on its own targets (pexp limited to the
    dense-kernel regime of <= 2 targets). Fixed and u gates return shared
    read-only arrays."""
    if g.name in _FIXED:
        return _FIXED[g.name]
    if g.name == "u":
        return g.matrix
    p = PauliString.from_label(_ROTATION_AXES.get(g.name) or g.axes).to_dense()
    return np.cos(g.angle / 2) * np.eye(p.shape[0]) - 1j * np.sin(g.angle / 2) * p


def _pexp_ladder(g: Gate) -> list[tuple[str, tuple[int, ...], float | None]]:
    """CX-ladder decomposition of exp(-i angle P/2) for wide supports, as
    (name, targets, angle) steps."""
    pre = [(name, (t,), None) for t, a in zip(g.targets, g.axes) for name in _TO_Z[a]]
    chain = [("cx", pair, None) for pair in zip(g.targets, g.targets[1:])]
    post = [(_INVERSE_NAME.get(name, name), t, None) for name, t, _ in reversed(pre)]
    return pre + chain + [("rz", g.targets[-1:], g.angle)] + chain[::-1] + post


@dataclass(frozen=True)
class Circuit:
    """A sequence of gates on k qubits, applied in order."""

    k: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        # Each distinct gate object is checked once, as Trotter steps repeat
        # one step's gates; the tuple keeps them alive.
        checked: set[int] = set()
        for g in self.gates:
            if id(g) in checked:
                continue
            if any(t < 0 or t >= self.k for t in g.targets):
                raise ValueError(f"gate {g.name} targets outside 0..{self.k - 1}")
            checked.add(id(g))

    def num_gates(self) -> int:
        return len(self.gates)

    def inverse(self) -> "Circuit":
        """Gates reversed, each inverted. Each distinct gate object is
        inverted once, so a repeated gate, as in a Trotter circuit, stays
        one shared object."""
        inverted = {id(g): g for g in self.gates}
        inverted = {key: g.inverse() for key, g in inverted.items()}
        return Circuit(self.k, tuple(inverted[id(g)] for g in reversed(self.gates)))

    def concat(self, other: "Circuit") -> "Circuit":
        if other.k != self.k:
            raise ValueError("qubit counts differ")
        return Circuit(self.k, self.gates + other.gates)


# ---------------------------------------------------------------------------
# Lowering: the (matrix, register targets) steps that apply a circuit.

def _lower(circuit: Circuit) -> list:
    """(matrix, targets) steps applying ``circuit`` to its own register, in
    gate order. Each distinct gate's matrix is built once per call and
    shared read-only, and a repeated gate shares its step tuples, so the
    list holds one reference per step; see :func:`_placed` and
    :func:`_place`."""
    built: dict[tuple, np.ndarray] = {}
    return _placed(circuit.gates, lambda g: _place(g, built))


def _transfer(circuit: Circuit) -> list:
    """Real (transfer matrix, register targets) steps carrying the
    Hermitian-Pauli coefficients of O to those of U^dag O U on the 2n-qubit
    doubled register of n sites: gates in reverse order, circuit qubit q on
    register qubits (2q, 2q+1), single-site steps absorbed (:func:`_absorb`)
    and blocks on the last three sites joined (:func:`_fuse_tail`). The
    real and imaginary parts of complex coefficients run the same steps.
    Matrices are built and shared as in :func:`_lower`.

    One period of the reversed gates (see :func:`_linalg._period`) is
    lowered and its steps repeated, so the work follows the period, not the
    length, with two rules at the seam between periods:

    1. a period that leaves a single-site step, on a site no block of it
       covers, would merge it with the next period's: the whole circuit is
       absorbed;
    2. a period whose last fused block fuses with its own first absorbed
       step, which starts the next period: all periods' absorbed steps are
       fused as one list."""
    built: dict[tuple, np.ndarray] = {}
    gates, k = circuit.gates[::-1], 2 * circuit.k
    p = _period(gates)
    steps = _absorb(_placed(gates[:p], lambda g: _place(g, built, True)))
    if p < len(gates) and any(len(targets) == 2 for _, targets in steps):
        p, steps = len(gates), _absorb(_placed(gates, lambda g: _place(g, built, True)))
    fused = _fuse_tail(steps, k)
    if p < len(gates) and len(_fuse_tail([fused[-1], steps[0]], k)) == 1:
        return _fuse_tail(steps * (len(gates) // p), k)
    return fused * (len(gates) // p)


def _placed(gates, place) -> list:
    """The concatenated steps ``place(g)`` of ``gates``. Each gate object is
    placed once per call, and a gate that recurs, as every Trotter step's
    do, reuses its placed steps, so the work grows with the distinct gates
    rather than the circuit's length. The circuit keeps its gates alive, so
    they are keyed on their identity."""
    placed: dict[int, list] = {}
    out = []
    for g in gates:
        steps = placed.get(id(g))
        if steps is None:
            steps = placed[id(g)] = place(g)
        out += steps
    return out


def _place(g: Gate, built: dict, transfer: bool = False) -> list:
    """The (matrix, targets) steps of one gate; a wide pexp becomes its CX
    ladder. With ``transfer``, each part is its real transfer matrix on the
    register qubits of its sites in ascending order, and the parts run in
    reverse, as :func:`_transfer` describes. ``built`` holds the matrices
    already made in this call, told apart by name, axes, repr(angle), which
    keeps -0.0 apart from 0.0, and site order; u gates are never merged."""
    if g.name == "pexp" and len(g.targets) > 2:
        parts = [(None, *step) for step in _pexp_ladder(g)]
    else:
        parts = [(g, g.name, g.targets, g.angle)]
    if transfer:
        parts.reverse()
    out = []
    for gate, name, targets, angle in parts:
        flip = transfer and len(targets) == 2 and targets[0] > targets[1]
        key = (name, getattr(gate, "axes", None), repr(angle), flip)
        m = built.get(key)
        if m is None:
            m = gate_matrix(gate or Gate(name, targets, angle))
            if transfer:
                m = _transfer_matrix(m, flip)
            m.flags.writeable = False
            if name != "u":
                built[key] = m
        if transfer:
            targets = tuple(q for s in sorted(targets) for q in (2 * s, 2 * s + 1))
        out.append((m, targets))
    return out


@functools.cache
def _pauli_words(w: int) -> np.ndarray:
    """The Hermitian Pauli words on w sites, by pair index 2z + x per site."""
    if w == 1:
        return np.array([SIGMA[c] for c in PAULI_CHARS])
    words = np.einsum("aij,bkl->abikjl", _pauli_words(1), _pauli_words(w - 1))
    return words.reshape(4**w, 2**w, 2**w)


def _transfer_matrix(m: np.ndarray, flip: bool = False) -> np.ndarray:
    """The real 4^w x 4^w transfer matrix R_ab = tr(P_a M^dag P_b M) / 2^w
    of a unitary M on w sites: it maps the Hermitian-Pauli coefficients of O
    to those of M^dag O M. ``flip`` lists two sites in reverse."""
    w = m.shape[0].bit_length() - 1
    p = _pauli_words(w)
    # P_a is Hermitian, so tr(P_a A) sums conj(P_a) * A entrywise.
    rows = p.reshape(len(p), -1)
    r = rows.conj() @ (m.conj().T @ p @ m).reshape(len(p), -1).T / 2**w
    if np.max(np.abs(r.imag)) > 1e-12:
        raise ValueError("gate has no real transfer matrix")
    if flip:
        return np.ascontiguousarray(r.real.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16))
    return np.ascontiguousarray(r.real)


def _absorb(steps: list) -> list:
    """Transfer steps with each single-site step, on one site's two register
    qubits, multiplied into the nearest earlier step on its site, or, when
    none is earlier, into the next later one, provided every step in between
    has disjoint targets: they commute with it. A block's targets are
    ascending, as :func:`_place` builds them.

    Each distinct product, by the identity of both matrices, the site's
    place in the block and the side, is built once per call and read-only,
    and each distinct step is one shared tuple; ``steps`` and the products
    made so far keep the sources alive."""
    products: dict[tuple, np.ndarray] = {}
    made_steps: dict[tuple, tuple] = {}

    def absorbed(block, tb, mat, ts, later):
        key = (id(block), id(mat), tb.index(ts[0]) // 2, later)
        made = products.get(key)
        if made is None:
            made = products[key] = _site_product(block, mat, key[2], later)
            made.flags.writeable = False
        return made_steps.setdefault((id(made), tb), (made, tb))

    out: list = []  # None marks a step moved into a later block
    last: dict[int, int] = {}  # a site's first register qubit -> its last step
    for step in steps:
        firsts = step[1][::2]
        if len(firsts) == 1:
            j = last.get(firsts[0])
            if j is not None:
                out[j] = absorbed(*out[j], *step, True)
                continue
        else:
            for q in firsts:
                j = last.get(q)
                if j is not None and out[j] is not None and len(out[j][1]) == 2:
                    step = absorbed(*step, *out[j], False)
                    out[j] = None
        for q in firsts:
            last[q] = len(out)
        out.append(step)
    return [step for step in out if step is not None]


def _fuse_tail(steps: list, k: int) -> list:
    """Transfer steps on a k-qubit register with each two consecutive
    two-site blocks that cover its last three sites, one on register qubits
    k-6..k-3 and one on k-4..k-1 in either order, multiplied into one 64 x 64
    block on k-6..k-1. Alone, the first of them has 4 trailing amplitudes
    and runs as the fold mat (x) I_4 (see :func:`_linalg._plan`); the fused
    block does its neighbour's work in a GEMM of the same shape. Where it
    conserves the z bit of its first site, as an Ising step's does, it is
    block-diagonal in its leading qubit, and that GEMM runs as two of half
    the size.

    Each distinct fused pair, by the identity of both matrices and which one
    comes first, is built once per call and read-only; ``steps`` keeps the
    sources alive."""
    upper, lower = tuple(range(k - 6, k - 2)), tuple(range(k - 4, k))
    eye = np.eye(4)
    made: dict[tuple, tuple] = {}
    out: list = []
    for step in steps:
        mat, targets = step
        if not out or {out[-1][1], targets} != {upper, lower}:
            out.append(step)
            continue
        first, first_targets = out.pop()
        upper_first = first_targets == upper
        key = (id(first), id(mat), upper_first)
        fused = made.get(key)
        if fused is None:
            if upper_first:
                m = np.kron(eye, mat) @ np.kron(first, eye)
            else:
                m = np.kron(mat, eye) @ np.kron(eye, first)
            m.flags.writeable = False
            fused = made[key] = (m, upper[:2] + lower)
        out.append(fused)
    return out


def _site_product(block: np.ndarray, mat: np.ndarray, site: int, later: bool) -> np.ndarray:
    """A one- or two-site transfer ``block`` with the one-site ``mat`` on its
    ``site``-th site applied after it (``later``) or before it."""
    if not later:
        return np.ascontiguousarray(_site_product(block.T, mat.T, site, True).T)
    if len(block) == 4:
        return mat @ block
    rows = block.reshape(4, 4, 16)
    return (mat @ rows if site else mat @ rows.reshape(4, 64)).reshape(16, 16)


# ---------------------------------------------------------------------------
# States and application.

@dataclass
class QState:
    k: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.shape[0] != 2**self.k:
            raise ValueError(f"expected 2^{self.k} amplitudes")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm!r} outside tolerance")

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amplitudes) ** 2
        return p / p.sum()


def apply_circuit(state: QState, circuit: Circuit) -> QState:
    if circuit.k != state.k:
        raise ValueError(f"circuit on {circuit.k} qubits, state on {state.k}")
    return QState(state.k, run_passes(state.amplitudes, _lower(circuit), state.k))


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's 2^k x 2^k unitary, from one pass per gate over the
    identity viewed as a 2k-qubit vector (gates on the k row qubits).

    Peak working memory is three arrays of 16 * 4^k bytes, the identity and
    :func:`run_passes`'s two buffers, the output being one of them; those
    three are reserved. Measured with tracemalloc on a 4-step Ising Trotter
    circuit: 0.76 MiB at k=7 and 48 MiB at k=10."""
    reserve(3 * 16 * 4**circuit.k, f"the dense unitary of a circuit on {circuit.k} qubits")
    dim = 2**circuit.k
    cols = np.eye(dim, dtype=complex).ravel()
    return run_passes(cols, _lower(circuit), 2 * circuit.k).reshape(dim, dim)


# ---------------------------------------------------------------------------
# Seeded randomness.

class RngStream:
    """Reproducible random stream with named forks.

    Fork names hash through crc32, so stream identity depends only on the
    root seed and the path of names, never on interpreter state.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = path
        self._gen: np.random.Generator | None = None

    def fork(self, name: str) -> "RngStream":
        return RngStream(self.seed, self.path + (zlib.crc32(name.encode()),))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._gen = np.random.default_rng(ss)
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


# Every probability a sampler draws from is rounded to a multiple of
# 1/_P_GRID first. numpy draws a binomial for p = 1e-33 but not for p = 0, so
# rounding dust where a state holds nothing would redraw a whole multinomial
# on any last-bit change; and it draws Binomial(shots, p) for p > 1/2 as
# shots - Binomial(shots, 1 - p), so dust across p = 1/2, where every
# vanishing correlator sits, would mirror the draw. The grid is far coarser
# than that dust (about 1e-14 on <X>) and far finer than any stated error.
_P_GRID = 2.0**40


def born_sample(state: QState, shots: int, rng: RngStream) -> dict[int, int]:
    """Computational-basis outcome counts from ``shots`` independent
    measurements, keyed by basis index in ascending order, drawn from the
    Born probabilities rounded to multiples of 1/_P_GRID and renormalized."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    q = state.probabilities()
    q *= _P_GRID
    np.rint(q, out=q)
    q /= q.sum()
    counts = rng.generator.multinomial(shots, q)
    hits = np.flatnonzero(counts)
    return dict(zip(hits.tolist(), counts[hits].tolist()))


# ---------------------------------------------------------------------------
# Trotter circuits: plain propagator and the doubled-register version.

def _term_gate(p: PauliString, theta: float, qubit_of_site) -> Gate:
    targets = []
    axes = []
    for i in range(p.n):
        kind = p.site(i)
        if kind != "I":
            targets.append(qubit_of_site(i))
            axes.append(kind)
    return Gate("pexp", tuple(targets), theta, "".join(axes))


def _hermitian_real_terms(h: PauliSum) -> list[tuple[float, PauliString]]:
    terms = []
    for c, p in h.ordered_items():
        if abs(c.imag) > 1e-12:
            raise ValueError("Hamiltonian coefficients must be real")
        if c.real != 0.0 and p.weight > 0:
            terms.append((c.real, p))
    return terms


# Peak bytes per placed step (a gate, or a part of a wide pexp's CX ladder)
# of a Trotter circuit's gates and its doubled lowering's step lists, by
# tracemalloc over building trotter_circuit(...) and its _transfer:
# 24.0 B for "ZZ" and for a 7-site Ising chain at 150,000 gates, 4.5 B for
# XYZY + ZIII at 337,500 placed steps; 31.0 B for "ZZ" at 1,000. One step is
# lowered and its steps repeated, so the lists hold one reference per step.
_TROTTER_STEP_BYTES = 40


def trotter_circuit(h: PauliSum, t: float, steps: int) -> Circuit:
    """First-order Trotter circuit for exp(-iHt), one pexp per term per
    step, terms in the order they were listed. One step's gates are built
    once and repeated, so every step shares the same Gate objects."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if t == 0:
        return Circuit(h.n, ())
    dt = t / steps
    step = tuple(_term_gate(p, 2 * c * dt, lambda i: i) for c, p in _hermitian_real_terms(h))
    placed = steps * sum(len(_pexp_ladder(g)) if len(g.targets) > 2 else 1 for g in step)
    reserve(_TROTTER_STEP_BYTES * placed,
            f"a Trotter circuit of {len(step) * steps} gates and its lowering")
    return Circuit(h.n, step * steps)


def super_propagator_circuit(h: PauliSum, t: float, steps: int) -> Circuit:
    """The reference of ``compile2d``'s oracle: the inverse of
    trotter_circuit(h, -t, steps), which is trotter_circuit(h, t, steps)
    with each step's terms in reverse order, angles bitwise equal.

    :func:`heisenberg_doubled` takes a circuit's gates in reverse, so on
    this circuit it applies each step's terms in the order listed, the
    order that :func:`lattice2d.trotter_step_schedule` compiles."""
    return trotter_circuit(h, -t, steps).inverse()


# ---------------------------------------------------------------------------
# Doubled-register evolution as real Pauli-transfer passes.

def _y_phase(amps: np.ndarray, n: int, phase: complex) -> np.ndarray:
    """``amps``, on n sites' pair indices, times phase^{#Y} in place: the
    Pauli rep's Z^z X^x amplitudes become Hermitian-Pauli coefficients at
    phase 1j (Y = -i Z X) and return at -1j."""
    for i in range(n):
        amps.reshape(4**i, 4, -1)[:, 3] *= phase
    return amps


# ---------------------------------------------------------------------------
# Tapering by a Z-type Pauli symmetry.
#
# If a word S commutes with every gate generator, U^dag O U keeps each word's
# commutation sign with S. For a circuit of Pauli rotations with a Z-type S
# through site 0, a Clifford C maps S to X on site 0. Every generator of
# C U C^dag then carries I or X on site 0, so it keeps the z bit of site 0,
# register qubit 0, and the 2n-qubit evolution splits into two of 2n - 1
# qubits, one on each half of the register.

def _rotation_word(g: Gate, n: int) -> PauliString | None:
    """The word P of a Pauli rotation exp(-i angle P/2) on n sites (pexp and
    rx ... rzz), or None for any other gate."""
    axes = _ROTATION_AXES.get(g.name) or (g.axes if g.name == "pexp" else None)
    if axes is None:
        return None
    label = ["I"] * n
    for t, a in zip(g.targets, axes):
        label[t] = a
    return PauliString.from_label("".join(label))


def _z_symmetry(xmasks) -> int | None:
    """A Z-type word s, as the mask of its Z sites, with Z on site 0 and an
    even overlap with every mask of ``xmasks``; None when there is none, that
    is when X on site 0 alone lies in their GF(2) span. The masks are
    eliminated to a reduced echelon basis, each leading bit set in its own
    vector only, and s is the one such word with Z on no other site that
    leads no vector."""
    rows: dict[int, int] = {}  # leading bit -> basis vector
    for v in xmasks:
        for bit, row in rows.items():
            if v >> bit & 1:
                v ^= row
        if v:
            top = v.bit_length() - 1
            for bit, row in rows.items():
                if row >> top & 1:
                    rows[bit] = row ^ v
            rows[top] = v
    if 0 in rows:
        return None
    return functools.reduce(int.__or__, (1 << bit for bit, row in rows.items() if row & 1), 1)


def _tapering_clifford(n: int, s: int) -> Circuit:
    """A Clifford C with C S C^dag = X_0 for the Z-type word S of mask ``s``:
    the CX ladder cx(t_{j+1}, t_j) over S's sites t_0 = 0 < t_1 < ..., from
    the last pair down, then h on every site. On the Ising chain, where S is
    Z on every site, C maps each Z_i to X_i X_{i+1} (Z_{n-1} to X_{n-1}) and
    each X_i X_{i+1} to Z_{i+1}: the chain again has XX bonds and Z fields."""
    sites = [i for i in range(n) if s >> i & 1]
    ladder = [Gate("cx", pair) for pair in zip(sites[:0:-1], sites[-2::-1])]
    return Circuit(n, ladder + [Gate("h", (i,)) for i in range(n)])


def _conjugated(circuit: Circuit, clifford: Circuit, words: dict) -> Circuit:
    """C U C^dag for the unitary C of ``clifford``. Each distinct rotation
    exp(-i angle P/2), keyed in ``words`` by its identity with its word P,
    becomes one pexp of C P C^dag = +-P' on the sites of P', the sign moved
    into its angle. Each maximal run of consecutive gates whose words
    commute pairwise is reversed, which leaves C U C^dag as it is. The
    first period is reversed and repeated when its first gate anticommutes
    with a gate of its last run, so that no run crosses a seam; otherwise
    the whole gate list is, so the result never depends on the period.

    The reversal is for the fields. C swaps the chain's fields and bonds:
    the conjugated bonds come in the order of U's fields, and the conjugated
    fields stand on the other side of them. :func:`_absorb` would then join
    each field to the block where its site comes first, and no pass would be
    block-diagonal in its leading qubit (:func:`_linalg._halves`). Reversed,
    each field joins the block where its site comes second, as in U's own
    lowering, and four of the five passes of an n = 7 Trotter step split, in
    trotter_circuit's and in super_propagator_circuit's order alike: they
    took 24 us against 33 us unreversed (one BLAS thread, x86-64)."""
    from .superop import conjugate_through  # superop imports this module

    moved = {}
    for key, (g, word) in words.items():
        sign, image = conjugate_through(clifford, 1, word)
        sites = [i for i in range(circuit.k) if image.site(i) != "I"]
        angle = g.angle if sign > 0 else -g.angle
        moved[key] = Gate("pexp", sites, angle, "".join(image.site(i) for i in sites)), image

    def reversed_runs(gates) -> tuple[list, list]:
        out, run = [], []
        for g in gates:
            gate, image = moved[id(g)]
            if not all(image.commutes(other) for _, other in run):
                out += [gate for gate, _ in reversed(run)]
                run = []
            run.append((gate, image))
        return out + [gate for gate, _ in reversed(run)], run

    gates = circuit.gates
    p = _period(gates)
    period, last = reversed_runs(gates[:p])
    first = moved[id(gates[0])][1]
    if p < len(gates) and all(first.commutes(other) for _, other in last):
        return Circuit(circuit.k, reversed_runs(gates)[0])
    return Circuit(circuit.k, period * (len(gates) // p))


def _restricted(steps: list, sector: int) -> list | None:
    """``steps`` on the 2n - 1 register qubits left when qubit 0 is fixed to
    ``sector``: a step on qubit 0 keeps its matrix's diagonal block of that
    sector, and every target moves down by one. The period of ``steps``
    (:func:`_linalg._period`) is restricted and repeated, each distinct
    matrix's block made once, so the list repeats as ``steps`` does. The
    blocks off the sector are zero in exact arithmetic and are dropped; None
    when an entry there exceeds 1e-15, as in a step that is not
    block-diagonal in qubit 0, such as part of a wide pexp's CX ladder on
    site 0."""
    p = _period(steps)
    blocks: dict[int, np.ndarray] = {}
    out = []
    for mat, targets in steps[:p]:
        if targets[0]:
            out.append((mat, tuple(t - 1 for t in targets)))
            continue
        block = blocks.get(id(mat))
        if block is None:
            h = len(mat) // 2
            if max(np.abs(mat[:h, h:]).max(), np.abs(mat[h:, :h]).max()) > 1e-15:
                return None
            half = slice(sector * h, (sector + 1) * h)
            block = blocks[id(mat)] = np.ascontiguousarray(mat[half, half])
            block.flags.writeable = False
        out.append((block, tuple(t - 1 for t in targets[1:])))
    return out * (len(steps) // p)


def _index_map(n: int, clifford) -> np.ndarray:
    """The int32 table j -> pi(j) of the linear map pi that the Clifford
    gates ``clifford`` (cx and h), applied in order, make of the Pauli-rep
    indices of n sites, up to signs: cx(c, t) sets x_t ^= x_c and
    z_c ^= z_t, h swaps its site's z and x bits. pi is linear over GF(2),
    so the images of the 2n unit indices are found first and the table is
    doubled one index bit at a time."""
    units = 1 << np.arange(2 * n, dtype=np.int32)  # index bit b; site i's x bit is 2(n-1-i)
    for g in clifford:
        x = [2 * (n - 1 - q) for q in g.targets]
        if g.name == "cx":
            units ^= (units >> x[0] & 1) << x[1]
            units ^= (units >> x[1] + 1 & 1) << x[0] + 1
        else:
            swap = (units >> x[0] ^ units >> x[0] + 1) & 1
            units ^= swap << x[0] | swap << x[0] + 1
    table = np.empty(4**n, dtype=np.int32)
    table[0] = 0
    for b, image in enumerate(units):
        np.bitwise_xor(table[: 1 << b], image, out=table[1 << b: 2 << b])
    table.flags.writeable = False
    return table


def _tapered(circuit: Circuit, most: int) -> tuple | None:
    """The tapered preparation of ``circuit``, whose own lowering has
    ``most`` steps: :func:`_transfer`'s steps of C U C^dag restricted to each
    sector (:func:`_restricted`), and the index maps to and from the tapered
    words (:func:`_index_map`) as int32 tables of 4^n entries. None, for the
    full register, unless ``most`` is not 0, every gate is a Pauli
    rotation, a Z-type symmetry through site 0 is found
    (:func:`_z_symmetry`), the conjugated lowering has at most ``most``
    steps, and every step on site 0 restricts."""
    if not most:
        return None
    n = circuit.k
    words: dict[int, tuple] = {}
    for g in circuit.gates[: _period(circuit.gates)]:  # every distinct gate
        if id(g) not in words:
            word = _rotation_word(g, n)
            if word is None:
                return None
            words[id(g)] = g, word
    s = _z_symmetry(word.x for _, word in words.values())
    if s is None:
        return None
    clifford = _tapering_clifford(n, s)
    steps = _transfer(_conjugated(circuit, clifford, words))
    if len(steps) > most:
        return None
    sectors = tuple(_restricted(steps, sector) for sector in (0, 1))
    if None in sectors:
        return None
    reserve(2 * 4 * 4**n, f"the tapering index maps of {n} sites")
    gates = clifford.gates  # each self-inverse, so C^dag is them reversed
    return sectors, (_index_map(n, gates[::-1]), _index_map(n, gates))


def _evolve_tapered(amps: np.ndarray, n: int, sectors: tuple, plans: dict, maps: tuple) -> np.ndarray:
    """The Pauli-rep amplitudes ``amps`` of O evolved on the tapered
    register, as Pauli-rep amplitudes. One gather moves them onto the words
    of C O C^dag: the CX ladder maps Z^z X^x products with no sign and the h
    layer with (-1)^{#Y}, which joins the Hermitian phase i^{#Y} of the
    image as (-i)^{#Y}. Each half that holds a nonzero coefficient runs
    through its sector's steps on 2n - 1 qubits, as one float64 register or,
    for complex coefficients, two stacked. The way back is i^{#Y}, then one
    gather. The gathers index with the int32 maps as they are: np.take,
    about 20 us faster per gather at n = 7, first copies them to int64,
    which at n = 12 added 134 MB to the peak."""
    to_tapered, from_tapered = maps
    coeffs = _y_phase(amps[to_tapered], n, -1j)
    for half, steps in zip(coeffs.reshape(2, -1), sectors):
        if not half.any():
            continue
        reg = np.concatenate((half.real, half.imag) if half.imag.any() else (half.real,))
        reserve(2 * reg.nbytes, f"a tapered doubled evolution on {2 * n - 1} qubits")
        reg = run_passes(reg, steps, 2 * n - 1, plans)
        half.real = reg[: len(half)]
        half.imag = reg[len(half):] if len(reg) > len(half) else 0
        del reg
    return _y_phase(coeffs, n, 1j)[from_tapered]


# The last doubled evolution's preparation, as (key, steps, plans, maps): the
# key of :func:`_key`, the steps, the :func:`run_passes` plans made of them,
# and the tapering maps, so the tasks that evolve many operators through one
# circuit, Hermitian or complex, lower and plan it once. For the full
# register the steps are :func:`_transfer`'s and maps is None; a tapered
# circuit's (:func:`_tapered`) are two lists of restricted steps, one per
# sector, sharing the plans, and maps is the two int32 index tables, 8 * 4^n
# bytes. Beside those, a few KB of matrices of at most 64 x 64 and their
# plans, one reference per placed step, and one key entry per gate of the
# circuit's first period.
_KEPT: tuple | None = None


def _key(circuit: Circuit) -> tuple:
    """What :func:`_transfer` lowers: the circuit's size, gate count and
    period p (:func:`_linalg._period`), and each gate of its first period by
    name, targets, repr(angle), which keeps -0.0 apart from 0.0, axes and
    u-matrix bytes."""
    p = _period(circuit.gates)
    return circuit.k, len(circuit.gates), p, tuple(
        (g.name, g.targets, repr(g.angle), g.axes, g._matrix_bytes) for g in circuit.gates[:p])


def _prepared(circuit: Circuit) -> tuple:
    """(steps, plans, maps) of ``circuit`` as the :data:`_KEPT` slot holds
    them, from the slot when its key matches; a miss empties the slot before
    it lowers, so one preparation is held at a time."""
    global _KEPT
    key = _key(circuit)
    if _KEPT is None or _KEPT[0] != key:
        _KEPT = None
        steps = _transfer(circuit)
        steps, maps = _tapered(circuit, len(steps)) or (steps, None)
        _KEPT = key, steps, {}, maps
    return _KEPT[1:]


def heisenberg_doubled(state: VectorizedState, u: Circuit) -> VectorizedState:
    """||O>> -> ||U^dag O U>> in the state's own basis, computational or
    Pauli, as the real transfer passes of ``u`` in the Hermitian-Pauli
    basis, with one :func:`bell_transform` each way for the computational
    rep. The steps and their plans come from the one kept slot
    (:func:`_prepared`), so a circuit of the last one's content is not
    lowered or planned again.

    A circuit of Pauli rotations with a Z-type symmetry through site 0 is
    tapered (:func:`_tapered`): it runs C U C^dag on C O C^dag, one half of
    the register per sector, on 2n - 1 qubits (:func:`_evolve_tapered`), and
    maps the result back. Its preparation states the two int32 index maps,
    8 * 4^n bytes, and each half that runs states its float64 registers
    and :func:`run_passes`'s two buffers of their size, 2 * 8 * 4^n / 2
    bytes, or twice that for complex coefficients, before its first pass.
    Any other circuit runs :func:`_transfer`'s steps on the full register.

    On either register the coefficients run as one float64 register when
    every imaginary part is exactly 0. Otherwise O = A + iB runs as two, A's
    coefficients then B's back to back, through the same steps in one
    :func:`run_passes` call: the transfer matrices are real, so U^dag A U
    and U^dag B U evolve apart. On the full register the float64 registers
    and :func:`run_passes`'s two buffers of their size, 2 * 8 * 4^n bytes, or
    twice that, are stated to the byte budget before the first pass."""
    if u.k != state.n:
        raise ValueError("circuit size does not match site count")
    n = state.n
    steps, plans, maps = _prepared(u)
    amps = state.amplitudes if state.basis == PAULI else bell_transform(state, "c_to_p").amplitudes
    if maps is not None:
        out = VectorizedState(n, PAULI, _evolve_tapered(amps, n, steps, plans, maps))
        return out if state.basis == PAULI else bell_transform(out, "p_to_c")
    # The basis change's output is this call's own, phased in place.
    coeffs = _y_phase(amps.copy() if state.basis == PAULI else amps, n, 1j)
    del amps
    reg = np.concatenate((coeffs.real, coeffs.imag) if coeffs.imag.any() else (coeffs.real,))
    del coeffs  # the complex coefficients are freed before the passes
    reserve(2 * reg.nbytes, f"a doubled evolution on {2 * n} qubits")
    reg = run_passes(reg, steps, 2 * n, plans)
    amps = reg[: 4**n].astype(complex)
    if len(reg) > 4**n:
        amps.imag = reg[4**n:]
    del reg  # the float64 registers are freed before the basis change
    out = VectorizedState(n, PAULI, _y_phase(amps, n, -1j))
    return out if state.basis == PAULI else bell_transform(out, "p_to_c")


# ---------------------------------------------------------------------------
# The two-branch interferometric register.

def _identity_pairs(n: int) -> np.ndarray:
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        amps = np.kron(amps, bell)
    return amps


def _is_unitary(o: PauliSum) -> bool:
    """Whether every entry of O O^dag - I is within 1e-10 of 0. One Pauli
    word c P has O O^dag = |c|^2 I. A sum is checked on its dense matrix;
    that, its conjugate, their product and its moduli are stated first."""
    if len(o) == 1:
        return abs(abs(next(iter(o.terms.values()))) ** 2 - 1) <= 1e-10
    reserve(4 * 16 * 4**o.n, f"the unitarity check of an operator on {o.n} sites")
    m = o.to_dense()
    gram = m @ m.conj().T
    gram.flat[:: 2**o.n + 1] -= 1
    return bool(np.max(np.abs(gram)) <= 1e-10)


def interferometric_state(
    op: PauliSum, op2: PauliSum, u: Circuit, u2: Circuit
) -> QState:
    """Two-branch encoding whose ancilla X expectation reads off
    Re tr(O2(t2) O(t))/2^n with O(t) = U^dag O U and O2(t2) = U2^dag O2 U2.

    Register layout: 2n doubled qubits then one ancilla (qubit 2n), holding
    (|0>||I>> + |1>||O2 U2 O(t) U2^dag>>)/sqrt(2). Both evolutions fix
    ||I>>, so only the ancilla-1 half is evolved, on its own 2n qubits:
    ||O>> by :func:`heisenberg_doubled` of U U2^dag, then O2 on the left
    copy as the terms (c, W, I) of its words on the Pauli rep
    (:func:`vectorize.apply_pauli_terms`), then one basis change. No
    controlled operation and no dense operator is needed.
    """
    n = u.k
    k = 2 * n + 1
    # The peak: the register, O2's product on the branch and the basis
    # change's two buffers. The branch beside the product's working set, four
    # registers of its size (apply_pauli_terms), holds as much before them.
    reserve(16 * 2**k + 3 * 16 * 4**n, f"the interferometric state on {k} qubits")
    for name, o in (("first", op), ("second", op2)):
        if not _is_unitary(o):
            raise ValueError(f"{name} operator is not unitary")
    branch = heisenberg_doubled(vectorize(op, PAULI), u2.inverse().concat(u)).amplitudes
    eye = PauliString.identity(n)
    branch = apply_pauli_terms(branch, n, [(c, w, eye) for c, w in op2.items()])
    amps = np.empty(2**k, dtype=complex)
    amps[0::2] = _identity_pairs(n)
    amps[1::2] = _bell_passes(branch, n, "p_to_c")
    amps /= np.sqrt(2)
    return QState(k, amps)


# ---------------------------------------------------------------------------
# Channel duals by postselection.

def _reserve_dilated(n: int, n_env: int) -> None:
    """State the bytes of the doubled register of n system and n_env
    environment sites that :func:`channel_dual_postselect` builds; a caller
    can state them before it vectorizes the operator."""
    total = n + n_env
    reserve(16 * 4**total, f"the dilated register of {2 * total} qubits")


def channel_dual_postselect(
    dilation: Circuit,
    n_env: int,
    state: VectorizedState,
    sites: tuple[int, ...] | None = None,
) -> tuple[VectorizedState, float]:
    """Propagate ||O>> through the dual of the channel dilated by
    ``dilation`` and postselect every environment qubit (both copies) on 0.

    dilation acts on len(sites) system qubits followed by n_env fresh
    environment qubits; its qubit q < len(sites) is system site sites[q].
    O (x) I runs through :func:`heisenberg_doubled` of the dilation, its
    qubits moved onto their sites. The environment's |0><0| block is taken in
    the Pauli rep, where on each environment site it is (c_I + c_Z)/sqrt(2),
    row 0 of the p_to_c pair transform; only the system's block then moves
    to the computational rep. Returns the renormalized ||E^dag(O)>>_C and the
    exact projection probability tr(E^dag(O)^2) / (tr(O^dag O) 2^{n_env}).
    """
    n = state.n
    if sites is None:
        sites = tuple(range(dilation.k - n_env))
    n_sys = dilation.k - n_env
    if len(sites) != n_sys:
        raise ValueError("site set does not match dilation width")
    if any(s < 0 or s >= n for s in sites):
        raise ValueError("site outside register")

    total = n + n_env
    _reserve_dilated(n, n_env)
    pauli = state if state.basis == PAULI else bell_transform(state, "c_to_p")
    # The environment sites are the least significant: I on each is index 0.
    amps = np.zeros(4**total, dtype=complex)
    amps[:: 4**n_env] = pauli.amplitudes
    # The dilation with each qubit moved onto its site, each distinct gate once.
    site = [*sites, *range(n, total)]
    moved = {id(g): Gate(g.name, [site[q] for q in g.targets], g.angle, g.axes, g.matrix)
             for g in dilation.gates}
    dilated = Circuit(total, [moved[id(g)] for g in dilation.gates])
    amps = heisenberg_doubled(VectorizedState(total, PAULI, amps), dilated).amplitudes
    zero = functools.reduce(np.kron, [_BELL[0]] * n_env)
    block = amps.reshape(4**n, 4**n_env) @ zero
    prob = float(np.linalg.norm(block) ** 2)
    if prob < 1e-12:
        raise ProjectionFailedError("environment projection lost all amplitude", prob)
    return bell_transform(VectorizedState(n, PAULI, block / np.sqrt(prob)), "p_to_c"), prob


# ---------------------------------------------------------------------------
# Random Clifford circuits for tests and oracle cross-checks.

_CLIFFORD_1Q_WORDS = (
    (), ("h",), ("s",), ("h", "s"), ("s", "h"), ("h", "s", "h"),
    ("s", "s"), ("s", "h", "s"), ("x",), ("z",), ("y",), ("s", "s", "h"),
)


def random_clifford_circuit(n: int, layers: int, rng: RngStream) -> Circuit:
    """Brickwork Clifford scrambler: random 1q Clifford words, then CX or CZ
    bricks with alternating offset."""
    gen = rng.generator
    gates: list[Gate] = []
    for layer in range(layers):
        for q in range(n):
            for name in _CLIFFORD_1Q_WORDS[gen.integers(len(_CLIFFORD_1Q_WORDS))]:
                gates.append(Gate(name, (q,)))
        start = layer % 2
        for q in range(start, n - 1, 2):
            name = "cx" if gen.integers(2) else "cz"
            gates.append(Gate(name, (q, q + 1)))
    return Circuit(n, gates)
