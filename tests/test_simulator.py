"""Statevector engine: gates, circuits, Trotterization, doubled-register
evolution, postselected channel duals, and the imaginary-time regulator.

Reference values come from dense linear algebra computed inline; unitary
evolution conventions are pinned by explicit index arithmetic (qubit 0 is
the most significant index bit).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opvec import _linalg, simulator
from opvec._linalg import _period, run_passes
from opvec.errors import CapExceededError, ProjectionFailedError
from opvec.pauli import PauliString, PauliSum
from opvec.simulator import (
    Circuit,
    Gate,
    QState,
    RngStream,
    apply_circuit,
    born_sample,
    channel_dual_postselect,
    dense_unitary,
    gate_matrix,
    heisenberg_doubled,
    interferometric_state,
    random_clifford_circuit,
    super_propagator_circuit,
    trotter_circuit,
)
from opvec.simulator import (
    _TROTTER_STEP_BYTES,
    _absorb,
    _identity_pairs,
    _index_map,
    _is_unitary,
    _lower,
    _prepared,
    _restricted,
    _tapering_clifford,
    _term_gate,
    _transfer,
    _y_phase,
    _z_symmetry,
)
from opvec.superop import conjugate_through
from opvec.vectorize import (
    COMPUTATIONAL,
    PAULI,
    VectorizedState,
    bell_transform,
    index_pauli,
    pauli_index,
    vectorize,
)
from helpers import fielded_chain, ginibre, ising_chain, random_hermitian_sum, random_word, refusal_peak
from reference import apply_matrix, apply_steps


def _expm_exact(m: np.ndarray) -> np.ndarray:
    """exp(m) for anti-hermitian m via the hermitian spectral theorem."""
    w, v = np.linalg.eigh(1j * m)
    return (v * np.exp(-1j * w)) @ v.conj().T


class TestGates:
    def test_x_on_msb_qubit(self):
        state = apply_circuit(
            QState(2, np.eye(4)[0]), Circuit(2, [Gate("x", (0,))])
        )
        want = np.zeros(4)
        want[2] = 1.0
        assert np.allclose(state.amplitudes, want)

    def test_cx_control_is_first_target(self):
        circ = Circuit(2, [Gate("cx", (0, 1))])
        state = apply_circuit(QState(2, np.eye(4)[2]), circ)
        assert np.argmax(np.abs(state.amplitudes)) == 3
        state = apply_circuit(QState(2, np.eye(4)[1]), circ)
        assert np.argmax(np.abs(state.amplitudes)) == 1

    @pytest.mark.parametrize("name,axes", [("rx", "X"), ("ry", "Y"), ("rz", "Z"), ("rxx", "XX"), ("rzz", "ZZ")])
    def test_rotation_is_half_angle_exponential(self, name, axes):
        theta = 0.731
        g = Gate(name, tuple(range(len(axes))), theta)
        p = PauliString.from_label(axes).to_dense()
        assert np.allclose(gate_matrix(g), _expm_exact(-1j * theta * p / 2), atol=1e-12)

    def test_pexp_matches_dense_exponential(self):
        theta = -1.2
        got = gate_matrix(Gate("pexp", (0, 1), theta, "YZ"))
        want = _expm_exact(-1j * theta * PauliString.from_label("YZ").to_dense() / 2)
        assert np.allclose(got, want, atol=1e-12)

    def test_wide_pexp_ladder_matches_dense(self):
        theta = 0.4321
        g = Gate("pexp", (0, 1, 2), theta, "XYZ")
        circ = Circuit(3, [g])
        got = dense_unitary(circ)
        want = _expm_exact(-1j * theta * PauliString.from_label("XYZ").to_dense() / 2)
        assert np.allclose(got, want, atol=1e-12)

    def test_every_gate_inverts(self):
        gates = [
            Gate("h", (0,)),
            Gate("s", (0,)),
            Gate("tdg", (1,)),
            Gate("cx", (0, 1)),
            Gate("swap", (1, 2)),
            Gate("ry", (2,), 0.3),
            Gate("rzz", (0, 2), -0.7),
            Gate("pexp", (0, 1, 2), 1.1, "ZXY"),
            Gate("u", (0,), matrix=np.array([[0, 1j], [1j, 0]])),
        ]
        circ = Circuit(3, gates)
        u = dense_unitary(circ.concat(circ.inverse()))
        assert np.allclose(u, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Gate("frob", (0,)),
            lambda: Gate("h", (0, 1)),
            lambda: Gate("cx", (0, 0)),
            lambda: Gate("h", (0,), angle=0.1),
            lambda: Gate("rx", (0,)),
            lambda: Gate("pexp", (0, 1), 0.5, "X"),
            lambda: Gate("pexp", (0,), 0.5, "Q"),
            lambda: Gate("u", (0,)),
            lambda: Gate("u", (0,), matrix=np.ones((2, 2))),
        ],
    )
    def test_gate_validation(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestCircuit:
    def test_gates_stay_in_order(self):
        gates = [Gate("h", (0,)), Gate("h", (1,)), Gate("cx", (0, 1)), Gate("h", (2,))]
        circ = Circuit(3, gates)
        assert circ.gates == tuple(gates)
        assert circ.num_gates() == 4

    def test_target_range_checked(self):
        with pytest.raises(ValueError):
            Circuit(1, [Gate("h", (1,))])

    def test_concat_applies_left_then_right(self):
        a = Circuit(1, [Gate("h", (0,))])
        b = Circuit(1, [Gate("s", (0,))])
        u = dense_unitary(a.concat(b))
        assert np.allclose(u, gate_matrix(Gate("s", (0,))) @ gate_matrix(Gate("h", (0,))))

    def test_inverse_is_dagger(self, gen):
        circ = random_clifford_circuit(3, 4, RngStream(5))
        u = dense_unitary(circ)
        assert np.allclose(dense_unitary(circ.inverse()), u.conj().T, atol=1e-12)

    def test_inverse_inverts_each_distinct_gate_once(self):
        u = trotter_circuit(ising_chain(7), 1.0, 64)
        inv = u.inverse()
        assert len({id(g) for g in inv.gates}) == len({id(g) for g in u.gates}) == 13
        assert inv.gates == tuple(g.inverse() for g in reversed(u.gates))

    def test_dense_unitary_cap(self):
        # Three arrays of 16 * 4^20 bytes, refused before any is allocated.
        assert refusal_peak(lambda: dense_unitary(Circuit(20)), 3 * 16 * 4**20) < 1 << 20

    def test_dense_unitary_runs_at_exactly_its_three_arrays(self, monkeypatch):
        # The identity and the two pass buffers, 16 * 4^k bytes each.
        circ = trotter_circuit(ising_chain(4), 0.9, 2)
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", 3 * 16 * 4**4)
        assert _close(dense_unitary(circ), _ref_dense_unitary(circ))
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", 3 * 16 * 4**4 - 1)
        with pytest.raises(CapExceededError, match="dense unitary of a circuit on 4 qubits"):
            dense_unitary(circ)

    def test_apply_matches_dense(self, gen):
        circ = random_clifford_circuit(3, 3, RngStream(7))
        amps = ginibre(gen, 8)[:, 0]
        amps /= np.linalg.norm(amps)
        got = apply_circuit(QState(3, amps), circ)
        assert np.allclose(got.amplitudes, dense_unitary(circ) @ amps, atol=1e-12)


class TestRng:
    def test_fork_is_path_determined(self):
        a = RngStream(11).fork("task").fork("inner")
        b = RngStream(11).fork("task").fork("inner")
        assert a.generator.integers(1 << 30) == b.generator.integers(1 << 30)

    def test_forks_are_independent_of_sibling_use(self):
        root = RngStream(11)
        a = root.fork("a")
        a.generator.random(100)
        b = root.fork("b")
        fresh = RngStream(11).fork("b")
        assert b.generator.random() == fresh.generator.random()

    def test_born_sample_deterministic(self):
        state = QState(2, np.ones(4) / 2)
        c1 = born_sample(state, 1000, RngStream(9).fork("s"))
        c2 = born_sample(state, 1000, RngStream(9).fork("s"))
        assert c1 == c2
        assert sum(c1.values()) == 1000

    @pytest.mark.parametrize("k", [1, 6, 12])
    def test_born_sample_matches_a_loop_over_all_outcomes(self, k, gen):
        amps = gen.standard_normal(2**k) + 1j * gen.standard_normal(2**k)
        state = QState(k, amps / np.linalg.norm(amps))
        got = born_sample(state, 500, RngStream(4).fork("s"))
        q = np.rint(state.probabilities() * 2.0**40)
        counts = RngStream(4).fork("s").generator.multinomial(500, q / q.sum())
        want = {int(i): int(c) for i, c in enumerate(counts) if c}
        assert got == want
        assert list(got) == list(want)
        assert all(type(i) is int and type(c) is int for i, c in got.items())

    def test_born_sample_ignores_rounding_dust(self, gen):
        # Half the outcomes hold nothing; a 1e-15 shift of every amplitude
        # puts 1e-30 of dust on each of them, and moves the others' last bits.
        amps = np.zeros(2**8, dtype=complex)
        amps[::2] = gen.standard_normal(2**7) + 1j * gen.standard_normal(2**7)
        clean = QState(8, amps / np.linalg.norm(amps))
        dusty = QState(8, clean.amplitudes + 1e-15)
        redrawn = 0
        for seed in range(20):
            draw = lambda s: born_sample(s, 4096, RngStream(seed).fork("s"))
            assert draw(dusty) == draw(clean)
            raw = lambda s: RngStream(seed).fork("s").generator.multinomial(4096, s.probabilities())
            redrawn += not np.array_equal(raw(dusty), raw(clean))
        # Without the grid the dust redraws the sample.
        assert redrawn > 0


class TestTrotter:
    def test_single_term_is_exact(self):
        h = PauliSum.from_text("0.8 0 XX")
        t = 1.3
        u = dense_unitary(trotter_circuit(h, t, 1))
        assert np.allclose(u, _expm_exact(-1j * t * h.to_dense()), atol=1e-12)

    def test_zero_time_is_empty(self):
        assert trotter_circuit(ising_chain(2), 0.0, 4).gates == ()
        assert super_propagator_circuit(ising_chain(2), 0.0, 4).gates == ()

    def test_first_order_convergence(self):
        h = ising_chain(3)
        t = 1.0
        exact = _expm_exact(-1j * t * h.to_dense())
        errs = [
            np.linalg.norm(dense_unitary(trotter_circuit(h, t, s)) - exact)
            for s in (8, 16, 32)
        ]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(1.8 < r < 2.2 for r in ratios)

    def test_imaginary_coefficient_rejected(self):
        with pytest.raises(ValueError):
            trotter_circuit(PauliSum.from_text("0 1 XX"), 1.0, 1)

    @pytest.mark.parametrize("n", [3, 5])
    def test_text_round_trip_keeps_the_trotter_order(self, n):
        h = ising_chain(n)
        h.add(0.3, PauliString.from_label("YY".ljust(n, "I")))
        back = PauliSum.from_text(h.to_text())
        assert [p.label for _, p in back.ordered_items()] == [p.label for _, p in h.ordered_items()]
        assert trotter_circuit(back, 0.7, 3).gates == trotter_circuit(h, 0.7, 3).gates

    def test_super_propagator_tracks_heisenberg(self):
        h = PauliSum.from_text("0.8 0 XY")  # single term: no splitting error
        t = 0.9
        o = PauliSum.from_text("1 0 ZI")
        start = vectorize(o, COMPUTATIONAL)
        reg = heisenberg_doubled(start, super_propagator_circuit(h, t, 1))
        u = _expm_exact(-1j * t * h.to_dense())
        want = vectorize(u.conj().T @ o.to_dense() @ u, COMPUTATIONAL)
        assert np.allclose(reg.amplitudes, want.amplitudes, atol=1e-12)

    def test_super_propagator_reverses_each_step(self):
        # The same gates, bitwise, each step's terms reversed.
        h = ising_chain(3)
        plain = trotter_circuit(h, 1.0, 4).gates
        reverse = super_propagator_circuit(h, 1.0, 4).gates
        assert reverse == sum((plain[i:i + 5][::-1] for i in range(0, 20, 5)), ())
        assert [repr(g.angle) for g in reverse[:5]] == [repr(g.angle) for g in plain[4::-1]]


class TestDoubledEvolution:
    def test_heisenberg_matches_dense(self, gen):
        circ = random_clifford_circuit(2, 3, RngStream(21))
        mat = ginibre(gen, 4)
        u = dense_unitary(circ)
        got = heisenberg_doubled(vectorize(mat, COMPUTATIONAL), circ)
        want = vectorize(u.conj().T @ mat @ u, COMPUTATIONAL)
        assert np.allclose(got.amplitudes, want.amplitudes, atol=1e-12)


class TestInterferometric:
    def test_ancilla_x_reads_correlator(self):
        op = PauliSum.from_text("1 0 XI")
        op2 = PauliSum.from_text("1 0 ZX")
        u = random_clifford_circuit(2, 2, RngStream(41))
        u2 = random_clifford_circuit(2, 3, RngStream(42))
        state = interferometric_state(op, op2, u, u2)
        # <X> on the last qubit, computed densely
        amps = state.amplitudes.reshape(-1, 2)
        got = float(2 * (amps[:, 0].conj() * amps[:, 1]).sum().real)
        ud, ud2 = dense_unitary(u), dense_unitary(u2)
        o_t = ud.conj().T @ op.to_dense() @ ud
        o2_t = ud2.conj().T @ op2.to_dense() @ ud2
        want = float(np.trace(o2_t @ o_t).real) / 4
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_ancilla_zero_half_is_the_identity(self, n):
        # Both evolution passes fix ||I>>, so that half is never evolved.
        u = trotter_circuit(ising_chain(n), 0.7, 3)
        op, op2 = PauliSum.from_text("1 0 " + "XZY"[:n]), PauliSum.from_text("1 0 " + "ZYX"[:n])
        state = interferometric_state(op, op2, u, u.inverse())
        assert np.array_equal(state.amplitudes[0::2], _identity_pairs(n) / np.sqrt(2))

    def test_reservation_at_11_sites(self, monkeypatch):
        # The peak, stated before anything is built: the register, O2's
        # product on the branch and the basis change's two buffers. No dense
        # operator is built.
        n = 11
        want = 16 * 2 ** (2 * n + 1) + 3 * 16 * 4**n
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", want - 1)
        op = PauliSum.from_text("1 0 " + "Z" * n)
        peak = refusal_peak(lambda: interferometric_state(op, op, Circuit(n), Circuit(n)), want)
        assert peak < 1 << 20

    # A word is judged by its coefficient alone, a sum by its dense product.
    @pytest.mark.parametrize("text, unitary", [
        ("1 0 XI", True), ("0.6 0.8 YZ", True), ("0.5 0 XI", False), ("1.000001 0 ZZ", False),
        ("0.6 0 XI\n0.8 0 ZI", True), ("0.5 0 II\n0.5 0 XX\n0.5 0 YY\n0.5 0 ZZ", True),
        ("0.6 0 XI\n0.8 0 IZ", False), ("0.7071067811865476 0 XI\n0 0.7071067811865476 YI", False),
    ])
    def test_unitarity_check_matches_the_dense_product(self, text, unitary):
        o = PauliSum.from_text(text)
        m = o.to_dense()
        assert _is_unitary(o) is unitary
        assert unitary == (np.max(np.abs(m @ m.conj().T - np.eye(4))) <= 1e-10)

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            interferometric_state(
                PauliSum.from_text("0.5 0 XI"),
                PauliSum.from_text("1 0 IZ"),
                Circuit(2),
                Circuit(2),
            )


class TestChannelDual:
    def test_identity_dilation_halves_norm_per_env_qubit(self):
        state = vectorize(PauliString.from_label("ZI"), COMPUTATIONAL)
        dilation = Circuit(3)  # 2 system qubits, 1 idle environment qubit
        out, prob = channel_dual_postselect(dilation, 1, state)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_bit_flip_shrinks_z(self):
        p = 0.1
        theta = 2 * np.arcsin(np.sqrt(p))
        dilation = Circuit(2, [Gate("ry", (1,), theta), Gate("cx", (1, 0))])
        state = vectorize(PauliString.from_label("Z"), COMPUTATIONAL)
        out, prob = channel_dual_postselect(dilation, 1, state)
        assert prob == pytest.approx((1 - 2 * p) ** 2 / 2, abs=1e-12)
        want = vectorize(PauliSum.from_text(f"{1 - 2 * p} 0 Z"), COMPUTATIONAL)
        assert np.allclose(out.amplitudes, want.amplitudes, atol=1e-10)

    @pytest.mark.parametrize("n,sites,n_env",
                             [(3, (1,), 1), (4, (0, 2), 1), (2, (1,), 2), (7, (3,), 1)])
    def test_postselecting_in_the_pauli_rep_matches_the_whole_register(self, gen, n, sites, n_env):
        # The environment's |0><0| block taken from the Pauli rep, and only
        # the system's block moved to the computational rep, against the
        # whole dilated register moved first and the block taken after.
        state = vectorize(ginibre(gen, 2**n), COMPUTATIONAL)
        dilation = _mixed_circuit(gen, len(sites) + n_env, 20)
        out, prob = channel_dual_postselect(dilation, n_env, state, sites=sites)
        total = n + n_env
        amps = np.zeros(4**total, dtype=complex)
        amps[:: 4**n_env] = bell_transform(state, "c_to_p").amplitudes
        site = [*sites, *range(n, total)]
        moved = Circuit(total, [Gate(g.name, [site[q] for q in g.targets], g.angle, g.axes, g.matrix)
                                for g in dilation.gates])
        whole = heisenberg_doubled(VectorizedState(total, PAULI, amps), moved)
        whole = bell_transform(whole, "p_to_c").amplitudes
        block = whole.reshape(4**n, 4**n_env)[:, 0]
        want = float(np.linalg.norm(block) ** 2)
        assert out.basis == COMPUTATIONAL
        assert abs(prob - want) < 1e-12
        assert np.max(np.abs(out.amplitudes - block / np.sqrt(want))) < 1e-12

    def test_vanishing_projection_raises(self):
        theta = 2 * np.arcsin(np.sqrt(0.5))
        dilation = Circuit(2, [Gate("ry", (1,), theta), Gate("cx", (1, 0))])
        state = vectorize(PauliString.from_label("Z"), COMPUTATIONAL)
        with pytest.raises(ProjectionFailedError) as err:
            channel_dual_postselect(dilation, 1, state)
        assert err.value.probability <= 1e-12


def test_random_clifford_is_unitary_and_seeded():
    a = dense_unitary(random_clifford_circuit(3, 4, RngStream(77).fork("c")))
    b = dense_unitary(random_clifford_circuit(3, 4, RngStream(77).fork("c")))
    assert np.allclose(a, b)
    assert np.allclose(a @ a.conj().T, np.eye(8), atol=1e-12)


# ---------------------------------------------------------------------------
# References: the gate-by-gate loops that the shared lowering replaced, one
# apply_matrix per gate and copy. The lowerings must reproduce them to 1e-12
# and give bitwise-identical results on reruns.

def _close(got, want) -> bool:
    return np.allclose(got, want, rtol=0, atol=1e-12)


def _ref_expand(circuit: Circuit):
    for g in circuit.gates:
        if g.name != "pexp" or len(g.targets) <= 2:
            yield g
            continue
        pre = []
        for t, a in zip(g.targets, g.axes):
            if a == "X":
                pre.append(Gate("h", (t,)))
            elif a == "Y":
                pre += [Gate("sdg", (t,)), Gate("h", (t,))]
        chain = [Gate("cx", (g.targets[i], g.targets[i + 1])) for i in range(len(g.targets) - 1)]
        post = [p.inverse() for p in reversed(pre)]
        yield from pre + chain + [Gate("rz", (g.targets[-1],), g.angle)] + chain[::-1] + post


def _ref_dense_unitary(circuit: Circuit) -> np.ndarray:
    dim = 2**circuit.k
    cols = np.eye(dim, dtype=complex)
    for j in range(dim):
        col = cols[:, j].copy()
        for g in _ref_expand(circuit):
            col = apply_matrix(col, gate_matrix(g), g.targets, circuit.k)
        cols[:, j] = col
    return cols


def _ref_doubled_pass(amps, u: Circuit, k: int, dagger: bool, qubit=lambda q: 2 * q):
    gates = list(_ref_expand(u))
    for g in reversed(gates) if dagger else gates:
        m = gate_matrix(g).conj().T if dagger else gate_matrix(g)
        amps = apply_matrix(amps, m, tuple(qubit(t) for t in g.targets), k)
        amps = apply_matrix(amps, m.conj(), tuple(qubit(t) + 1 for t in g.targets), k)
    return amps


def _ref_heisenberg_doubled(state: VectorizedState, u: Circuit) -> np.ndarray:
    return _ref_doubled_pass(state.amplitudes, u, 2 * state.n, dagger=True)


def _ref_interferometric_state(op, op2, u: Circuit, u2: Circuit) -> np.ndarray:
    n = u.k
    k = 2 * n + 1
    amps = np.kron(_identity_pairs(n), np.array([1, 1], dtype=complex) / np.sqrt(2))

    def controlled(amps, mat):
        block = np.eye(2 * mat.shape[0], dtype=complex)
        block[mat.shape[0]:, mat.shape[0]:] = mat
        return apply_matrix(amps, block, (2 * n,) + tuple(2 * i for i in range(n)), k)

    amps = controlled(amps, op.to_dense())
    amps = _ref_doubled_pass(amps, u, k, dagger=True)
    amps = _ref_doubled_pass(amps, u2, k, dagger=False)
    return controlled(amps, op2.to_dense())


def _ref_channel_dual_postselect(dilation: Circuit, n_env: int, state, sites):
    n, n_sys = state.n, dilation.k - n_env
    total = n + n_env
    amps = np.kron(state.amplitudes, _identity_pairs(n_env))
    amps = _ref_doubled_pass(
        amps, dilation, 2 * total, dagger=True,
        qubit=lambda q: 2 * (sites[q] if q < n_sys else n + (q - n_sys)),
    )
    block = amps.reshape(4**n, 4**n_env)[:, 0]
    prob = float(np.linalg.norm(block) ** 2)
    return block / np.sqrt(prob), prob


def _random_unitary(gen, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _mixed_circuit(gen, k: int, count: int) -> Circuit:
    """Seeded circuit mixing fixed 1q/2q gates, rotations (signed zero
    angles included), narrow and wide pexp, and explicit unitaries."""
    gates = []
    while len(gates) < count:
        q = tuple(int(x) for x in gen.permutation(k))
        kind = int(gen.integers(5))
        if kind == 0:
            gates.append(Gate(str(gen.choice(["x", "y", "h", "s", "sdg", "t", "tdg"])), q[:1]))
        elif kind == 1 and k > 1:
            gates.append(Gate(str(gen.choice(["cx", "cz", "swap"])), q[:2]))
        elif kind == 2:
            name = str(gen.choice(["rx", "ry", "rz", "rxx", "ryy", "rzz"]))
            width = 1 if len(name) == 2 else 2
            if width <= k:
                angle = float(gen.choice([0.0, -0.0, 0.3, gen.normal()]))
                gates.append(Gate(name, q[:width], angle))
        elif kind == 3:
            width = int(gen.integers(1, k + 1))
            axes = "".join(gen.choice(list("XYZ"), width))
            gates.append(Gate("pexp", q[:width], float(gen.normal()), axes))
        elif kind == 4:
            width = min(k, int(gen.integers(1, 3)))
            gates.append(Gate("u", q[:width], matrix=_random_unitary(gen, 2**width)))
    return Circuit(k, gates)


def _symmetric_circuit(gen, n: int, count: int, symmetries: int) -> Circuit:
    """Seeded circuit of ``count`` Pauli rotations on n sites, repeated 1 to
    3 times, whose generators commute with each of ``symmetries`` random
    Z-type words through site 0: words of 1 to 3 sites, one in six as wide
    as the register, Y letters included, as a named rotation where one fits
    and otherwise a pexp on its sites in random order."""
    masks = [1 | 2 * int(gen.integers(2 ** (n - 1))) for _ in range(symmetries)]
    gates = []
    while len(gates) < count:
        width = n if gen.integers(6) == 0 else int(gen.integers(1, min(n, 3) + 1))
        sites = [int(q) for q in gen.permutation(n)[:width]]
        axes = "".join(gen.choice(list("XYZ"), width))
        x = sum(1 << q for q, a in zip(sites, axes) if a in "XY")
        if any(bin(x & s).count("1") % 2 for s in masks):
            continue
        angle = float(gen.normal())
        named = {"X": "rx", "Y": "ry", "Z": "rz", "XX": "rxx", "YY": "ryy", "ZZ": "rzz"}.get(axes)
        if named and gen.integers(2):
            gates.append(Gate(named, sites, angle))
        else:
            gates.append(Gate("pexp", sites, angle, axes))
    return Circuit(n, gates * int(gen.integers(1, 4)))


def _twin_u_circuit(gen, k: int) -> Circuit:
    """Two u gates on the same targets with different matrices, which a
    lowering or fusion cache keyed on name and targets alone would merge."""
    a = Gate("u", (0, 1), matrix=_random_unitary(gen, 4))
    b = Gate("u", (0, 1), matrix=_random_unitary(gen, 4))
    assert a != b and not np.array_equal(a.matrix, b.matrix)
    return Circuit(k, [a, Gate("h", (0,)), b, Gate("pexp", (0, 1, 2), 0.7, "XYZ")])


class TestLoweringMatchesGateLoops:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_dense_unitary(self, k):
        gen = np.random.default_rng(100 + k)
        for circ in (_mixed_circuit(gen, k, 30), _mixed_circuit(gen, k, 30)):
            assert _close(dense_unitary(circ), _ref_dense_unitary(circ))
        if k >= 3:
            circ = _twin_u_circuit(gen, k)
            assert _close(dense_unitary(circ), _ref_dense_unitary(circ))

    def test_angles_of_other_dtypes_build_one_matrix(self):
        narrow, wide = Gate("rx", (1,), np.float32(0.5)), Gate("rx", (1,), 0.5)
        assert type(narrow.angle) is float and narrow == wide
        assert np.array_equal(gate_matrix(narrow), gate_matrix(wide))
        circ = Circuit(4, [narrow, Gate("h", (1,)), wide])
        assert _close(dense_unitary(circ), _ref_dense_unitary(circ))

    def test_dense_unitary_columns_are_applied_basis_states(self):
        circ = _mixed_circuit(np.random.default_rng(7), 5, 40)
        u = dense_unitary(circ)
        for j in (0, 13, 31):
            col = apply_circuit(QState(5, np.eye(32)[j]), circ).amplitudes
            assert _close(u[:, j], col)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_heisenberg_doubled(self, n):
        gen = np.random.default_rng(200 + n)
        circuits = [_mixed_circuit(gen, n, 40)] + ([_twin_u_circuit(gen, n)] if n >= 3 else [])
        for circ in circuits:
            state = vectorize(ginibre(gen, 2**n), COMPUTATIONAL)
            got = heisenberg_doubled(state, circ).amplitudes
            assert _close(got, _ref_heisenberg_doubled(state, circ))

    @pytest.mark.parametrize("n", [2, 3])
    def test_interferometric_state(self, n):
        gen = np.random.default_rng(300 + n)
        op = PauliSum.from_text("1 0 " + "XZY"[:n])
        op2 = PauliSum.from_text("1 0 " + "ZYX"[:n])
        u, u2 = _mixed_circuit(gen, n, 30), _twin_u_circuit(gen, n) if n >= 3 else _mixed_circuit(gen, n, 30)
        got = interferometric_state(op, op2, u, u2).amplitudes
        assert _close(got, _ref_interferometric_state(op, op2, u, u2))

    def test_channel_dual_postselect(self):
        gen = np.random.default_rng(400)
        state = vectorize(ginibre(gen, 8), COMPUTATIONAL)
        for sites in ((2,), (0, 2)):
            dilation = _mixed_circuit(gen, len(sites) + 1, 25)
            out, prob = channel_dual_postselect(dilation, 1, state, sites=sites)
            want, want_prob = _ref_channel_dual_postselect(dilation, 1, state, sites)
            assert _close(out.amplitudes, want) and prob == pytest.approx(want_prob, abs=1e-12)

    def test_shared_matrices_are_read_only(self):
        src = np.array([[0, 1j], [1j, 0]])
        g = Gate("u", (0,), matrix=src)
        src[0, 1] = 5.0
        assert g.matrix[0, 1] == 1j
        assert not gate_matrix(Gate("h", (0,))).flags.writeable
        assert not gate_matrix(g).flags.writeable
        circ = _mixed_circuit(np.random.default_rng(8), 3, 20)
        for lowered in (_lower(circ), _transfer(circ)):
            for mat, _ in lowered:
                with pytest.raises(ValueError):
                    mat[(0,) * mat.ndim] = 0.0

    def test_reruns_are_bitwise_identical(self):
        gen = np.random.default_rng(500)
        circ, circ2 = _mixed_circuit(gen, 3, 40), _twin_u_circuit(gen, 3)
        state = vectorize(ginibre(gen, 8), COMPUTATIONAL)
        op, op2 = PauliSum.from_text("1 0 XZY"), PauliSum.from_text("1 0 ZYX")
        runs = [
            lambda: dense_unitary(circ),
            lambda: heisenberg_doubled(state, circ).amplitudes,
            lambda: interferometric_state(op, op2, circ, circ2).amplitudes,
            lambda: channel_dual_postselect(circ, 1, state, sites=(0, 2))[0].amplitudes,
        ]
        for run in runs:
            assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# The pass executor against a dense kron reference and, bit for bit, against
# the per-step kernel it replaced; and the single-register lowering.

def _dense_reference(vec, mat, targets, k):
    """mat (x) I on (targets, then the other qubits), permuted back to the
    natural qubit order, times vec."""
    rest = [q for q in range(k) if q not in targets]
    full = np.kron(mat, np.eye(2 ** len(rest)))
    inv = list(np.argsort(list(targets) + rest))
    full = full.reshape((2,) * (2 * k)).transpose(inv + [k + i for i in inv])
    return full.reshape(2**k, 2**k) @ vec


@st.composite
def _apply_cases(draw):
    k = draw(st.integers(1, 7))
    m = draw(st.integers(1, min(k, 4)))
    if draw(st.booleans()):
        lo = draw(st.integers(0, k - m))
        targets = tuple(range(lo, lo + m))
    else:
        targets = tuple(draw(st.permutations(range(k)))[:m])
    return k, targets, draw(st.integers(0, 2**32 - 1))


class TestApplyMatrix:
    """One step through run_passes against a dense kron reference, and
    step lists against one reference apply_matrix per step, bit for bit."""

    @given(_apply_cases())
    @example((6, (0, 1), 1))  # block at the start, trailing block of 16
    @example((6, (2, 3), 2))  # middle
    @example((6, (4, 5), 3))  # end: trailing block of 1
    @example((6, (3, 4), 4))  # trailing block of 2
    @example((6, (1, 4), 6))  # not contiguous
    @example((6, (3, 2), 7))  # unsorted
    @example((6, (0, 1, 2, 3), 9))  # D=16, trailing block of 4: transposed GEMM
    @example((7, (0, 1, 2, 3), 10))  # D=16, trailing block of 8
    def test_matches_dense_kron(self, case):
        k, targets, seed = case
        gen = np.random.default_rng(seed)
        vec = gen.normal(size=2**k) + 1j * gen.normal(size=2**k)
        mat = _random_unitary(gen, 2 ** len(targets))
        got = run_passes(vec, [(mat, targets)], k)
        assert _close(got, _dense_reference(vec, mat, targets, k))

    # Steps of each kernel class on a k-qubit register, k = 2n or 2n + 1 for
    # n = 5 and 7, as (matrix size, targets). A, D, B are the leading, target
    # and trailing block sizes: B1 is B = 1, A1 is A = 1, B-ge-D is B >= D,
    # and the narrow classes have 1 < B < D.
    _CLASSES = {
        "B1": lambda k: [(16, tuple(range(k - 4, k))), (4, (k - 2, k - 1))],
        "A1": lambda k: [(16, (0, 1, 2, 3)), (4, (0, 1))],
        "B-ge-D": lambda k: [(16, (k - 8, k - 7, k - 6, k - 5)), (4, (1, 2))],
        # D * B <= 32 folds; D * B = 64 folds with at least 32 leading rows.
        "narrow-folded": lambda k: [(16, tuple(range(k - 5, k - 1))), (8, (k - 5, k - 4, k - 3))]
                                   + [(16, tuple(range(k - 6, k - 2)))] * (k > 10),
        # B = 8, and B = 4 with fewer than 32 leading rows.
        "narrow-transposed": lambda k: [(16, tuple(range(k - 7, k - 3)))]
                                       + [(16, tuple(range(k - 6, k - 2)))] * (k < 11),
        "non-contiguous": lambda k: [(4, (1, k - 2)), (8, (k - 1, 0, 3)), (16, (3, 1, 2, 0))],
    }

    @pytest.mark.parametrize("k", [10, 11, 14, 15])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("kernel", list(_CLASSES))
    def test_kernel_classes_match_the_per_step_kernel(self, kernel, dtype, k):
        gen = np.random.default_rng(k)
        steps = []
        for size, targets in self._CLASSES[kernel](k):
            mat = gen.normal(size=(size, size)).astype(dtype)
            if dtype is np.complex128:
                mat += 1j * gen.normal(size=mat.shape)
            steps.append((mat, targets))
        vec = gen.normal(size=2**k).astype(dtype)
        before = vec.copy()
        # Every step twice, and the list twice: the passes alternate buffers
        # and each distinct step's plan is reused.
        steps = [step for step in steps for _ in range(2)] * 2
        got = run_passes(vec, steps, k)
        assert got.dtype == dtype
        assert got.tobytes() == apply_steps(vec, steps, k).tobytes()
        assert np.array_equal(vec, before)

    @staticmethod
    def _random_step(gen, k, dtype):
        """One step on a k-qubit register: a dense matrix of ``dtype`` on
        contiguous or permuted targets."""
        m = int(gen.integers(1, min(k, 4) + 1))
        targets = tuple(int(t) for t in gen.permutation(k)[:m])
        if gen.integers(2):
            lo = int(gen.integers(0, k - m + 1))
            targets = tuple(range(lo, lo + m))
        mat = gen.normal(size=(2**m, 2**m))
        if dtype is np.complex128:
            mat = mat + 1j * gen.normal(size=mat.shape)
        return mat, targets

    @given(st.integers(2, 9), st.integers(0, 2**32 - 1), st.sampled_from([np.float64, np.complex128]))
    @example(9, 3, np.float64)
    @example(9, 3, np.complex128)
    def test_random_step_lists_match_the_per_step_kernel(self, k, seed, dtype):
        # Every step has the register's dtype, as every caller's do.
        gen = np.random.default_rng(seed)
        steps = [self._random_step(gen, k, dtype) for _ in range(int(gen.integers(1, 8)))]
        vec = gen.normal(size=2**k) if dtype is np.float64 else ginibre(gen, 2**k)[0]
        before = vec.copy()
        got = run_passes(vec, steps, k)
        want = apply_steps(vec, steps, k)
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(vec, before)

    @settings(deadline=None)
    @given(st.integers(2, 8), st.integers(1, 6), st.sampled_from([1, 2, 3, 7]),
           st.integers(0, 2**32 - 1), st.sampled_from([np.float64, np.complex128]))
    @example(6, 3, 7, 1, np.complex128)  # odd period: the bound cycle spans two periods
    @example(6, 4, 7, 2, np.float64)  # even period: each step is bound once per buffer
    @example(5, 1, 7, 3, np.complex128)  # one step repeated
    @example(5, 5, 3, 4, np.float64)  # no pass past 3p: every pass runs as it is bound
    def test_repeated_step_lists_match_the_per_step_kernel(self, k, period, repeats, seed, dtype):
        # A period of random steps, the list repeating it by identity, as a
        # Trotter evolution's lowering does.
        gen = np.random.default_rng(seed)
        steps = [self._random_step(gen, k, dtype) for _ in range(period)] * repeats
        assert _period(steps) == period
        vec = gen.normal(size=2**k).astype(dtype)
        before = vec.copy()
        got = run_passes(vec, steps, k)
        want = apply_steps(vec, steps, k)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(vec, before)

    @settings(deadline=None)
    @given(st.integers(2, 9), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.sampled_from([np.float64, np.complex128]))
    @example(6, 2, 1, np.float64)
    @example(9, 3, 2, np.complex128)
    def test_stacked_registers_match_single_register_runs(self, k, m, seed, dtype):
        # m k-qubit registers back to back through one run_passes call, as a
        # complex operator's real and imaginary parts run, against one call
        # per register: bit for bit at m = 1, within 1e-15 of unit-norm
        # registers through unitary steps otherwise, where a GEMM over more
        # rows may round differently. One step has non-adjacent targets.
        gen = np.random.default_rng(seed)
        steps = [self._random_step(gen, k, dtype) for _ in range(int(gen.integers(1, 8)))]
        steps.insert(int(gen.integers(len(steps) + 1)), (gen.normal(size=(4, 4)), (k - 1, 0)))
        steps = [(_random_unitary(gen, len(mat)) if dtype is np.complex128 else np.linalg.qr(mat)[0],
                  targets) for mat, targets in steps]
        regs = [gen.normal(size=2**k).astype(dtype) for _ in range(m)]
        if dtype is np.complex128:
            regs = [reg + 1j * gen.normal(size=2**k) for reg in regs]
        regs = [reg / np.linalg.norm(reg) for reg in regs]
        got = run_passes(np.concatenate(regs), steps, k)
        want = np.concatenate([run_passes(reg, steps, k) for reg in regs])
        assert got.dtype == dtype and got.shape == want.shape
        if m == 1:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_no_steps_return_the_input(self):
        vec = np.ones(8)
        assert run_passes(vec, [], 3) is vec

    def test_buffers_are_stated_to_the_budget(self, monkeypatch):
        # Each buffer holds 2^12 amplitudes of the register's dtype: refused
        # before the first pass.
        for dtype in (np.float64, np.complex128):
            vec, steps = np.ones(2**12, dtype), [(np.eye(2, dtype=dtype), (0,))] * 2
            monkeypatch.setattr(_linalg, "BYTE_BUDGET", vec.nbytes - 1)
            with pytest.raises(CapExceededError, match="each register buffer of 12 qubits"):
                run_passes(vec, steps, 12)
            monkeypatch.setattr(_linalg, "BYTE_BUDGET", vec.nbytes)
            assert run_passes(vec, steps, 12).dtype == dtype

    def test_a_doubled_evolution_allocates_no_register_per_pass(self):
        # A 64-step n=5 Heisenberg evolution of complex coefficients: their
        # real and imaginary parts as two float64 registers of 2^10
        # amplitudes back to back (16 KiB), 3 passes per step, the last a
        # fused 64 x 64 block. Beyond the input, the run holds its two
        # buffers and its plans: 2.37 registers.
        n = 5
        lowered = _transfer(trotter_circuit(ising_chain(n), 1.0, 64))
        assert len(lowered) == 64 * (n - 2)
        vec = np.random.default_rng(5).normal(size=2 * 4**n)
        register = vec.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = run_passes(vec, lowered, 2 * n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert _close(got, apply_steps(vec, lowered, 2 * n))
        assert 2 * register <= peak < 3 * register

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_register_buffers_start_on_a_cache_line(self, dtype):
        # Both buffers, whichever one the last pass wrote, whatever the
        # input's own alignment.
        size = 2**10 * np.dtype(dtype).itemsize
        for offset in range(0, 64, 8):
            vec = np.zeros(size + 64, np.uint8)[offset: offset + size].view(dtype)
            for passes in (1, 2):
                got = run_passes(vec, [(np.eye(4), (0, 1))] * passes, 10)
                assert got.ctypes.data % 64 == 0


    def test_a_repeated_step_is_planned_and_bound_once_per_period(self, monkeypatch):
        # The n=7 Ising evolution's 5 passes per Trotter step: each distinct
        # step is planned once, and at most 3 periods of passes are bound,
        # however many steps the evolution has. Each run matches the per-step
        # kernel bit for bit.
        counts = {}
        plan = _linalg._plan

        def counted_plan(mat, targets, k):
            counts["plans"] += 1
            bind = plan(mat, targets, k)

            def counted_bind(src, dst, spare):
                counts["binds"] += 1
                return bind(src, dst, spare)

            return counted_bind

        monkeypatch.setattr(_linalg, "_plan", counted_plan)
        h = ising_chain(7)
        vec = np.random.default_rng(6).normal(size=4**7)
        seen = []
        for steps in (16, 64):
            counts.update(plans=0, binds=0)
            lowered = _transfer(trotter_circuit(h, 1.0, steps))
            assert len(lowered) == 5 * steps
            got = run_passes(vec, lowered, 14)
            assert got.tobytes() == apply_steps(vec, lowered, 14).tobytes()
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["plans"] == 5 and seen[0]["binds"] <= 15


def _planned_split(mat, targets, k) -> bool:
    """Whether :func:`_linalg._plan` runs ``mat`` on ``targets`` as two
    half-size products: one matmul whose only operand apart from the
    register views is a (2, h, h) stack of diagonal quadrants, of ``mat``
    or of its fold."""
    src, dst, spare = (np.zeros(2**k) for _ in range(3))
    call = _linalg._plan(mat, targets, k)(src, dst, spare)
    own = [a.shape for a in call.args if isinstance(a, np.ndarray)
           and not any(np.shares_memory(a, buf) for buf in (src, dst, spare))]
    return call.func is np.matmul and len(own) == 1 and own[0] == (2, own[0][-1], own[0][-1])


def _block_diagonal(gen, size, dtype):
    """A random ``size`` x ``size`` matrix of ``dtype`` whose off-diagonal
    quadrants are exactly zero."""
    h = size // 2
    mat = np.zeros((size, size), dtype)
    for s in (slice(0, h), slice(h, size)):
        mat[s, s] = gen.normal(size=(h, h))
        if dtype is np.complex128:
            mat[s, s] += 1j * gen.normal(size=(h, h))
    return mat


class TestSplitPasses:
    """A block that is block-diagonal in its leading target qubit runs as two
    half-size products where _plan splits it, bit for bit as the dense
    product it replaces."""

    # (k, block side, targets) of each split shape, with A, D, B as in _plan.
    _SHAPES = {
        "B1": (12, 64, tuple(range(6, 12))),  # the fused tail, A = 64
        "B1-wide-batch": (15, 64, tuple(range(9, 15))),  # A = 512
        "B1-16": (12, 16, tuple(range(8, 12))),  # A = 256
        "B1-folded-16": (12, 8, (8, 9, 10)),  # B = 2: a 16 x 16 fold
        "B1-folded": (11, 16, (6, 7, 8, 9)),  # B = 2: a 32 x 32 fold
        "B1-narrow-fold": (12, 16, (6, 7, 8, 9)),  # B = 4: a 64 x 64 fold
        "B-ge-D": (14, 16, (6, 7, 8, 9)),  # B = 16
        "B-ge-D-wide": (14, 16, (2, 3, 4, 5)),  # B = 256
        "B-ge-D-64": (14, 64, (2, 3, 4, 5, 6, 7)),
        "A1": (10, 16, (0, 1, 2, 3)),  # B = 64
        "A1-64": (12, 64, tuple(range(6))),
    }

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("shape", list(_SHAPES))
    def test_split_keeps_the_dense_bits(self, monkeypatch, shape, dtype):
        k, size, targets = self._SHAPES[shape]
        gen = np.random.default_rng(k + size)
        mat = _block_diagonal(gen, size, dtype)
        assert _planned_split(mat, targets, k)
        vec = gen.normal(size=2**k).astype(dtype)
        if dtype is np.complex128:
            vec += 1j * gen.normal(size=2**k)
        # Twice, so the second pass reads the first one's buffer.
        steps = [(mat, targets)] * 2
        got = run_passes(vec, steps, k)
        monkeypatch.setattr(_linalg, "_halves", lambda mat: None)
        assert got.tobytes() == run_passes(vec, steps, k).tobytes()
        want = apply_steps(vec, steps, k)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("k, size, targets", [
        (12, 8, tuple(range(9, 12))),  # B = 1 at D = 8
        (11, 16, (5, 6, 7, 8)),  # B = 4: a 64 x 64 fold with only 32 rows
        (14, 32, (6, 7, 8, 9, 10)),  # B = 8 < h: transposed
        (14, 4, (3, 4)),  # D = 4
        (12, 64, tuple(range(5, 11))),  # B = 2 < D: transposed
    ])
    def test_small_or_narrow_blocks_stay_dense(self, k, size, targets):
        mat = _block_diagonal(np.random.default_rng(0), size, np.float64)
        assert not _planned_split(mat, targets, k)

    @pytest.mark.parametrize("row, col", [(0, 63), (40, 3)])
    def test_a_nonzero_off_diagonal_entry_takes_the_dense_path(self, row, col):
        k, size, targets = self._SHAPES["B1"]
        gen = np.random.default_rng(3)
        mat = _block_diagonal(gen, size, np.float64)
        mat[row, col] = 1e-300
        assert _linalg._halves(mat) is None
        assert not _planned_split(mat, targets, k)
        vec = gen.normal(size=2**k)
        assert (run_passes(vec, [(mat, targets)], k).tobytes()
                == apply_steps(vec, [(mat, targets)], k).tobytes())

    def test_four_of_the_five_ising_n7_passes_split(self):
        # Each bond block whose first site carries no field conserves that
        # site's z-bit; the block on sites (0, 1) holds both of their fields.
        lowered = _transfer(trotter_circuit(ising_chain(7), 1.0, 1))
        split = [targets for mat, targets in lowered if _planned_split(mat, targets, 14)]
        assert len(lowered) == 5
        assert sorted(split) == [(2, 3, 4, 5), (4, 5, 6, 7), (6, 7, 8, 9), tuple(range(8, 14))]

    # (k, block side, targets) with B = h, which no doubled register has:
    # its blocks are 4^w wide on whole sites, so B is a power of 4. On
    # complex128 the split ran 1.1-1.8x slower than the transposed kernel.
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k, size, targets", [
        *((k, 16, tuple(range(k - 7, k - 3))) for k in (7, 10, 14, 17)),  # B = 8
        (10, 32, (1, 2, 3, 4, 5)),  # B = 16 with 32 rows
        (13, 64, tuple(range(2, 8))),  # B = 32 with 128 rows
    ])
    def test_a_half_trailing_block_stays_transposed(self, k, size, targets, dtype):
        gen = np.random.default_rng(k + size)
        mat = _block_diagonal(gen, size, dtype)
        vec = gen.normal(size=2**k).astype(dtype)
        if dtype is np.complex128:
            vec += 1j * gen.normal(size=2**k)
        assert _linalg._plan(mat, targets, k)(vec, vec.copy(), vec.copy()).func is _linalg._transposed
        steps = [(mat, targets)] * 2
        assert run_passes(vec, steps, k).tobytes() == apply_steps(vec, steps, k).tobytes()


def _right_operand(mat, targets, k):
    """(rows, right) of the product that :func:`_linalg._plan` binds with
    ``mat``, or its fold or stacked halves, as the right operand, or None
    when the pass holds no such product."""
    bufs = [np.zeros(2**k, mat.dtype) for _ in range(3)]
    call = _linalg._plan(mat, targets, k)(*bufs)
    own = [i for i, a in enumerate(call.args) if isinstance(a, np.ndarray)
           and not any(np.shares_memory(a, buf) for buf in bufs)]
    if call.func is _linalg._transposed:
        return call.args[2].shape[0], call.args[3]
    if call.func is np.matmul and own == [1]:
        return call.args[0].shape[-2], call.args[1]
    return None


class TestContiguousRight:
    """A float64 product's right-hand matrix is bound as a C-contiguous copy
    of mat^T from _NN_ROWS rows up, where OpenBLAS's non-transposed kernel
    is faster and rounds as the transposed one does; below that, and on
    complex128, the transposed view."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_layout_follows_the_row_count(self, dtype):
        gen = np.random.default_rng(2)
        seen = set()
        for k in range(4, 15):
            # B = 1 dense, small and narrow folds, the split tail, and the
            # transposed kernel, each dense and block-diagonal.
            for size, end in [(2, 0), (4, 0), (8, 0), (16, 0), (16, 1), (16, 2), (16, 3),
                              (32, 2), (64, 0)]:
                m = size.bit_length() - 1
                if k < m + end:
                    continue
                targets = tuple(range(k - end - m, k - end))
                for mat in (gen.normal(size=(size, size)), _block_diagonal(gen, size, np.float64)):
                    found = _right_operand(mat.astype(dtype), targets, k)
                    if found is None:
                        continue
                    rows, right = found
                    contiguous = dtype is np.float64 and rows >= _linalg._NN_ROWS
                    seen.add(contiguous)
                    if contiguous:
                        assert right.flags.c_contiguous and right.base is None
                    else:
                        assert right.base is not None
                        assert np.swapaxes(right, -1, -2).flags.c_contiguous
        assert seen == ({True, False} if dtype is np.float64 else {False})

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([2, 4, 8, 16, 32, 64]), st.integers(6, 14),
           st.sampled_from([np.float64, np.complex128]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_the_contiguous_product_keeps_the_view_bits(self, size, log_rows, dtype, stacked, seed):
        gen = np.random.default_rng(seed)
        batch = (2,) if stacked else ()
        left = gen.normal(size=batch + (2**log_rows, size)).astype(dtype)
        mat = gen.normal(size=batch + (size, size)).astype(dtype)
        if dtype is np.complex128:
            left += 1j * gen.normal(size=left.shape)
            mat += 1j * gen.normal(size=mat.shape)
        view = np.swapaxes(mat, -1, -2)
        assert (left @ np.ascontiguousarray(view)).tobytes() == (left @ view).tobytes()


class TestSingleRegisterLowering:
    def test_one_step_per_gate(self):
        circ = Circuit(4, [Gate("h", (q,)) for q in range(4)])
        assert [t for _, t in _lower(circ)] == [(0,), (1,), (2,), (3,)]

    def test_steps_follow_their_gates(self, gen):
        # Targets in either order, diagonal gates and a u gate on qubits
        # that are not neighbours: each gate is one step on its own targets.
        gates = [
            Gate("cx", (2, 1)),
            Gate("h", (0,)),
            Gate("rz", (3,), 0.4),
            Gate("rzz", (1, 2), 0.4),
            Gate("cx", (1, 0)),
            Gate("h", (2,)),
            Gate("u", (0, 2), matrix=_random_unitary(gen, 4)),
        ]
        circ = Circuit(4, gates)
        lowered = _lower(circ)
        assert [t for _, t in lowered] == [g.targets for g in gates]
        assert all(mat.shape == (2 ** len(t),) * 2 for mat, t in lowered)
        amps = ginibre(gen, 16)[0]
        state = QState(4, amps / np.linalg.norm(amps))
        assert _close(apply_circuit(state, circ).amplitudes, _ref_dense_unitary(circ) @ state.amplitudes)

    def test_a_long_trotter_circuit_holds_one_reference_per_gate(self):
        # 200,000 gates of one shared object: the list and one shared step.
        circ = trotter_circuit(PauliSum.from_text("1 0 ZZ"), 1.0, 200_000)
        assert circ.num_gates() == 200_000
        tracemalloc.start()
        try:
            lowered = _lower(circ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lowered) == 200_000
        assert peak <= _TROTTER_STEP_BYTES * circ.num_gates()


# ---------------------------------------------------------------------------
# Real Pauli-transfer evolution.

def _every_gate_kind(gen) -> list[Gate]:
    """One gate of each kind on 3 qubits: fixed gates, rotations, 1- and
    2-site pexp, 1- and 2-target u, and two-site gates on non-adjacent and
    descending targets."""
    gates = [Gate(name, (1,)) for name in ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg")]
    gates += [Gate(name, (0, 1)) for name in ("cx", "cz", "swap")]
    gates += [Gate("cx", (2, 0)), Gate("cz", (0, 2)), Gate("cx", (1, 0))]
    gates += [Gate(name, (2,), 0.37) for name in ("rx", "ry", "rz")]
    gates += [Gate(name, (2, 1), -1.1) for name in ("rxx", "ryy", "rzz")]
    gates += [Gate("pexp", (0,), -0.8, axis) for axis in "XYZ"]
    gates += [Gate("pexp", (2, 0), 1.3, "YX"), Gate("pexp", (1, 2), 0.2, "ZZ")]
    gates += [Gate("u", (1,), matrix=_random_unitary(gen, 2)),
              Gate("u", (2, 1), matrix=_random_unitary(gen, 4))]
    return gates


class TestTransferPath:
    def test_doubled_trotter_pairs_fuse(self):
        # In the Heisenberg order of trotter_circuit, each step's field on a
        # site joins the coupling block just before it on that site, and the
        # two blocks on the last three sites fuse: n-2 real blocks per step,
        # shared by all 64 steps.
        n = 7
        lowered = _transfer(trotter_circuit(ising_chain(n), 1.0, 64))
        assert len(lowered) == 64 * (n - 2)
        # XX with one field, XX with two, and the fused tail.
        assert len({id(mat) for mat, _ in lowered}) == 3
        for mat, targets in lowered:
            assert mat.shape == (2 ** len(targets),) * 2 and mat.dtype == np.float64
            assert not mat.flags.writeable
            assert targets == tuple(range(targets[0], targets[0] + len(targets)))

    def test_super_propagator_pairs_fuse(self):
        # Terms in the order listed: each step's fields join the block after
        # them in that step.
        lowered = _transfer(super_propagator_circuit(ising_chain(7), 1.0, 64))
        assert len(lowered) == 64 * 5
        assert all(mat.shape == (2 ** len(t),) * 2 and mat.dtype == np.float64 for mat, t in lowered)

    def test_every_gate_kind_has_a_real_orthogonal_transfer_matrix(self, gen):
        op = random_hermitian_sum(gen, 3, 8)
        for g in _every_gate_kind(gen):
            circ = Circuit(3, [g])
            [(mat, targets)] = _transfer(circ)
            assert mat.dtype == np.float64, g
            assert np.max(np.abs(mat @ mat.T - np.eye(len(mat)))) < 1e-12, g
            assert targets == tuple(q for s in sorted(g.targets) for q in (2 * s, 2 * s + 1))
            u = dense_unitary(circ)
            got = heisenberg_doubled(vectorize(op, PAULI), circ).amplitudes
            assert _close(got, vectorize(u.conj().T @ op.to_dense() @ u, PAULI).amplitudes), g

    @pytest.mark.parametrize("n", [3, 4])
    def test_heisenberg_doubled_matches_dense(self, n):
        # Clifford layers around rotations and a pexp on three sites out of
        # order (a CX ladder), against vectorize(U^dag O U) for a Hermitian
        # sum, a sum with complex coefficients and a dense matrix, in both
        # bases.
        gen = np.random.default_rng(600 + n)
        gates = list(random_clifford_circuit(n, 4, RngStream(n)).gates)
        gates += [Gate("rx", (0,), 0.4), Gate("rzz", (n - 1, 1), -0.9),
                  Gate("pexp", (n - 1, 0, 1), 0.7, "XYZ")]
        gates += list(random_clifford_circuit(n, 3, RngStream(n + 10)).gates)
        circ = Circuit(n, gates)
        u = dense_unitary(circ)
        hermitian = random_hermitian_sum(gen, n, 6)
        skewed = PauliSum.from_terms(
            [(complex(gen.normal(), gen.normal()), p) for _, p in hermitian.items()]
        )
        for op in (hermitian, skewed, ginibre(gen, 2**n)):
            dense = op.to_dense() if isinstance(op, PauliSum) else op
            for basis in (PAULI, COMPUTATIONAL):
                got = heisenberg_doubled(vectorize(op, basis), circ)
                want = vectorize(u.conj().T @ dense @ u, basis)
                assert got.basis == basis
                assert _close(got.amplitudes, want.amplitudes)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), count=st.integers(1, 30),
           basis=st.sampled_from([PAULI, COMPUTATIONAL]), tapered=st.booleans())
    def test_complex_coefficients_evolve_as_their_real_and_imaginary_parts(
            self, seed, n, count, basis, tapered):
        # O = A + iB with A and B Hermitian: U^dag O U is U^dag A U + i U^dag B U,
        # each evolved on its own, and agrees with the dense U^dag O U; on
        # the full register of a mixed circuit, and on the tapered register
        # of a circuit of rotations with a Z-type symmetry, where A and B run
        # as two stacked registers in each half.
        gen = np.random.default_rng(seed)
        circ = _symmetric_circuit(gen, n, count, 1) if tapered else _mixed_circuit(gen, n, count)
        o = ginibre(gen, 2**n)
        parts = [(o + o.conj().T) / 2, (o - o.conj().T) / 2j]
        got = heisenberg_doubled(vectorize(o, basis), circ).amplitudes
        a, b = (np.linalg.norm(p) * heisenberg_doubled(vectorize(p, basis), circ).amplitudes
                for p in parts)
        assert np.max(np.abs(got - (a + 1j * b) / np.linalg.norm(o))) <= 1e-13
        u = dense_unitary(circ)
        assert np.max(np.abs(got - vectorize(u.conj().T @ o @ u, basis).amplitudes)) <= 1e-12

    # Hermitian: one float64 vector, whose two blocks per step end the
    # register and fuse into one. Complex: the real then the imaginary parts,
    # back to back through the same fused steps.
    _FLOAT64_CASES = [("0.6 0 XZI\n-0.8 0 IYY", 4**3, 1), ("0.5 0.5 XZI", 2 * 4**3, 1)]

    @pytest.mark.parametrize("text, size, per_step", _FLOAT64_CASES)
    def test_coefficients_run_as_float64(self, monkeypatch, text, size, per_step):
        # On the chain's tapered register each sector that holds a
        # coefficient runs its half, size / 2, through its own fused steps:
        # XZI lies in sector 1 and IYY in sector 0.
        op = PauliSum.from_text(text)
        state = vectorize(op, PAULI)
        circ = trotter_circuit(ising_chain(3), 0.6, 4)
        calls = _count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))
        assert len(calls) == 4 * per_step * len(_chain_sectors(op))
        assert all(length == size // 2 for _, _, length in calls)

    @pytest.mark.parametrize("text, size, per_step", _FLOAT64_CASES)
    def test_coefficients_run_as_float64_on_the_full_register(self, monkeypatch, text, size, per_step):
        state = vectorize(PauliSum.from_text(text), PAULI)
        circ = trotter_circuit(fielded_chain(3), 0.6, 4)
        calls = _count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))
        assert len(calls) == 4 * per_step
        assert all(length == size for _, _, length in calls)

    @pytest.mark.parametrize("build", [trotter_circuit, super_propagator_circuit])
    def test_an_ising_step_is_n_minus_2_passes(self, build):
        lowered = _transfer(build(ising_chain(7), 1 / 64, 1))
        want = [tuple(range(2 * i, 2 * i + 4)) for i in range(4)] + [tuple(range(8, 14))]
        assert sorted(t for _, t in lowered) == want

    def test_single_site_steps_join_the_nearest_block_on_their_site(self, gen):
        def orthogonal(sites):
            return np.linalg.qr(gen.normal(size=(4**sites, 4**sites)))[0]

        steps = [(orthogonal(1), (2, 3)), (orthogonal(1), (6, 7)), (orthogonal(2), (0, 1, 2, 3)),
                 (orthogonal(1), (0, 1)), (orthogonal(2), (2, 3, 4, 5)), (orthogonal(1), (2, 3))]
        out = _absorb(steps)
        # The first step joins the block after it; the fourth and the sixth
        # join the nearest block before them on their site; no block holds
        # the second's site.
        assert [t for _, t in out] == [(6, 7), (0, 1, 2, 3), (2, 3, 4, 5)]
        vec = gen.normal(size=4**4)
        assert _close(apply_steps(vec, out, 8), apply_steps(vec, steps, 8))

    _STATED_CASES = [("1 0 ZXIII", 8, 3), ("0.6 0.8 ZXIII", 16, 3)]

    @pytest.mark.parametrize("text, itemsize, per_step", _STATED_CASES)
    def test_register_is_stated_before_the_first_pass(self, monkeypatch, text, itemsize, per_step):
        # On the chain's tapered register: the running registers and one
        # pass output of ZXIII's sector, half the register, 8 bytes per
        # coefficient for real coefficients and 16 for complex ones. The
        # preparation states the two int32 index maps first, 8 * 4^n bytes;
        # refused, it keeps nothing.
        n = 5
        state = vectorize(PauliSum.from_text(text), PAULI)
        circ = trotter_circuit(ising_chain(n), 1.0, 2)
        maps = 8 * 4**n
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", maps - 1)
        with pytest.raises(CapExceededError, match=f"^the tapering index maps of {n} sites needs {maps} bytes"):
            heisenberg_doubled(state, circ)
        assert simulator._KEPT is None
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", maps)
        assert _prepared(circ)[2] is not None
        want = 2 * itemsize * 4**n // 2
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", want - 1)
        assert _count_passes(monkeypatch, lambda: refusal_peak(
            lambda: heisenberg_doubled(state, circ), want)) == []
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", want)
        assert len(_count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))) == 2 * per_step

    @pytest.mark.parametrize("text, itemsize, per_step", _STATED_CASES)
    def test_register_is_stated_before_the_first_pass_on_the_full_register(
            self, monkeypatch, text, itemsize, per_step):
        # The running registers and one pass output: 8 bytes per coefficient
        # for real coefficients, 16 for complex ones, whose real and
        # imaginary parts run as two registers. Both fuse the blocks on the
        # last three sites.
        n = 5
        state = vectorize(PauliSum.from_text(text), PAULI)
        circ = trotter_circuit(fielded_chain(n), 1.0, 2)
        want = 2 * itemsize * 4**n
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", want - 1)
        assert _count_passes(monkeypatch, lambda: refusal_peak(
            lambda: heisenberg_doubled(state, circ), want)) == []
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", want)
        assert len(_count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))) == 2 * per_step


class TestTailFusion:
    """On the doubled register, full or tapered, of real or complex
    coefficients alike, adjacent blocks on the last three sites run as one
    64x64 block."""

    @pytest.mark.parametrize("build", [trotter_circuit, super_propagator_circuit])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_fused_matches_unfused(self, monkeypatch, n, build):
        # On the chain's tapered register each sector that holds a word runs
        # its own steps: ZX... lies in sector 1 and Y^n in sector n mod 2. At
        # n = 3 the fused block spans the register and keeps its sector's
        # 32x32 half.
        op = PauliSum.from_text("0.6 0 " + "ZX".ljust(n, "I") + "\n0.8 0 " + "Y" * n)
        state = vectorize(op, PAULI)
        circ = build(ising_chain(n), 1.0, 64)
        fused = heisenberg_doubled(state, circ).amplitudes
        calls = _count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))
        tail = (32, 32) if n == 3 else (64, 64)
        halves = len(_chain_sectors(op))
        assert [shape for shape, _, _ in calls].count(tail) == 64 * halves
        assert len(calls) == 64 * (n - 2) * halves
        assert all(size == 4**n // 2 for _, _, size in calls)
        monkeypatch.setattr(simulator, "_fuse_tail", lambda steps, k: steps)
        monkeypatch.setattr(simulator, "_KEPT", None)  # else the fused lowering is reused
        assert _close(fused, heisenberg_doubled(state, circ).amplitudes)

    @pytest.mark.parametrize("build", [trotter_circuit, super_propagator_circuit])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_fused_matches_unfused_on_the_full_register(self, monkeypatch, n, build):
        state = vectorize(PauliSum.from_text("0.6 0 " + "ZX".ljust(n, "I") + "\n0.8 0 " + "Y" * n), PAULI)
        circ = build(fielded_chain(n), 1.0, 64)
        fused = heisenberg_doubled(state, circ).amplitudes
        calls = _count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))
        assert [shape for shape, _, _ in calls].count((64, 64)) == 64
        assert len(calls) == 64 * (n - 2)
        monkeypatch.setattr(simulator, "_fuse_tail", lambda steps, k: steps)
        monkeypatch.setattr(simulator, "_KEPT", None)  # else the fused lowering is reused
        assert _close(fused, heisenberg_doubled(state, circ).amplitudes)

    def test_complex_coefficients_fuse_and_separated_tail_blocks_stay_unfused(self, monkeypatch):
        n = 4
        # Complex coefficients run the Hermitian path's fused steps, on the
        # chain's tapered register: the block on sites (0, 1) keeps its
        # sector's 8x8 half, and the others move down one qubit. The
        # conjugated step's bonds run in ascending order (see
        # simulator._conjugated).
        state = vectorize(PauliSum.from_text("0.6 0.8 ZXII"), PAULI)
        circ = trotter_circuit(ising_chain(n), 1.0, 4)
        calls = _count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))
        assert len(calls) == 4 * (n - 2)
        assert [shape for shape, _, _ in calls] == [(8, 8), (64, 64)] * 4
        assert all(size == 2 * 4**n // 2 for _, _, size in calls)
        # A block on sites (0, 1) between the blocks on (1, 2) and (2, 3) of
        # a circuit that tapers: C, h on every site, makes the generators
        # ZZ, XZ, ZZ, which commute, so their run is reversed and the
        # Heisenberg order is the order listed.
        state = vectorize(PauliSum.from_text("1 0 ZXII"), PAULI)
        circ = Circuit(n, [Gate("rxx", (1, 2), 0.3), Gate("pexp", (0, 1), 0.5, "ZX"),
                           Gate("rxx", (2, 3), 0.7)])
        calls = _count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))
        assert [targets for _, targets, _ in calls] == [(1, 2, 3, 4), (0, 1, 2), (3, 4, 5, 6)]

    def test_complex_coefficients_fuse_and_separated_tail_blocks_stay_unfused_on_the_full_register(
            self, monkeypatch):
        n = 4
        state = vectorize(PauliSum.from_text("0.6 0.8 ZXII"), PAULI)
        circ = trotter_circuit(fielded_chain(n), 1.0, 4)
        calls = _count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))
        assert len(calls) == 4 * (n - 2)
        assert [shape for shape, _, _ in calls] == [(64, 64), (16, 16)] * 4
        assert all(size == 2 * 4**n for _, _, size in calls)
        # The same blocks with an X field on site 0, which joins the block on
        # sites (0, 1).
        state = vectorize(PauliSum.from_text("1 0 ZXII"), PAULI)
        circ = Circuit(n, [Gate("rzz", (2, 3), 0.3), Gate("rzz", (0, 1), 0.5), Gate("rx", (0,), 0.2),
                           Gate("rxx", (1, 2), 0.7)])
        calls = _count_passes(monkeypatch, lambda: heisenberg_doubled(state, circ))
        assert [targets for _, targets, _ in calls] == [(2, 3, 4, 5), (0, 1, 2, 3), (4, 5, 6, 7)]

    @pytest.mark.parametrize("build, distinct", [(trotter_circuit, 1), (super_propagator_circuit, 1)])
    def test_one_read_only_block_per_distinct_pair(self, monkeypatch, build, distinct):
        # Both circuits repeat one step's blocks: each step's fields are
        # absorbed inside that step.
        circ = build(ising_chain(7), 1.0, 64)
        with monkeypatch.context() as m:
            m.setattr(simulator, "_fuse_tail", lambda steps, k: steps)
            lowered = _transfer(circ)
        ends = {tuple(range(8, 12)), tuple(range(10, 14))}
        pairs = {(id(a), id(b)) for (a, ta), (b, tb) in zip(lowered, lowered[1:]) if {ta, tb} == ends}
        blocks = [mat for mat, targets in _transfer(circ) if len(targets) == 6]
        assert len(blocks) == 64 and len(pairs) == distinct
        assert len({id(m) for m in blocks}) == distinct
        assert not any(m.flags.writeable for m in blocks)


class TestCircuitChecks:
    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match=r"^gate cx targets outside 0\.\.2$"):
            Circuit(3, (Gate("h", (0,)), Gate("cx", (1, 3))))

    def test_first_fault_in_gate_order_is_reported(self):
        h, far, wide = Gate("h", (1,)), Gate("x", (5,)), Gate("cx", (0, 4))
        with pytest.raises(ValueError, match="^gate x "):
            Circuit(3, (h, far, wide))
        with pytest.raises(ValueError, match="^gate cx "):
            Circuit(3, (wide, h, far))

    def test_a_shared_gate_is_checked_in_every_circuit(self):
        g = Gate("cx", (2, 3))
        assert Circuit(4, (g, g)).num_gates() == 2
        with pytest.raises(ValueError, match="outside 0..2"):
            Circuit(3, (Gate("h", (0,)), g))


class TestLoweringPerDistinctGate:
    """The lowerings place each gate object once, so their work follows the
    distinct gates of a circuit, not its length."""

    N = 7

    def _lowerings(self, steps):
        # dt = 1/64 in every circuit, whatever its step count. Every config
        # runs heisenberg_doubled on trotter_circuit; super_propagator_circuit,
        # each step's terms reversed, is compile2d's oracle reference.
        # apply_circuit lowers trotter_circuit onto its own register.
        h, t = ising_chain(self.N), steps / 64
        return {
            "heisenberg_doubled": lambda: _transfer(trotter_circuit(h, t, steps)),
            "super_propagator_circuit": lambda: _transfer(super_propagator_circuit(h, t, steps)),
            "apply_circuit": lambda: _lower(trotter_circuit(h, t, steps)),
        }

    # Counted at 4 and 64 steps: one step is placed and absorbed, and its
    # steps repeated, so in the listed order too each step's fields join
    # blocks of that step. Only _transfer absorbs.
    @pytest.mark.parametrize("seam, counts", [
        ("_place", {"heisenberg_doubled": 13, "super_propagator_circuit": 13, "apply_circuit": 13}),
        ("_site_product", {"heisenberg_doubled": 2, "super_propagator_circuit": 6, "apply_circuit": 0}),
    ])
    def test_work_does_not_grow_with_steps(self, monkeypatch, seam, counts):
        real = getattr(simulator, seam)
        calls = []

        def counting(*args):
            calls.append(seam)
            return real(*args)

        monkeypatch.setattr(simulator, seam, counting)
        for path, want in counts.items():
            made = []
            for steps in (1, 4, 64):
                calls.clear()
                self._lowerings(steps)[path]()
                made.append(len(calls))
            assert made[0] <= want and made[1:] == [want, want], path

    @pytest.mark.parametrize("path", ["heisenberg_doubled", "super_propagator_circuit"])
    def test_many_steps_repeat_the_one_step_lowering(self, path):
        one, many = self._lowerings(1)[path](), self._lowerings(64)[path]()
        period = len(one)
        assert len(many) == 64 * period
        assert [t for _, t in many] == [t for _, t in one] * 64
        # Each step's fields stay inside it: all 64 are the one step.
        assert all(step is many[i % period] for i, step in enumerate(many))
        assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(many, one))

    def test_equal_gate_objects_keep_their_own_matrices(self, gen):
        # Distinct objects of equal u gates, and rz at 0.0 and -0.0: the u
        # gates never share a matrix, the signed zeros stay apart, and a
        # repeated object shares its steps.
        m = _random_unitary(gen, 2)
        u1, u2 = Gate("u", (0,), matrix=m), Gate("u", (0,), matrix=m.copy())
        pos, neg = Gate("rz", (3,), 0.0), Gate("rz", (3,), -0.0)
        lowered = _lower(Circuit(4, [u1, u2, pos, neg, u1, pos]))
        mats = [mat for mat, _ in lowered]
        assert [t for _, t in lowered] == [(0,), (0,), (3,), (3,), (0,), (3,)]
        assert mats[0] is mats[4] and mats[0] is not mats[1]
        assert mats[2] is mats[5] and mats[2] is not mats[3]


def _untiled(m):
    """Patch ``m`` so that every sequence is lowered whole, as if nothing
    repeated a period, with the kept lowering emptied."""
    m.setattr(simulator, "_period", lambda seq: max(len(seq), 1))
    m.setattr(simulator, "_KEPT", None)


def _and_passes(call):
    """``call()`` and the passes it makes, as :func:`_count_passes` lists
    them."""
    with pytest.MonkeyPatch.context() as m:
        return call(), _count_passes(m, call)


class TestPeriodicLowering:
    """A circuit that repeats one period is lowered one period at a time,
    and the period's steps repeated."""

    def test_period_is_the_shortest_repeat_by_identity(self):
        a, b, c = object(), object(), object()
        assert _period([a, b] * 3) == 2
        assert _period([a] * 5) == 1
        assert _period([a, b, a]) == 3  # 2 does not divide 3
        assert _period([a, b, a, c]) == 4
        assert _period([a, b, a, b, a, c] * 2) == 6
        assert _period((a, b) * 4) == 2
        assert _period([]) == 1
        # Equal but distinct arrays are different items.
        assert _period([np.zeros(2), np.zeros(2)]) == 2

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6),
           st.sampled_from([1, 2, 3, 7]))
    @example(1, 3, 1, 7)  # one gate: a single-site one stays apart in its period
    # Rotations that taper, whose last conjugated gate commutes with the
    # next period's first: a run of commuting gates crosses the seam.
    @example(449980386, 4, 3, 2)
    def test_a_repeated_circuit_lowers_as_the_untiled_one(self, seed, k, count, reps):
        # Against the whole circuit lowered at once: the evolution of a
        # Hermitian sum (the float64 vector, whose tail blocks fuse) and of
        # a complex one (the float64 view) within 1e-12, with the same
        # passes on the same targets.
        gen = np.random.default_rng(seed)
        circ = Circuit(k, _mixed_circuit(gen, k, count).gates * reps)
        hermitian = random_hermitian_sum(gen, k, 4)
        skewed = PauliSum.from_terms(
            [(complex(gen.normal(), gen.normal()), p) for _, p in hermitian.items()]
        )
        calls = [lambda op=op: heisenberg_doubled(vectorize(op, PAULI), circ).amplitudes
                 for op in (hermitian, skewed)]
        got = [_and_passes(call) for call in calls]
        with pytest.MonkeyPatch.context() as m:
            _untiled(m)
            want = [_and_passes(call) for call in calls]
        for (a, a_passes), (b, b_passes) in zip(got, want):
            assert [(shape, t) for shape, t, _ in a_passes] == [(shape, t) for shape, t, _ in b_passes]
            assert _close(a, b)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_trotter_order_and_aperiodic_circuits_are_bitwise_the_untiled_lowering(self, n):
        # On the chain's tapered register the conjugated step opens its
        # Heisenberg order with single-site steps, the images of its bonds,
        # that one step's lowering joins to that step's blocks and the
        # untiled lowering, from the second step on, to the step before. So
        # for trotter_circuit, as the corr branch, an inline circuit and
        # nqubit run it, and for super_propagator_circuit, as compile2d's
        # oracle reference does, the passes are those of the untiled
        # lowering of the conjugated circuit and the values agree to
        # rounding; the full-register test below keeps the bitwise claim.
        h = ising_chain(n)
        hermitian = vectorize(PauliSum.from_text("0.6 0 " + "ZX".ljust(n, "I") + "\n0.8 0 " + "Y" * n), PAULI)
        skewed = vectorize(PauliSum.from_text("0.6 0.8 " + "XZ".ljust(n, "I")), PAULI)
        op, op2 = PauliSum.from_text("1 0 " + "ZX".ljust(n, "I")), PauliSum.from_text("1 0 " + "X" * n)
        calls = []
        for circ in (trotter_circuit(h, 1.0, 16), super_propagator_circuit(h, 1.0, 16)):
            calls += [
                lambda circ=circ: heisenberg_doubled(hermitian, circ).amplitudes,
                lambda circ=circ: heisenberg_doubled(skewed, circ).amplitudes,
                lambda circ=circ: interferometric_state(op, op2, circ, Circuit(n)).amplitudes,
            ]
        got = [_and_passes(call) for call in calls]
        # Half the register per sector; the complex coefficients as two.
        sizes = [{size for _, _, size in passes} for _, passes in got]
        assert sizes == [{4**n // 2}, {4**n}, {4**n // 2}] * 2
        with pytest.MonkeyPatch.context() as m:
            _untiled(m)
            want = [_and_passes(call) for call in calls]
        for (a, a_passes), (b, b_passes) in zip(got, want):
            assert a_passes == b_passes
            assert _close(a, b)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_trotter_order_and_aperiodic_circuits_are_bitwise_the_untiled_lowering_on_the_full_register(
            self, n):
        # trotter_circuit's Heisenberg order absorbs each step's fields in
        # that step, as the whole-circuit lowering does: the corr branch, an
        # inline circuit and nqubit run it. An aperiodic circuit is its own
        # period.
        h = fielded_chain(n)
        hermitian = vectorize(PauliSum.from_text("0.6 0 " + "ZX".ljust(n, "I") + "\n0.8 0 " + "Y" * n), PAULI)
        skewed = vectorize(PauliSum.from_text("0.6 0.8 " + "XZ".ljust(n, "I")), PAULI)
        circ = trotter_circuit(h, 1.0, 16)
        aperiodic = _mixed_circuit(np.random.default_rng(n), n, 12)
        op, op2 = PauliSum.from_text("1 0 " + "ZX".ljust(n, "I")), PauliSum.from_text("1 0 " + "X" * n)
        calls = [
            lambda: heisenberg_doubled(hermitian, circ).amplitudes,
            lambda: heisenberg_doubled(skewed, circ).amplitudes,
            lambda: interferometric_state(op, op2, circ, Circuit(n)).amplitudes,
            lambda: heisenberg_doubled(hermitian, aperiodic).amplitudes,
            lambda: heisenberg_doubled(skewed, aperiodic).amplitudes,
        ]
        got = [call() for call in calls]
        with pytest.MonkeyPatch.context() as m:
            _untiled(m)
            want = [call() for call in calls]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_super_propagator_order_stays_within_rounding(self, n):
        # Listed order: each step's fields join that step's next block on
        # their site, where the whole-circuit lowering joins them to the
        # previous step's last one. The values agree to rounding, the passes
        # exactly.
        state = vectorize(PauliSum.from_text("0.6 0 " + "ZX".ljust(n, "I") + "\n0.8 0 " + "Y" * n), PAULI)
        circ = super_propagator_circuit(ising_chain(n), 1.0, 64)
        got, got_passes = _and_passes(lambda: heisenberg_doubled(state, circ).amplitudes)
        with pytest.MonkeyPatch.context() as m:
            _untiled(m)
            want, want_passes = _and_passes(lambda: heisenberg_doubled(state, circ).amplitudes)
        assert _close(got, want)
        assert got_passes == want_passes

    @pytest.mark.parametrize("path", ["super_propagator_circuit", "heisenberg_doubled"])
    def test_a_64_step_evolution_lowers_one_step(self, monkeypatch, path):
        # _absorb gets one step's 13 placed steps, not 64 x 13 = 832;
        # _fuse_tail gets the step's 6 blocks, not 384, and then the fused
        # step's last block with the next step's first, which do not fuse.
        # Both hold for the circuit's own lowering and then for that of its
        # conjugate by the tapering Clifford.
        lengths = {"_absorb": [], "_fuse_tail": []}
        for name, seen in lengths.items():
            real = getattr(simulator, name)

            def counting(steps, *rest, real=real, seen=seen):
                seen.append(len(steps))
                return real(steps, *rest)

            monkeypatch.setattr(simulator, name, counting)
        _ising_doubled_n7()[path]()
        assert lengths == {"_absorb": [13, 13], "_fuse_tail": [6, 2, 6, 2]}

    def test_blocks_fusing_across_the_seam_fuse_the_whole_list(self, monkeypatch):
        # In Heisenberg order each period's blocks are on sites (1, 2),
        # (0, 2) and (0, 1), and the last fuses with the next period's first.
        state = vectorize(PauliSum.from_text("0.6 0 ZXI\n0.8 0 YYY"), PAULI)
        period = [Gate("rxx", (0, 1), 0.3), Gate("rzz", (0, 2), 0.5), Gate("ryy", (1, 2), 0.7)]
        circ = Circuit(3, period * 3)
        got, passes = _and_passes(lambda: heisenberg_doubled(state, circ).amplitudes)
        lower, apart, upper, fused = (2, 3, 4, 5), (0, 1, 4, 5), (0, 1, 2, 3), tuple(range(6))
        assert [t for _, t, _ in passes] == [lower, apart, fused, apart, fused, apart, upper]
        with monkeypatch.context() as m:
            _untiled(m)
            assert heisenberg_doubled(state, circ).amplitudes.tobytes() == got.tobytes()

    def test_a_lone_single_site_step_lowers_the_whole_circuit(self, monkeypatch):
        # Site 2 has only its field: over the whole circuit its 8 steps are
        # one single-site step, which one step's lowering would leave 8 times.
        circ = trotter_circuit(PauliSum.from_text("1 0 ZZI\n0.5 0 IIZ"), 0.8, 8)
        lowered = _transfer(circ)
        assert [t for _, t in lowered] == [(4, 5)] + [(0, 1, 2, 3)] * 8
        with monkeypatch.context() as m:
            _untiled(m)
            whole = _transfer(circ)
        assert [(mat.tobytes(), t) for mat, t in whole] == [(mat.tobytes(), t) for mat, t in lowered]


class TestGateValues:
    def test_float32_angle_evolves(self):
        circ = Circuit(2, [Gate("rx", (q % 2,), np.float32(0.3 + q)) for q in range(6)])
        state = vectorize(PauliSum.from_text("1 0 XZ"), COMPUTATIONAL)
        out = heisenberg_doubled(state, circ)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_u_gates_compare_by_matrix(self, gen):
        m = _random_unitary(gen, 2)
        a, b = Gate("u", (0,), matrix=m), Gate("u", (0,), matrix=m.copy())
        c = Gate("u", (0,), matrix=_random_unitary(gen, 2))
        assert a == b and hash(a) == hash(b)
        assert a != c and len({a, b, c}) == 2
        assert Circuit(1, [a]) != Circuit(1, [c])


# ---------------------------------------------------------------------------
# The simulator's passes against one reference apply_matrix pass per lowered
# step. Passes are counted at the simulator's one seam, run_passes, which
# gets every pass of a call in one list.

def _run_and_per_step(monkeypatch, call):
    """``call()`` as it runs, then with every lowered step its own
    reference pass."""
    got = call()
    with monkeypatch.context() as m:
        m.setattr(simulator, "run_passes", apply_steps)
        return got, call()


def _count_passes(monkeypatch, call):
    """(matrix shape, targets, vector length) of every register pass that
    ``call()`` makes through the simulator, in order."""
    shapes = []

    def counting(vec, steps, k, plans=None):
        shapes.extend((mat.shape, targets, len(vec)) for mat, targets in steps)
        return run_passes(vec, steps, k, plans)

    with monkeypatch.context() as m:
        m.setattr(simulator, "run_passes", counting)
        call()
    return shapes


def _chain_sectors(op: PauliSum) -> set[int]:
    """The sectors of the words of ``op`` under the chain's symmetry, Z on
    every site: each word's count of X and Y letters, mod 2."""
    return {bin(p.x).count("1") % 2 for _, p in op.items()}


def _ising_doubled_n7(chain=ising_chain):
    """The n=7 chain's 64-step Heisenberg evolution from the Pauli rep, as
    the CLI runs it, on both config kinds' circuits."""
    h = chain(7)
    state = vectorize(PauliSum.from_text("1 0 ZXIIIII"), PAULI)
    return {
        "super_propagator_circuit": lambda: heisenberg_doubled(
            state, super_propagator_circuit(h, 1.0, 64)
        ).amplitudes,
        "heisenberg_doubled": lambda: heisenberg_doubled(
            state, trotter_circuit(h, 1.0, 64)
        ).amplitudes,
    }


class TestPasses:
    @pytest.mark.parametrize("path", ["super_propagator_circuit", "heisenberg_doubled"])
    def test_ising_n7_matches_per_step(self, monkeypatch, path):
        got, plain = _run_and_per_step(monkeypatch, _ising_doubled_n7()[path])
        assert _close(got, plain)

    @pytest.mark.parametrize("path", ["super_propagator_circuit", "heisenberg_doubled"])
    def test_ising_n7_makes_320_passes(self, monkeypatch, path):
        # On the tapered register of ZXIIIII's sector, 4^7 / 2 coefficients on
        # 13 qubits. Per Trotter step of the conjugated chain: n-1 = 6 real
        # XX blocks, the Z fields absorbed into them, of which the two on the
        # last three sites fuse into one 64x64 block and the one on sites
        # (0, 1) keeps its sector's 8x8 half: 5 passes.
        calls = _count_passes(monkeypatch, _ising_doubled_n7()[path])
        assert len(calls) == 320
        assert all(size == 4**7 // 2 for _, _, size in calls)
        shapes = [shape for shape, _, _ in calls]
        assert shapes.count((64, 64)) == 64 and shapes.count((8, 8)) == 64
        assert all(targets == tuple(range(7, 13)) for shape, targets, _ in calls if shape == (64, 64))
        assert all(targets == (0, 1, 2) for shape, targets, _ in calls if shape == (8, 8))
        assert all(shape == (16, 16) for shape, targets, _ in calls if len(targets) == 4)

    @pytest.mark.parametrize("path", ["super_propagator_circuit", "heisenberg_doubled"])
    def test_ising_n7_makes_320_passes_on_the_full_register(self, monkeypatch, path):
        # Per Trotter step of the chain with an X field: n-1 = 6 real 16x16
        # blocks, the fields absorbed into them, of which the two on the last
        # three sites fuse into one 64x64 block: 5 passes on the float64
        # register of 4^7 coefficients.
        calls = _count_passes(monkeypatch, _ising_doubled_n7(fielded_chain)[path])
        assert len(calls) == 320
        assert all(size == 4**7 for _, _, size in calls)
        assert [shape for shape, _, _ in calls].count((64, 64)) == 64
        assert all(targets == tuple(range(8, 14)) for shape, targets, _ in calls if shape == (64, 64))
        assert all(shape == (16, 16) for shape, targets, _ in calls if targets != tuple(range(8, 14)))

    def test_interferometric_passes_act_on_the_doubled_register(self, monkeypatch):
        # On the chain's tapered register: the 5 qubits of ZXI's sector, and
        # the fused block's 32x32 half.
        self._interferometric_passes(monkeypatch, ising_chain, (32, 32), 2**5)

    def test_interferometric_passes_act_on_the_doubled_register_on_the_full_register(self, monkeypatch):
        self._interferometric_passes(monkeypatch, fielded_chain, (64, 64), 2**6)

    @staticmethod
    def _interferometric_passes(monkeypatch, chain, shape, size):
        # Only the ancilla-1 branch is evolved, on the 6 doubled qubits, as
        # one real vector: n-1 = 2 blocks per Trotter step of either circuit,
        # which span the register and fuse into one block.
        h = chain(3)
        op, op2 = PauliSum.from_text("1 0 ZXI"), PauliSum.from_text("1 0 XIZ")
        u, u2 = trotter_circuit(h, 0.7, 5), trotter_circuit(h, -0.4, 3)
        got, plain = _run_and_per_step(
            monkeypatch, lambda: interferometric_state(op, op2, u, u2).amplitudes
        )
        assert _close(got, plain)
        assert _close(got, _ref_interferometric_state(op, op2, u, u2))
        calls = _count_passes(monkeypatch, lambda: interferometric_state(op, op2, u, u2))
        assert len(calls) == 5 + 3
        assert all(pass_shape == shape and pass_size == size for pass_shape, _, pass_size in calls)

    def test_dense_unitary(self, monkeypatch):
        # One pass per gate over the identity's 4^4 amplitudes.
        circ = trotter_circuit(ising_chain(4), 0.9, 6)
        got, plain = _run_and_per_step(monkeypatch, lambda: dense_unitary(circ))
        assert _close(got, plain)
        calls = _count_passes(monkeypatch, lambda: dense_unitary(circ))
        assert [(shape, targets) for shape, targets, _ in calls] == [
            ((2 ** len(g.targets),) * 2, g.targets) for g in circ.gates
        ]
        assert all(size == 4**4 for _, _, size in calls)

    def test_channel_dual_postselect(self, monkeypatch, gen):
        state = vectorize(ginibre(gen, 8), COMPUTATIONAL)
        dilation = Circuit(3, [
            Gate("rz", (0,), 0.3), Gate("rzz", (1, 2), 0.8), Gate("ry", (2,), 1.1),
            Gate("cz", (0, 2)), Gate("t", (1,)), Gate("cx", (2, 0)),
        ] * 2)

        def call():
            return channel_dual_postselect(dilation, 1, state, sites=(0, 2))

        got, plain = _run_and_per_step(monkeypatch, call)
        assert _close(got[0].amplitudes, plain[0].amplitudes)
        assert got[1] == pytest.approx(plain[1], abs=1e-12)
        # Each single-site gate joins a two-site block: one pass per rzz,
        # cz and cx, on the real then the imaginary parts of the 4 sites'
        # complex coefficients, as two stacked float64 registers.
        calls = _count_passes(monkeypatch, call)
        assert len(calls) == 6
        assert all(shape == (16, 16) and size == 2 * 4**4 for shape, _, size in calls)

    @pytest.mark.parametrize("gates", [
        # cz then s on the shared qubit 2: overlapping targets.
        [Gate("h", (2,)), Gate("cz", (1, 2)), Gate("s", (2,)), Gate("h", (4,))],
        # (4, 1), (5,) and (3, 5): unsorted, non-contiguous targets.
        [Gate("h", (1,)), Gate("cz", (4, 1)), Gate("t", (5,)), Gate("rzz", (3, 5), 0.6),
         Gate("h", (5,))],
    ])
    def test_apply_circuit_is_one_pass_per_gate(self, monkeypatch, gen, gates):
        circ = Circuit(6, gates * 2)
        amps = ginibre(gen, 64)[0]
        state = QState(6, amps / np.linalg.norm(amps))
        got, plain = _run_and_per_step(monkeypatch, lambda: apply_circuit(state, circ).amplitudes)
        assert _close(got, plain)
        assert _close(got, dense_unitary(circ) @ state.amplitudes)
        calls = _count_passes(monkeypatch, lambda: apply_circuit(state, circ))
        passes = [(shape, targets) for shape, targets, size in calls if size == 2**6]
        assert passes == [((2 ** len(g.targets),) * 2, g.targets) for g in circ.gates]

    def test_reruns_are_bitwise_identical(self):
        for run in _ising_doubled_n7().values():
            assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# The kept preparation: heisenberg_doubled lowers and plans the last circuit
# once, keyed on its content.

def _kept_circuit(angle=0.0, u=None, steps=4):
    """A 3-site circuit of 4 steps that repeat one step of 4 gates, each
    call built from fresh Gate objects."""
    u = np.diag([1, np.exp(0.4j)]) if u is None else u
    step = [Gate("rzz", (0, 1), angle), Gate("rx", (2,), 0.5), Gate("rxx", (1, 2), 0.7),
            Gate("u", (0,), matrix=u)]
    return Circuit(3, step * steps)


_REAL3 = "0.6 0 ZXI\n0.8 0 YIZ"  # real Pauli coefficients: one float64 register
_COMPLEX3 = "0.6 0.8 ZXI"  # complex: two stacked float64 registers


class TestKeptPreparation:
    def test_a_content_equal_circuit_is_not_lowered_or_planned_again(self, monkeypatch):
        state = vectorize(PauliSum.from_text(_REAL3), PAULI)
        first = heisenberg_doubled(state, _kept_circuit()).amplitudes
        calls = []
        for mod, name in ((simulator, "_place"), (simulator, "_absorb"),
                          (simulator, "_fuse_tail"), (_linalg, "_plan")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        again = heisenberg_doubled(state, _kept_circuit()).amplitudes
        assert calls == [] and again.tobytes() == first.tobytes()
        simulator._KEPT = None
        assert heisenberg_doubled(state, _kept_circuit()).amplitudes.tobytes() == first.tobytes()
        assert set(calls) == {"_place", "_absorb", "_fuse_tail", "_plan"}

    @pytest.mark.parametrize("change", ["-0.0 angle", "u matrix", "gate count"])
    def test_the_key_misses_on_any_change_of_content(self, change):
        state = vectorize(PauliSum.from_text(_REAL3), PAULI)
        other = {
            "-0.0 angle": lambda: _kept_circuit(angle=-0.0),
            "u matrix": lambda: _kept_circuit(u=np.diag([1, np.exp(0.5j)])),
            "gate count": lambda: _kept_circuit(steps=5),
        }[change]()
        heisenberg_doubled(state, _kept_circuit())
        kept = simulator._KEPT
        got = heisenberg_doubled(state, other).amplitudes
        assert simulator._KEPT[0] != kept[0] and simulator._KEPT[1] is not kept[1]
        simulator._KEPT = None
        assert heisenberg_doubled(state, other).amplitudes.tobytes() == got.tobytes()

    @pytest.mark.parametrize("text", [_REAL3, _COMPLEX3])
    def test_the_computational_rep_is_phased_in_place_and_keeps_its_bits(self, text):
        # From the computational rep, the c_to_p output is the evolution's
        # own and is phased in place; the caller's state is left as it is, and
        # the bits are those of the Pauli-rep evolution between two changes.
        state = vectorize(PauliSum.from_text(text), COMPUTATIONAL)
        before = state.amplitudes.tobytes()
        got = heisenberg_doubled(state, _kept_circuit()).amplitudes
        via = heisenberg_doubled(bell_transform(state, "c_to_p"), _kept_circuit())
        assert state.amplitudes.tobytes() == before
        assert got.tobytes() == bell_transform(via, "p_to_c").amplitudes.tobytes()

    def test_a_hermitian_and_a_complex_operator_share_one_lowering(self, monkeypatch):
        # Both run the same 2n-qubit steps: the complex operator finds the
        # Hermitian one's preparation, and then writes the bytes of an
        # evolution from an empty slot.
        lowered, real = [], simulator._transfer
        monkeypatch.setattr(simulator, "_transfer", lambda c: lowered.append(c) or real(c))
        heisenberg_doubled(vectorize(PauliSum.from_text(_REAL3), PAULI), _kept_circuit())
        state = vectorize(PauliSum.from_text(_COMPLEX3), PAULI)
        got = heisenberg_doubled(state, _kept_circuit()).amplitudes
        assert len(lowered) == 1
        simulator._KEPT = None
        assert heisenberg_doubled(state, _kept_circuit()).amplitudes.tobytes() == got.tobytes()
        assert len(lowered) == 2

    def test_a_miss_empties_the_slot_before_it_lowers(self, monkeypatch):
        state = vectorize(PauliSum.from_text(_REAL3), PAULI)
        heisenberg_doubled(state, _kept_circuit())
        assert simulator._KEPT is not None
        seen, real = [], simulator._transfer
        monkeypatch.setattr(simulator, "_transfer", lambda c: seen.append(simulator._KEPT) or real(c))
        heisenberg_doubled(state, _kept_circuit(steps=5))
        assert seen == [None]

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), count=st.integers(1, 30),
           text=st.sampled_from(["1 0 ", "0.6 0.8 "]))
    def test_a_kept_preparation_keeps_the_bits(self, seed, n, count, text):
        # A circuit evolved from an empty slot, then rebuilt from fresh gates
        # after another circuit held the slot, then again as it is: each run
        # writes the same bytes, and only the content-equal twin hits.
        circ, twin = (_mixed_circuit(np.random.default_rng(seed), n, count) for _ in range(2))
        other = _mixed_circuit(np.random.default_rng(seed + 1), n, count)
        state = vectorize(PauliSum.from_text(text + "XZYX"[:n]), PAULI)
        simulator._KEPT = None
        want = heisenberg_doubled(state, circ).amplitudes.tobytes()
        heisenberg_doubled(state, other)
        assert heisenberg_doubled(state, twin).amplitudes.tobytes() == want
        kept = simulator._KEPT
        assert heisenberg_doubled(state, circ).amplitudes.tobytes() == want
        assert simulator._KEPT is kept


# ---------------------------------------------------------------------------
# The taper: a circuit of Pauli rotations with a Z-type symmetry through
# site 0 evolves each sector on its half of the register.

def _full_register(state: VectorizedState, u: Circuit) -> np.ndarray:
    """The amplitudes of U^dag O U in the state's basis from the full
    register: run_passes(_transfer(u)) on the Hermitian-Pauli coefficients,
    one float64 register or, for complex coefficients, two, as
    heisenberg_doubled runs a circuit that does not taper."""
    n = state.n
    amps = state.amplitudes if state.basis == PAULI else bell_transform(state, "c_to_p").amplitudes
    coeffs = _y_phase(amps.copy(), n, 1j)
    reg = np.concatenate((coeffs.real, coeffs.imag) if coeffs.imag.any() else (coeffs.real,))
    reg = run_passes(reg, _transfer(u), 2 * n)
    out = reg[: 4**n].astype(complex)
    if len(reg) > 4**n:
        out.imag = reg[4**n:]
    out = VectorizedState(n, PAULI, _y_phase(out, n, -1j))
    return (out if state.basis == PAULI else bell_transform(out, "p_to_c")).amplitudes


class TestTaper:
    def test_the_chain_maps_to_xx_bonds_and_z_fields(self):
        # C maps Z^n to X on site 0, each Z_i to X_i X_{i+1} (Z_{n-1} to
        # X_{n-1}) and each X_i X_{i+1} to Z_{i+1}.
        n = 7
        chain = ising_chain(n)
        s = _z_symmetry(p.x for _, p in chain.items())
        assert s == 2**n - 1
        clifford = _tapering_clifford(n, s)
        assert [(g.name, g.targets) for g in clifford.gates] == (
            [("cx", (i + 1, i)) for i in reversed(range(n - 1))] + [("h", (i,)) for i in range(n)])

        def image(label):
            sign, word = conjugate_through(clifford, 1, PauliString.from_label(label))
            return sign, "".join(word.site(i) for i in range(n))

        assert image("Z" * n) == (1, "X" + "I" * (n - 1))
        for i in range(n):
            want = "I" * i + ("XX" if i < n - 1 else "X")
            assert image("I" * i + "Z" + "I" * (n - i - 1)) == (1, want.ljust(n, "I"))
        for i in range(n - 1):
            assert image(("I" * i + "XX").ljust(n, "I")) == (1, ("I" * (i + 1) + "Z").ljust(n, "I"))

    @settings(deadline=None)
    @given(n=st.integers(1, 5), masks=st.lists(st.integers(0, 31), max_size=6))
    def test_the_symmetry_is_found_unless_x_on_site_0_is_in_the_span(self, n, masks):
        masks = [m % 2**n for m in masks]
        span = {0}
        for m in masks:
            span |= {v ^ m for v in span}
        s = _z_symmetry(masks)
        assert (s is None) == (1 in span)
        if s is not None:
            assert s & 1 and s < 2**n
            assert all(bin(s & m).count("1") % 2 == 0 for m in masks)

    @pytest.mark.parametrize("n, s", [(1, 0b1), (2, 0b11), (3, 0b101), (4, 0b1101), (4, 0b1)])
    def test_the_index_maps_are_the_clifford_on_words(self, n, s):
        # from the words of O to those of C O C^dag and back, up to signs.
        clifford = _tapering_clifford(n, s)
        back, forth = _index_map(n, clifford.gates[::-1]), _index_map(n, clifford.gates)
        assert back.dtype == forth.dtype == np.int32 and not forth.flags.writeable
        for j in range(4**n):
            _, word = conjugate_through(clifford, 1, index_pauli(j, n))
            assert forth[j] == pauli_index(word)
        assert np.array_equal(back[forth], np.arange(4**n))
        # S's own word lands on X on site 0, which commutes with sector 0,
        # the first half, and anticommutes with sector 1.
        assert forth[pauli_index(PauliString(n, s, 0))] == 4 ** (n - 1)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), count=st.integers(1, 12),
           symmetries=st.integers(1, 3), kind=st.sampled_from(["word", "sum", "complex"]),
           basis=st.sampled_from([PAULI, COMPUTATIONAL]))
    def test_tapered_evolution_matches_the_full_register(self, seed, n, count, symmetries, kind, basis):
        # Random rotations commuting with 1 to 3 Z-type words through site 0,
        # Y letters and wide pexps among them, on one word (one sector), a
        # Hermitian sum (mostly both sectors) or a complex matrix.
        gen = np.random.default_rng(seed)
        circ = _symmetric_circuit(gen, n, count, symmetries)
        op = {
            "word": lambda: PauliSum.from_terms([(1.0, random_word(gen, n, nontrivial=True))]),
            "sum": lambda: random_hermitian_sum(gen, n, 6),
            "complex": lambda: ginibre(gen, 2**n),
        }[kind]()
        state = vectorize(op, basis)
        got = heisenberg_doubled(state, circ).amplitudes
        assert np.max(np.abs(got - _full_register(state, circ))) <= 1e-13

    def test_random_symmetric_circuits_reach_both_registers(self):
        # The property above runs both paths: about half its circuits taper.
        # The others hold a conjugated wide pexp with X on site 0, whose
        # CX-ladder steps are not block-diagonal there, or lower to more
        # steps conjugated, and keep the full register.
        gen = np.random.default_rng(5)
        tapered = 0
        for _ in range(60):
            simulator._KEPT = None
            n = int(gen.integers(2, 7))
            _prepared(_symmetric_circuit(gen, n, int(gen.integers(1, 13)), int(gen.integers(1, 4))))
            tapered += simulator._KEPT[3] is not None
        assert 20 <= tapered <= 50

    @pytest.mark.parametrize("name", ["h", "cx", "u", "fielded", "dilation", "more steps", "empty"])
    def test_circuits_that_do_not_taper_keep_the_full_register_bit_for_bit(self, name):
        chain = trotter_circuit(ising_chain(4), 0.8, 8)
        circ = {
            "h": chain.concat(Circuit(4, [Gate("h", (2,))])),
            "cx": chain.concat(Circuit(4, [Gate("cx", (1, 3))])),
            "u": chain.concat(Circuit(4, [Gate("u", (0,), matrix=np.diag([1, 1j]))])),
            "fielded": trotter_circuit(fielded_chain(4), 0.8, 8),
            # choi2pc's dilation of site 1, its environment on site 4.
            "dilation": Circuit(5, [Gate("ry", (4,), 0.6), Gate("cx", (4, 1))]),
            # Z on site 0 and YX on (0, 1) commute with ZZ; C makes them XX
            # and XY, which do not join into one block.
            "more steps": Circuit(4, [Gate("rz", (0,), 0.3), Gate("pexp", (0, 1), 0.5, "YX")]),
            "empty": Circuit(4),
        }[name]
        n = circ.k
        gen = np.random.default_rng(n)
        for op in (random_hermitian_sum(gen, n, 6), ginibre(gen, 2**n)):
            for basis in (PAULI, COMPUTATIONAL):
                state = vectorize(op, basis)
                simulator._KEPT = None
                got = heisenberg_doubled(state, circ).amplitudes
                key, steps, _, maps = simulator._KEPT
                assert maps is None
                assert [(m.tobytes(), t) for m, t in steps] == [(m.tobytes(), t) for m, t in _transfer(circ)]
                assert got.tobytes() == _full_register(state, circ).tobytes()

    def test_dust_off_the_sector_is_dropped_and_more_is_refused(self, gen):
        # A block-diagonal 16x16 block on sites (0, 1) with dust of 1e-16
        # off its diagonal blocks keeps each sector's exact 8x8 block; at
        # 1e-14 the step does not restrict.
        mat = np.zeros((16, 16))
        mat[:8, :8], mat[8:, 8:] = gen.normal(size=(8, 8)), gen.normal(size=(8, 8))
        one = np.eye(4)
        steps = [(mat + 1e-16 * (1 - np.kron(np.eye(2), np.ones((8, 8)))), (0, 1, 2, 3)), (one, (4, 5))]
        for sector in (0, 1):
            [(block, targets), (same, moved)] = _restricted(steps, sector)
            half = slice(8 * sector, 8 * sector + 8)
            assert np.array_equal(block, mat[half, half]) and targets == (0, 1, 2)
            assert same is one and moved == (3, 4)
        steps[0] = (mat + 1e-14 * (1 - np.kron(np.eye(2), np.ones((8, 8)))), (0, 1, 2, 3))
        assert _restricted(steps, 0) is None


def _trotter_per_step(h, t, steps, reverse):
    """The Trotter circuits built gate by gate, one new Gate per term and
    step, each step's terms reversed for super_propagator_circuit."""
    dt = t / steps
    gates = []
    for _ in range(steps):
        step = [_term_gate(p, 2 * c.real * dt, lambda i: i) for c, p in h.ordered_items()]
        gates += step[::-1] if reverse else step
    return Circuit(h.n, gates)


@pytest.mark.parametrize("reverse", [False, True])
def test_trotter_circuits_repeat_one_step(reverse):
    h = random_hermitian_sum(np.random.default_rng(41), 4, 6)
    h.add(0.3, PauliString.from_label("XYZY"))
    build = super_propagator_circuit if reverse else trotter_circuit
    circ = build(h, 0.8, 9)
    assert circ == _trotter_per_step(h, 0.8, 9, reverse)
    terms = sum(1 for c, p in h.ordered_items() if p.weight)
    assert circ.num_gates() == 9 * terms
    assert len({id(g) for g in circ.gates}) == terms
