"""Superoperators, their transfer matrices, the commutation-sign transform,
and common-eigenbasis synthesis.

Everything sign-sensitive is pinned twice: once through the package's own
symbolic routes (lifted words, Clifford conjugation) and once through dense
conjugation of explicit 4x4/16x16 matrices.
"""

import numpy as np
import pytest

from opvec.errors import CapExceededError, NonCommutingSetError, ParseError
from opvec.pauli import PauliString
from opvec import superop
from opvec.simulator import Circuit, Gate, dense_unitary, gate_matrix
from opvec.superop import (
    ALL_SEPARABLE_COMMUTING,
    COMMUTING_ENTANGLED,
    NOT_COMMUTING,
    OperatorSumSuperop,
    builtin_diagonal,
    classify_commuting_set,
    common_eigenbasis_circuit,
    conjugate_pauli,
    conjugate_through,
    expectation,
    lifted_pauli,
    size_superop,
    walsh_hadamard,
)
from opvec.vectorize import COMPUTATIONAL, PAULI, bell_transform, index_pauli, pauli_index, vectorize
from helpers import ginibre, random_word, refusal_peak
from reference import (
    apply_dense,
    interleaved_kron,
    local_images,
    to_operator_sum,
    transfer_matrix,
    transform_matrix,
    walsh_matrix,
)

# Conjugation images of two-qubit Pauli words under the per-site-pair basis
# change from the computational to the Pauli rep (the CX then H pair layer):
# V (P (x) Q) V^dag = sign * (P' (x) Q').
BELL_TABLE = {
    "II": (1, "II"), "IX": (1, "IX"), "IZ": (1, "XZ"), "IY": (1, "XY"),
    "XI": (1, "ZX"), "XX": (1, "ZI"), "XZ": (1, "YY"), "XY": (-1, "YZ"),
    "ZI": (1, "XI"), "ZX": (1, "XX"), "ZZ": (1, "IZ"), "ZY": (1, "IY"),
    "YI": (-1, "YX"), "YX": (-1, "YI"), "YZ": (1, "ZY"), "YY": (-1, "ZZ"),
}

_PAIR_LAYER = Circuit(2, [Gate("cx", (0, 1)), Gate("h", (0,))])


@pytest.mark.parametrize("label", sorted(BELL_TABLE))
def test_bell_conjugation_table_dense(label):
    v = dense_unitary(_PAIR_LAYER)
    word = PauliString.from_label(label).to_dense()
    sign, out = BELL_TABLE[label]
    want = sign * PauliString.from_label(out).to_dense()
    assert np.allclose(v @ word @ v.conj().T, want, atol=1e-12)


@pytest.mark.parametrize("label", sorted(BELL_TABLE))
def test_bell_conjugation_table_symbolic(label):
    phase, word = conjugate_through(_PAIR_LAYER, 1.0, PauliString.from_label(label))
    sign, out = BELL_TABLE[label]
    assert (phase, word.label) == (sign, out)


class TestOperatorSum:
    def test_apply_dense_matches_vectorized(self, gen):
        a = OperatorSumSuperop(
            2,
            (
                (0.5, PauliString.from_label("XI"), PauliString.from_label("XI")),
                (-0.25, PauliString.from_label("ZY"), PauliString.from_label("IZ")),
            ),
        )
        mat = ginibre(gen, 4)
        state = vectorize(mat, PAULI)
        moved = a.apply_vectorized(state.amplitudes)
        dense = vectorize(apply_dense(a, mat / np.linalg.norm(mat)), COMPUTATIONAL)
        want = bell_transform(dense, "c_to_p")
        assert np.allclose(moved / np.linalg.norm(moved), want.amplitudes, atol=1e-12)

    def test_merged_sums_duplicates(self):
        p = PauliString.from_label("X")
        a = OperatorSumSuperop(1, ((1.0, p, p), (0.5, p, p)))
        assert a.merged() == {(0, 1, 0, 1): 1.5}

    def test_self_adjoint_iff_merged_real(self):
        p, q = PauliString.from_label("X"), PauliString.from_label("Z")
        assert OperatorSumSuperop(1, ((1.0, p, q),)).is_self_adjoint
        skew = OperatorSumSuperop(1, ((1j, p, q),))
        assert not skew.is_self_adjoint
        # cancellation across duplicate keys restores self-adjointness
        both = OperatorSumSuperop(1, ((1j, p, q), (1 - 1j, p, q)))
        assert both.is_self_adjoint

    def test_from_text(self):
        a = OperatorSumSuperop(
            2,
            (
                (0.75, PauliString.from_label("II"), PauliString.from_label("II")),
                (-0.25 + 0.5j, PauliString.from_label("XY"), PauliString.from_label("ZI")),
            ),
        )
        parsed = OperatorSumSuperop.from_text("0.75 0.0 II II\n# comment\n\n-0.25 0.5 XY ZI\n")
        assert parsed.merged() == a.merged()

    @pytest.mark.parametrize("text", ["", "1 0 XI", "1 0 XI Z", "q 0 XI XI"])
    def test_from_text_rejects(self, text):
        with pytest.raises(ParseError):
            OperatorSumSuperop.from_text(text)

    def test_identity(self, gen):
        mat = ginibre(gen, 4)
        eye = PauliString.identity(2)
        assert np.allclose(apply_dense(OperatorSumSuperop(2, ((1.0, eye, eye),)), mat), mat)


class TestDiagonal:
    def test_lam_vector_refused_before_allocating(self):
        assert refusal_peak(lambda: size_superop(20).lam_vector(), 8 * 4**20) < 1 << 20

    def test_size_eigenvalues_count_support(self):
        s = size_superop(3)
        labels = ("III", "XIZ", "YYY")
        got = s.lam(np.array([pauli_index(PauliString.from_label(a)) for a in labels]))
        assert got.tolist() == [0.0, 2.0, 3.0]

    def test_operator_sum_form_matches_transfer(self):
        s = size_superop(2)
        direct = transfer_matrix(s, PAULI).matrix
        from_sum = transfer_matrix(to_operator_sum(s), PAULI).matrix
        assert np.allclose(direct, from_sum, atol=1e-12)

    def test_lambda_only_diagonal_builds_operator_sum(self):
        d = builtin_diagonal("weight_indicator@1", 2)
        assert d.f_sparse is None
        got = transfer_matrix(to_operator_sum(d), PAULI).matrix
        assert np.allclose(got, np.diag(d.lam_vector()), atol=1e-12)

    @pytest.mark.parametrize(
        "spec,label,value",
        [
            ("size", "IXI", 1.0),
            ("weight_indicator@2", "XXI", 1.0),
            ("weight_indicator@2", "XXX", 0.0),
            ("rhs_boundary@3", "IXX", 1.0),
            ("rhs_boundary@3", "XXI", 0.0),
            ("diag_otoc@ZII", "XII", -1.0),
            ("diag_otoc@ZII", "ZXY", 1.0),
        ],
    )
    def test_builtin_diagonals(self, spec, label, value):
        d = builtin_diagonal(spec, 3)
        assert d.lam(np.array([pauli_index(PauliString.from_label(label))])).tolist() == [value]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_builtins_equal_the_per_string_closures(self, n):
        # The eigenvalue functions as they were written per Pauli string;
        # the index-array forms must give exactly the same tables.
        q = PauliString.from_label("ZXYI"[:n].ljust(n, "Y"))
        closures = {"size": lambda p: float(p.weight)}
        for k in range(n + 2):
            closures[f"weight_indicator@{k}"] = lambda p, k=k: 1.0 if p.weight == k else 0.0
            closures[f"rhs_boundary@{k}"] = lambda p, k=k: 1.0 if p.right_boundary == k else 0.0
        closures[f"diag_otoc@{q.label}"] = lambda p: 1.0 if p.commutes(q) else -1.0
        keys = np.random.default_rng(n).integers(4**n, size=50)
        for spec, closure in closures.items():
            d = builtin_diagonal(spec, n)
            want = np.array([closure(index_pauli(i, n)) for i in range(4**n)])
            assert np.array_equal(d.lam_vector(), want), spec
            assert np.array_equal(d.lam(keys), want[keys]), spec

    def test_builtin_rejects(self):
        with pytest.raises(ValueError):
            builtin_diagonal("frobnicator", 2)
        with pytest.raises(ValueError):
            builtin_diagonal("diag_otoc@ZZZ", 2)


class TestWalsh:
    def test_matrix_squares_to_dimension(self):
        for n in (1, 2):
            k = walsh_matrix(n)
            assert np.allclose(k @ k, 4**n * np.eye(4**n))
            assert np.allclose(k, k.T)

    def test_streaming_matches_matrix(self, gen):
        n = 2
        values = gen.standard_normal(4**n)
        k = walsh_matrix(n)
        assert np.allclose(walsh_hadamard(values, n, "f_to_lambda"), k @ values)
        assert np.allclose(walsh_hadamard(values, n, "lambda_to_f"), k @ values / 4**n)

    def test_round_trip(self, gen):
        n = 3
        lam = gen.standard_normal(4**n)
        f = walsh_hadamard(lam, n, "lambda_to_f")
        assert np.allclose(walsh_hadamard(f, n, "f_to_lambda"), lam, atol=1e-10)

    def test_size_weights_past_the_dense_cap(self):
        # Every sum here is of quarters, so the transform is exact.
        n = 8
        f = np.zeros(4**n)
        for (z, x), c in size_superop(n).f_sparse.items():
            f[pauli_index(PauliString(n, z, x))] = c
        idx = np.arange(4**n)
        weights = sum(((idx >> (2 * site)) & 3) != 0 for site in range(n))
        lam = walsh_hadamard(f, n, "f_to_lambda")
        assert np.array_equal(lam, weights)
        assert np.array_equal(walsh_hadamard(lam, n, "lambda_to_f"), f)

    def test_matrix_cap(self):
        with pytest.raises(CapExceededError):
            walsh_matrix(3)

    def test_direction_checked(self):
        with pytest.raises(ValueError):
            walsh_hadamard(np.zeros(4), 1, "sideways")


class TestTransfer:
    def test_single_term_is_interleaved_kron(self):
        left = PauliString.from_label("XZ")
        right = PauliString.from_label("YI")
        tm = transfer_matrix(OperatorSumSuperop(2, ((1.0, left, right),)), COMPUTATIONAL)
        want = interleaved_kron(left.to_dense(), right.to_dense().conj(), 2)
        assert np.allclose(tm.matrix, want, atol=1e-12)

    def test_hermitian_iff_self_adjoint(self):
        p, q = PauliString.from_label("X"), PauliString.from_label("Z")
        assert transfer_matrix(OperatorSumSuperop(1, ((0.5, p, q),)), COMPUTATIONAL).is_hermitian
        assert not transfer_matrix(OperatorSumSuperop(1, ((0.5j, p, q),)), COMPUTATIONAL).is_hermitian

    def test_rep_covariance(self):
        s = to_operator_sum(size_superop(2))
        mc = transfer_matrix(s, COMPUTATIONAL).matrix
        mp = transfer_matrix(s, PAULI).matrix
        r = transform_matrix(2, "c_to_p")
        assert np.allclose(mp, r @ mc @ r.conj().T, atol=1e-12)

    def test_action_matches_apply(self, gen):
        a = OperatorSumSuperop(
            2, ((0.3, PauliString.from_label("XY"), PauliString.from_label("ZI")),)
        )
        state = vectorize(ginibre(gen, 4), PAULI)
        tm = transfer_matrix(a, PAULI).matrix
        assert np.allclose(tm @ state.amplitudes, a.apply_vectorized(state.amplitudes), atol=1e-12)

    def test_diagonal_in_pauli_rep(self):
        d = size_superop(2)
        tm = transfer_matrix(d, PAULI)
        assert np.allclose(tm.matrix, np.diag(d.lam_vector()))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            transfer_matrix(size_superop(8), PAULI)


class TestExpectation:
    def test_moments_match_dense(self, gen):
        s = size_superop(2)
        a = to_operator_sum(s)
        state = vectorize(ginibre(gen, 4), PAULI)
        tm = transfer_matrix(a, PAULI).matrix
        v = state.amplitudes
        for k in (1, 2, 3):
            want = float((v.conj() @ np.linalg.matrix_power(tm, k) @ v).real)
            assert expectation(a, state, k) == pytest.approx(want, abs=1e-10)
            assert expectation(s, state, k) == pytest.approx(want, abs=1e-10)

    def test_pauli_word_size_is_weight(self):
        state = vectorize(PauliString.from_label("XIY"), PAULI)
        assert expectation(size_superop(3), state) == pytest.approx(2.0)

    def test_rejects_non_self_adjoint(self):
        a = OperatorSumSuperop(
            1, ((1j, PauliString.from_label("X"), PauliString.from_label("Z")),)
        )
        state = vectorize(PauliString.from_label("Z"), COMPUTATIONAL)
        with pytest.raises(ValueError):
            expectation(a, state)


class TestClassification:
    def test_not_commuting(self):
        pairs = [
            (PauliString.from_label("X"), PauliString.from_label("X")),
            (PauliString.from_label("Z"), PauliString.from_label("I")),
        ]
        verdict = classify_commuting_set(pairs)
        assert verdict.verdict == NOT_COMMUTING
        assert verdict.witness == (0, 1)

    def test_separable_commuting(self):
        pairs = [
            (PauliString.from_label("ZI"), PauliString.from_label("ZI")),
            (PauliString.from_label("IZ"), PauliString.from_label("IZ")),
        ]
        assert classify_commuting_set(pairs).verdict == ALL_SEPARABLE_COMMUTING

    def test_commuting_entangled(self):
        pairs = [
            (PauliString.from_label("X"), PauliString.from_label("X")),
            (PauliString.from_label("Z"), PauliString.from_label("Z")),
        ]
        verdict = classify_commuting_set(pairs)
        assert verdict.verdict == COMMUTING_ENTANGLED
        assert verdict.witness == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_commuting_set([])

    def test_lifted_word_matches_dense(self, gen):
        for _ in range(10):
            left, right = random_word(gen, 2), random_word(gen, 2)
            sign, word = lifted_pauli(left, right)
            want = interleaved_kron(left.to_dense(), right.to_dense().conj(), 2)
            assert np.allclose(sign * word.to_dense(), want, atol=1e-12)


def _gates_of_every_kind() -> list[Gate]:
    """Every named gate; each rotation and 1-, 2- and 3-site pexp at the
    Clifford angles 0, +-pi/2 and pi and at 0.3; and three u gates, two of
    them random and one a Hadamard."""
    gates = [Gate(name, (0, 1)[: 2 if name in ("cx", "cz", "swap") else 1])
             for name in ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx", "cz", "swap")]
    angles = (0.0, np.pi / 2, -np.pi / 2, np.pi, 0.3)
    for axes, name in (("X", "rx"), ("Y", "ry"), ("Z", "rz"), ("XX", "rxx"), ("YY", "ryy"), ("ZZ", "rzz")):
        targets = tuple(range(len(axes)))
        gates += [Gate(name, targets, a) for a in angles]
    for axes in ("X", "Y", "Z", "XZ", "YX", "ZZ", "XYZ"):
        gates += [Gate("pexp", tuple(range(len(axes))), a, axes) for a in angles]
    gen = np.random.default_rng(28)
    for width in (1, 2):
        q, r = np.linalg.qr(gen.normal(size=(2**width,) * 2) + 1j * gen.normal(size=(2**width,) * 2))
        gates.append(Gate("u", tuple(range(width)), matrix=q * (np.diag(r) / np.abs(np.diag(r)))))
    gates.append(Gate("u", (0,), matrix=gate_matrix(Gate("h", (0,)))))
    return gates


class TestCliffordConjugation:
    @pytest.mark.parametrize("name", ["h", "s", "sdg", "x", "y", "z"])
    def test_single_qubit_gates_match_dense(self, name, gen):
        g = Gate(name, (1,))
        for _ in range(5):
            p = random_word(gen, 2)
            phase, q = conjugate_pauli(g, 1.0, p)
            u = np.kron(np.eye(2), _gate_dense(name))
            assert np.allclose(u @ p.to_dense() @ u.conj().T, phase * q.to_dense(), atol=1e-12)

    @pytest.mark.parametrize("name", ["cx", "cz", "swap"])
    def test_two_qubit_gates_match_dense(self, name, gen):
        g = Gate(name, (0, 1))
        for _ in range(5):
            p = random_word(gen, 2)
            phase, q = conjugate_pauli(g, 1.0, p)
            u = _gate_dense(name)
            assert np.allclose(u @ p.to_dense() @ u.conj().T, phase * q.to_dense(), atol=1e-12)

    @pytest.mark.parametrize("gate", _gates_of_every_kind(), ids=lambda g: f"{g.name}-{g.axes}-{g.angle}")
    def test_images_are_the_dense_conjugation_images(self, gate):
        # Read from the transfer matrix of C^dag, as the dense search found
        # them: signs of +-1, and None wherever the image is not one word.
        got = superop._local_images(gate)
        assert got == local_images(gate)
        assert all(image is None or image[0] in (1, -1) for image in got)

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            conjugate_pauli(Gate("t", (0,)), 1.0, PauliString.from_label("X"))

    @pytest.mark.parametrize("name", ["id", "x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap"])
    def test_every_word_matches_dense_conjugation(self, name):
        # Every word on three qubits: every local word on the targets, two-
        # qubit targets out of order, under every background letter.
        targets = (2, 0) if name in ("cx", "cz", "swap") else (1,)
        g = Gate(name, targets)
        u = dense_unitary(Circuit(3, [g]))
        for idx in range(4**3):
            p = index_pauli(idx, 3)
            phase, q = conjugate_pauli(g, 1.0, p)
            assert np.allclose(u @ p.to_dense() @ u.conj().T, phase * q.to_dense(), atol=1e-12)
            assert conjugate_pauli(g, -1j, p) == (-1j * phase, q)

    @pytest.mark.parametrize(
        "gate", [Gate("t", (0,)), Gate("tdg", (0,)), Gate("rz", (0,), 0.3)], ids=str
    )
    def test_non_clifford_gates_raise(self, gate):
        with pytest.raises(ValueError, match=f"^gate {gate.name} is not Clifford on Pauli words$"):
            conjugate_pauli(gate, 1.0, PauliString.from_label("X"))

    def test_each_angle_has_its_own_images(self):
        x = PauliString.from_label("X")
        for angle, image in ((np.pi / 2, (1, "Y")), (np.pi, (-1, "X")), (-np.pi / 2, (-1, "Y"))):
            phase, q = conjugate_pauli(Gate("rz", (0,), angle), 1.0, x)
            assert (phase, q.label) == image
        with pytest.raises(ValueError, match="not Clifford"):
            conjugate_pauli(Gate("rz", (0,), 0.3), 1.0, x)

    def test_u_gates_are_conjugated_by_their_own_matrix(self):
        x = PauliString.from_label("X")
        for name, image in (("h", "Z"), ("s", "Y"), ("x", "X")):
            u = Gate("u", (0,), matrix=gate_matrix(Gate(name, (0,))))
            phase, q = conjugate_pauli(u, 1.0, x)
            assert (phase, q.label) == (1, image)

    def test_second_pass_builds_no_dense_matrix(self, monkeypatch):
        circ = Circuit(3, [
            Gate("h", (0,)), Gate("s", (1,)), Gate("cx", (0, 2)), Gate("cz", (1, 2)),
            Gate("rz", (2,), np.pi / 2), Gate("pexp", (0, 1), np.pi / 2, "XZ"),
        ])
        word = PauliString.from_label("XYZ")
        first = conjugate_through(circ, 1.0, word)
        calls = []
        monkeypatch.setattr(superop, "gate_matrix", lambda g: calls.append(g) or gate_matrix(g))
        assert conjugate_through(circ, 1.0, word) == first
        # New gate objects of the same kinds on other targets share the table.
        moved = Circuit(3, [Gate("h", (2,)), Gate("cx", (1, 0)), Gate("rz", (0,), np.pi / 2)])
        conjugate_through(moved, 1.0, word)
        assert calls == []
        # A u gate is derived on every call, so the hook does see calls.
        conjugate_pauli(Gate("u", (0,), matrix=gate_matrix(Gate("h", (0,)))), 1.0, word)
        assert len(calls) == 1


def _gate_dense(name: str) -> np.ndarray:
    arity = 2 if name in ("cx", "cz", "swap") else 1
    return gate_matrix(Gate(name, tuple(range(arity))))


class TestCommonEigenbasis:
    def _check(self, strings):
        circ = common_eigenbasis_circuit(strings)
        u = dense_unitary(circ)
        for s in strings:
            phase, word = conjugate_through(circ, 1.0, s)
            assert word.x == 0, f"{s.label} not diagonalized"
            assert np.allclose(
                u @ s.to_dense() @ u.conj().T, phase * word.to_dense(), atol=1e-11
            )

    def test_mirrored_family_gets_pair_layer(self):
        strings = [
            lifted_pauli(p, p)[1]
            for p in (PauliString.from_label("XI"), PauliString.from_label("ZZ"))
        ]
        circ = common_eigenbasis_circuit(strings)
        names = [g.name for g in circ.gates]
        assert names == ["cx", "h", "cx", "h"]
        self._check(strings)

    def test_separable_family(self):
        strings = [
            lifted_pauli(PauliString.from_label("XI"), PauliString.from_label("ZI"))[1],
            lifted_pauli(PauliString.from_label("IX"), PauliString.from_label("IZ"))[1],
        ]
        self._check(strings)

    def test_general_family_needs_entangling_elimination(self):
        strings = [
            lifted_pauli(PauliString.from_label("X"), PauliString.from_label("Y"))[1],
            lifted_pauli(PauliString.from_label("Z"), PauliString.from_label("Z"))[1],
        ]
        self._check(strings)

    def test_random_commuting_families(self, gen):
        for trial in range(10):
            seed = [random_word(gen, 4, nontrivial=True)]
            while len(seed) < 4:
                cand = random_word(gen, 4, nontrivial=True)
                if all(cand.commutes(s) for s in seed):
                    seed.append(cand)
            self._check(seed)

    def test_dependent_strings_allowed(self):
        a = PauliString.from_label("ZI")
        b = PauliString.from_label("IZ")
        c = PauliString.from_label("ZZ")  # product of the first two
        self._check([a, b, c])

    def test_non_commuting_rejected(self):
        with pytest.raises(NonCommutingSetError) as err:
            common_eigenbasis_circuit(
                [PauliString.from_label("XX"), PauliString.from_label("ZI")]
            )
        assert err.value.witness == (0, 1)
