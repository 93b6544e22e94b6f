"""Vectorization map, its index codec, basis changes, and serialization.

The single-site images in both representations are asserted against frozen
vectors; everything else is round-trip or isometry checks against dense
linear algebra.
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opvec import _linalg
from opvec.errors import ParseError
from opvec.pauli import SIGMA, PauliString, PauliSum
from opvec.superop import OperatorSumSuperop
from opvec.vectorize import (
    COMPUTATIONAL,
    PAULI,
    VectorizedState,
    _BELL,
    _SANDWICH,
    apply_pauli_terms,
    bell_transform,
    devectorize,
    index_pauli,
    load_state,
    pauli_index,
    save_state,
    vectorize,
)
from helpers import ginibre, random_word, refusal_peak
from reference import apply_steps, kron_sum, transfer_matrix, transform_matrix

SQ = 1 / np.sqrt(2)

# CNOT (H x I), the Pauli-to-computational matrix of one (L, R) pair, written
# out: every entry is 0 or +-1/sqrt(2).
PAIR = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]]) / np.sqrt(2)

# Single-site images. Pauli rep: basis index packs (z, x); the Y image
# carries the -i of Y = -i Z X. Computational rep: row-stacked matrix.
IMAGES = {
    "I": {"pauli": [1, 0, 0, 0], "computational": [SQ, 0, 0, SQ]},
    "X": {"pauli": [0, 1, 0, 0], "computational": [0, SQ, SQ, 0]},
    "Z": {"pauli": [0, 0, 1, 0], "computational": [SQ, 0, 0, -SQ]},
    "Y": {"pauli": [0, 0, 0, -1j], "computational": [0, -1j * SQ, 1j * SQ, 0]},
}


@pytest.mark.parametrize("letter", "IXZY")
@pytest.mark.parametrize("basis", [PAULI, COMPUTATIONAL])
def test_single_site_images(letter, basis):
    state = vectorize(PauliString.from_label(letter), basis)
    assert np.allclose(state.amplitudes, IMAGES[letter][basis.kind], atol=1e-15)


@pytest.mark.parametrize("basis", [PAULI, COMPUTATIONAL])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_random_operators(basis, n, gen):
    for _ in range(20):
        mat = ginibre(gen, 2**n)
        state = vectorize(mat, basis)
        back = devectorize(state)
        assert np.linalg.norm(back - mat / np.linalg.norm(mat)) <= 1e-12


def test_vectorize_pauli_sum_matches_dense_path(gen):
    from helpers import random_hermitian_sum

    s = random_hermitian_sum(gen, 3, 6)
    via_terms = vectorize(s, PAULI)
    via_dense = vectorize(s.to_dense(), PAULI)
    assert np.allclose(via_terms.amplitudes, via_dense.amplitudes, atol=1e-12)


@pytest.mark.parametrize("n, seed", [(1, 1), (2, 2), (4, 3), (7, 4)])
def test_pauli_sum_scatters_as_its_dense_matrix(n, seed):
    # The computational rep of a sum, filled from each word's nonzeros, is
    # byte-identical to vectorizing the kron-chain matrix of the sum.
    gen = np.random.default_rng(seed)
    s = PauliSum(n)
    for _ in range(10):
        s.add(complex(*gen.normal(size=2)), PauliString(n, int(gen.integers(2**n)), int(gen.integers(2**n))))
    s.add(0.25j, PauliString.from_label("Y" * n))
    got = vectorize(s, COMPUTATIONAL).amplitudes
    assert got.tobytes() == vectorize(kron_sum(s), COMPUTATIONAL).amplitudes.tobytes()


def test_zero_operator_rejected():
    with pytest.raises(ValueError):
        vectorize(np.zeros((4, 4)), COMPUTATIONAL)


def test_isometry(gen):
    a = ginibre(gen, 8)
    b = ginibre(gen, 8)
    sa, sb = vectorize(a, PAULI), vectorize(b, PAULI)
    want = np.trace(a.conj().T @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert np.vdot(sa.amplitudes, sb.amplitudes) == pytest.approx(want, abs=1e-12)


class TestIndexCodec:
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 4**n - 1))))
    def test_round_trip(self, args):
        n, idx = args
        assert pauli_index(index_pauli(idx, n)) == idx

    def test_site_zero_is_most_significant(self):
        n = 3
        assert index_pauli(0, n).label == "III"
        # site-0 letter changes in blocks of 4^(n-1)
        assert index_pauli(1 * 4**2, n).label == "XII"
        assert index_pauli(2 * 4**2, n).label == "ZII"
        assert index_pauli(3 * 4**2, n).label == "YII"
        assert index_pauli(3, n).label == "IIY"

    def test_codec_phase_counts_ys(self):
        p = PauliString.from_label("YIY")
        idx = pauli_index(p)
        assert index_pauli(idx, 3).label == "YIY"
        assert vectorize(p, PAULI).amplitudes[idx] == pytest.approx((-1j) ** 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_pauli(64, 2)

    def test_amplitude_lands_at_codec_index(self, gen):
        from helpers import random_word

        p = random_word(gen, 4)
        state = vectorize(p, PAULI)
        assert state.amplitudes[pauli_index(p)] == pytest.approx((-1j) ** p.y_count)


class TestBasisChange:
    def test_transform_is_unitary(self):
        for n in (1, 2, 3):
            m = transform_matrix(n, "p_to_c")
            assert np.allclose(m @ m.conj().T, np.eye(4**n), atol=1e-12)

    def test_directions_invert(self, gen):
        state = vectorize(ginibre(gen, 8), PAULI)
        back = bell_transform(bell_transform(state, "p_to_c"), "c_to_p")
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_matches_dense_transform(self, gen):
        state = vectorize(ginibre(gen, 4), PAULI)
        moved = bell_transform(state, "p_to_c")
        want = transform_matrix(2, "p_to_c") @ state.amplitudes
        assert np.allclose(moved.amplitudes, want, atol=1e-12)

    def test_pair_matrix_is_exact_and_read_only(self):
        # No imaginary part, and the -1 of H is exactly -1.
        assert _BELL.dtype == np.float64
        assert _BELL.tobytes() == PAIR.tobytes()
        assert not _BELL.flags.writeable

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from(["p_to_c", "c_to_p"]))
    def test_matches_the_dense_transform_and_a_per_site_loop(self, n, seed, direction):
        # The dense matrix of n sites is the kron of those of h and n - h
        # sites, so the n = 6 check applies two 64 x 64 matrices, not one
        # 4096 x 4096. The loop is one real 4x4 product per site on the
        # float64 view, whose last qubit is re/im.
        gen = np.random.default_rng(seed)
        amps = gen.standard_normal(4**n) + 1j * gen.standard_normal(4**n)
        amps /= np.linalg.norm(amps)
        start = VectorizedState(n, PAULI if direction == "p_to_c" else COMPUTATIONAL, amps)
        got = bell_transform(start, direction)
        assert got.basis == (COMPUTATIONAL if direction == "p_to_c" else PAULI)
        h = n // 2
        want = transform_matrix(h, direction) @ amps.reshape(4**h, -1) @ transform_matrix(n - h, direction).T
        assert np.max(np.abs(got.amplitudes - want.reshape(-1))) <= 1e-15
        pair = PAIR if direction == "p_to_c" else PAIR.T
        loop = apply_steps(amps.view(np.float64), [(pair, (2 * s, 2 * s + 1)) for s in range(n)], 2 * n + 1)
        assert got.amplitudes.view(np.float64).tobytes() == loop.tobytes()

    def test_rejects_wrong_rep(self):
        state = vectorize(PauliString.from_label("Z"), PAULI)
        with pytest.raises(ValueError):
            bell_transform(state, "c_to_p")
        with pytest.raises(ValueError):
            bell_transform(state, "sideways")


def _product_forms(n: int) -> np.ndarray:
    """The 4^n product forms Z^z X^x by Pauli index, each a kron of per-site
    matrix powers, site 0 first."""
    z, x = SIGMA["Z"], SIGMA["X"]
    forms = []
    for k in range(4**n):
        out = np.eye(1)
        for shift in range(2 * n - 2, -1, -2):
            d = (k >> shift) & 3
            out = np.kron(out, np.linalg.matrix_power(z, d >> 1) @ np.linalg.matrix_power(x, d & 1))
        forms.append(out)
    return np.stack(forms)


class TestPauliTerms:
    def test_sandwich_table_is_exact_and_read_only(self):
        assert _SANDWICH.shape == (4, 4, 4)
        assert set(_SANDWICH.ravel().tolist()) == {1, -1, 1j, -1j}
        assert not _SANDWICH.flags.writeable

    def test_every_word_pair_at_two_sites_is_the_dense_sandwich(self):
        # Column k of each pair's map is L Q_k R projected on the product
        # forms, tr(Q_j^dag L Q_k R) / 4: exact, as every entry is 0, +-1 or +-i.
        n = 2
        forms = _product_forms(n)
        words = [index_pauli(k, n) for k in range(4**n)]
        basis = np.eye(4**n, dtype=complex)
        for left in words:
            for right in words:
                sandwiched = left.to_dense() @ forms @ right.to_dense()
                want = np.einsum("jba,kba->jk", forms.conj(), sandwiched) / 2**n
                got = np.stack([apply_pauli_terms(e, n, [(1.0, left, right)]) for e in basis], 1)
                assert np.array_equal(got, want), (left, right)

    @settings(deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_random_sums_match_the_transfer_matrix(self, n, count, seed):
        gen = np.random.default_rng(seed)
        terms = tuple(
            (complex(*gen.standard_normal(2)), random_word(gen, n), random_word(gen, n))
            for _ in range(count)
        )
        amps = gen.standard_normal(4**n) + 1j * gen.standard_normal(4**n)
        amps /= np.linalg.norm(amps)
        want = transfer_matrix(OperatorSumSuperop(n, terms), PAULI).matrix @ amps
        assert np.max(np.abs(apply_pauli_terms(amps, n, terms) - want)) <= 1e-13

    def test_refuses_past_the_byte_budget_before_it_builds(self, monkeypatch):
        n = 9
        want = 4 * 16 * 4**n
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", want - 1)
        amps = np.zeros(4**n, dtype=complex)
        x = PauliString.single(n, 0, "X")
        assert refusal_peak(lambda: apply_pauli_terms(amps, n, [(1.0, x, x)]), want) < 1 << 16


class TestSerialization:
    def test_round_trip(self, tmp_path, gen):
        state = vectorize(ginibre(gen, 8), PAULI)
        path = tmp_path / "state.bin"
        save_state(state, path)
        loaded = load_state(path)
        assert (loaded.n, loaded.basis) == (state.n, state.basis)
        # payload is complex64, so the round trip is float32-accurate
        assert np.allclose(loaded.amplitudes, state.amplitudes, atol=1e-6)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + bytes(9))
        with pytest.raises(ParseError):
            load_state(path)

    @pytest.mark.parametrize(
        "tag,n,d,payload",
        [
            (1, 1, 3, np.eye(9)[0]),  # 'pauli' is the qubit basis
            (2, 1, 4, np.eye(16)[0]),  # unknown tag
            (2, 1, 2, np.eye(4)[0]),  # unknown tag
            (0, 1, 1, np.eye(1)[0]),  # no local dimension below 2
            (0, 1, 3, np.eye(9)[0]),  # states are on qubits
            (0, 1, 2, np.zeros(4)),  # the zero vector has no direction
        ],
        ids=["pauli-d3", "qudit-d4", "qudit-d2", "d1", "computational-d3", "zero-payload"],
    )
    def test_rejects_bad_header_or_payload(self, tmp_path, tag, n, d, payload):
        path = tmp_path / "bad.bin"
        header = struct.pack("<4sBII", b"OPV1", tag, n, d)
        path.write_bytes(header + payload.astype("<c8").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError):
                load_state(path)

    def test_rejects_truncated_payload(self, tmp_path, gen):
        state = vectorize(ginibre(gen, 4), COMPUTATIONAL)
        path = tmp_path / "cut.bin"
        save_state(state, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            load_state(path)


def test_unit_norm_enforced():
    with pytest.raises(ValueError):
        VectorizedState(1, PAULI, np.array([1.0, 1.0, 0, 0]))
