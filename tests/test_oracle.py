"""Dense ground-truth routines.

These are the reference implementations the sampling stack is judged
against, so they get hand-computable frozen values wherever a closed form
exists and structural checks (unitarity, normalization, symmetry)
elsewhere.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opvec import oracle
from opvec.errors import CapExceededError
from opvec.oracle import (
    _HELD,
    _sectors,
    exact_channel_dual,
    exact_heisenberg,
    exact_loe,
    exact_ose,
    exact_otoc,
    exact_pauli_amplitudes,
    heisenberg,
    pauli_probabilities,
    propagator,
    reserve_working_set,
)
from opvec.pauli import SIGMA, PauliString, PauliSum
from opvec.vectorize import PAULI, pauli_index, vectorize
from helpers import ginibre, ising_chain, pauli_normalized, random_hermitian_sum, refusal_peak


@pytest.fixture
def cold(monkeypatch):
    """An empty eigensystem slot, so the next Pauli-sum Hamiltonian is
    diagonalized afresh whatever an earlier test left there."""
    monkeypatch.setattr(oracle, "_KEPT", None)


def counting_eigh(monkeypatch) -> list:
    """The dtype of every matrix np.linalg.eigh solves from here on."""
    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(m.dtype) or eigh(m))
    return solved


def test_propagator_is_unitary_and_generates_h(gen):
    h = random_hermitian_sum(gen, 2, 4).to_dense()
    t = 0.37
    u = propagator(h, t)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    # d/dt at t=0 is -iH
    eps = 1e-6
    deriv = (propagator(h, eps) - np.eye(4)) / eps
    assert np.allclose(deriv, -1j * h, atol=1e-5)


@pytest.mark.parametrize("extra, solved_as", [
    ("YYIII", np.float64),  # even Ys: a real symmetric matrix
    ("IYZII", np.complex128),  # one Y: imaginary entries
])
def test_propagator_solves_real_hamiltonians_in_real_arithmetic(monkeypatch, cold, extra, solved_as):
    h = ising_chain(5)
    h.add(0.3, PauliString.from_label(extra))
    evals, vecs = np.linalg.eigh(h.to_dense())
    want = (vecs * np.exp(-0.7j * evals)) @ vecs.conj().T
    solved = counting_eigh(monkeypatch)
    u = propagator(h, 0.7)
    assert solved == [solved_as]
    assert np.max(np.abs(u - want)) < 1e-12
    assert np.max(np.abs(u @ u.conj().T - np.eye(32))) < 1e-12


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("extra", ["YY", "YZ"])  # even Ys: real products; one Y: complex
def test_propagator_matches_the_complex_formula(n, extra):
    h = ising_chain(n)
    h.add(0.3, PauliString.from_label(extra.ljust(n, "I")))
    evals, vecs = np.linalg.eigh(h.to_dense())
    for t in (0.7, -2.3, 11.0):
        want = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
        assert np.max(np.abs(propagator(h, t) - want)) < 1e-12


def test_propagator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        propagator(np.array([[0, 1], [0, 0]]), 1.0)
    # An imaginary coefficient makes a term anti-hermitian inside its sector.
    h = PauliSum.from_text("0 0.5 XXI\n1 0 ZZI")
    for call in (lambda: propagator(h, 1.0), lambda: heisenberg(PauliString.from_label("ZII"), h, 1.0)):
        with pytest.raises(ValueError, match="hermitian"):
            call()


def _one_block(hm: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} from one complex eigh of the whole matrix."""
    evals, vecs = np.linalg.eigh(hm)
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T


def _sum(n: int, terms) -> PauliSum:
    return PauliSum.from_terms([(c, PauliString.from_label(label.ljust(n, "I"))) for c, label in terms])


# Each family's sector shape at n sites, and whether its blocks are complex.
SECTOR_CASES = {
    "diagonal": (lambda n: _sum(n, [(0.5, "I" * i + "Z") for i in range(n)] + [(0.3, "ZZ")]),
                 lambda n: (2**n, 1), False),
    "ising": (ising_chain, lambda n: (2, 2 ** (n - 1)), False),
    "x_field": (lambda n: _sum(n, [(0.7, "I" * i + "X") for i in range(n)] + [(0.2, "ZZ")]),
                lambda n: (1, 2**n), False),
    "odd_y": (lambda n: _sum(n, [(0.5, "I" * i + "Z") for i in range(n)]
                              + [(0.25, "I" * i + "XX") for i in range(n - 1)] + [(0.3, "XY")]),
              lambda n: (2, 2 ** (n - 1)), True),
}


def _check_sectors_and_propagator(h: PauliSum, t: float, gen) -> np.ndarray:
    """The sectors partition the basis, H has no entry between two of them,
    and propagator is unitary and within 1e-12 of the one-block formula;
    heisenberg matches U^dag O U for a word and for a sum."""
    hm = h.to_dense()
    sec = _sectors(h, 2**h.n)
    assert sorted(sec.ravel().tolist()) == list(range(2**h.n))
    label = np.empty(2**h.n, dtype=int)
    label[sec] = np.arange(len(sec))[:, None]
    assert not hm[label[:, None] != label[None, :]].any()
    u = propagator(h, t)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2**h.n))) < 1e-12
    assert np.max(np.abs(u - _one_block(hm, t))) < 1e-12
    word = PauliString(h.n, int(gen.integers(2**h.n)), int(gen.integers(2**h.n)))
    for op in (word, random_hermitian_sum(gen, h.n, 3)):
        om = op.to_dense()
        assert np.max(np.abs(heisenberg(op, h, t) - u.conj().T @ om @ u)) < 1e-12
    return sec


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("case", SECTOR_CASES)
def test_sector_propagator_and_heisenberg(monkeypatch, cold, case, n, gen):
    build, shape, complex_blocks = SECTOR_CASES[case]
    h = build(n)
    solved = counting_eigh(monkeypatch)
    sec = _check_sectors_and_propagator(h, 0.9, gen)
    assert sec.shape == shape(n)
    assert solved[0] == (np.complex128 if complex_blocks else np.float64)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(st.floats(-2, 2, allow_nan=False), st.text(alphabet="IXYZ", min_size=n, max_size=n)),
    min_size=1, max_size=6)), st.floats(-3, 3, allow_nan=False), st.integers(0, 2**32 - 1))
def test_sector_propagator_on_random_pauli_sums(terms, t, seed):
    h = PauliSum.from_terms([(c, PauliString.from_label(label)) for c, label in terms])
    if not h.terms:
        return
    _check_sectors_and_propagator(h, t, np.random.default_rng(seed))


@pytest.mark.parametrize("extra", ["YY", "YZ"])  # real blocks, complex blocks
def test_dense_hamiltonians_are_one_sector_bit_for_bit(extra):
    h = ising_chain(5)
    h.add(0.3, PauliString.from_label(extra.ljust(5, "I")))
    hm = h.to_dense()
    if hm.imag.any():
        evals, vecs = np.linalg.eigh(hm)
        want = (vecs * np.exp(-0.7j * evals)) @ vecs.conj().T
    else:
        evals, vecs = np.linalg.eigh(hm.real)
        want = np.empty(hm.shape, dtype=complex)
        want.real = (vecs * np.cos(evals * 0.7)) @ vecs.T
        want.imag = (vecs * -np.sin(evals * 0.7)) @ vecs.T
    om = PauliString.from_label("ZXIII").to_dense()
    assert np.array_equal(propagator(hm, 0.7), want)
    assert np.array_equal(heisenberg(om, hm, 0.7), want.conj().T @ om @ want)


def _chain_plus(extra: str) -> PauliSum:
    """A new sum each call, as each CLI run parses its Hamiltonian afresh."""
    h = ising_chain(5)
    h.add(0.3, PauliString.from_label(extra.ljust(5, "I")))
    return h


@pytest.mark.parametrize("extra", ["YY", "YZ"])  # real eigensystem, complex eigensystem
def test_a_warm_eigensystem_gives_the_cold_bits(monkeypatch, cold, extra):
    op = PauliString.from_label("ZXIII")
    solved = counting_eigh(monkeypatch)
    u = propagator(_chain_plus(extra), 0.7)
    assert len(solved) == 1
    warm_u, warm_h = propagator(_chain_plus(extra), 0.7), heisenberg(op, _chain_plus(extra), 0.7)
    assert len(solved) == 1
    monkeypatch.setattr(oracle, "_KEPT", None)
    cold_h = heisenberg(op, _chain_plus(extra), 0.7)
    assert len(solved) == 2
    assert np.array_equal(warm_u, u)
    assert np.array_equal(warm_h, cold_h)


def test_a_different_hamiltonian_evicts_the_kept_one(monkeypatch, cold):
    h = ising_chain(5)
    bond = (0, 0b11)  # XX on sites 0 and 1
    c = h.terms[bond]
    last_bit, signed_zero = ising_chain(5), ising_chain(5)
    last_bit.terms[bond] = complex(np.nextafter(c.real, 1.0), 0.0)
    signed_zero.terms[bond] = complex(c.real, -0.0)
    solved = counting_eigh(monkeypatch)
    u = propagator(h, 0.7)
    for other in (last_bit, signed_zero):
        got = propagator(other, 0.7)
        monkeypatch.setattr(oracle, "_KEPT", None)
        assert np.array_equal(got, propagator(other, 0.7))
    assert len(solved) == 5
    assert np.array_equal(propagator(h, 0.7), u)  # evicted: diagonalized again
    assert len(solved) == 6
    h.add(0.1, PauliString.from_label("ZZIII"))  # the same sum, changed in place
    assert not np.array_equal(propagator(h, 0.7), u)
    assert len(solved) == 7


def test_a_dense_hamiltonian_is_never_kept(monkeypatch, cold):
    h = ising_chain(4)
    solved = counting_eigh(monkeypatch)
    propagator(h, 0.7)
    assert oracle._KEPT is not None
    hm = h.to_dense()
    for _ in range(2):
        propagator(hm, 0.7)
        assert oracle._KEPT is None
    assert len(solved) == 3


def test_the_kept_eigensystem_is_read_only(cold):
    propagator(ising_chain(4), 0.7)
    _, (sec, evals, vecs) = oracle._KEPT
    assert (sec.shape, evals.shape, vecs.shape) == ((2, 8), (2, 8), (2, 8, 8))
    for arr in (sec, evals, vecs):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0


def test_heisenberg_conjugates(gen):
    h = ising_chain(2)
    u = propagator(h.to_dense(), 0.8)
    op = ginibre(gen, 4)
    got = exact_heisenberg(op, u)
    assert np.allclose(got, u.conj().T @ op @ u)
    with pytest.raises(ValueError):
        exact_heisenberg(op, 2 * u)


class TestPauliAmplitudes:
    def test_matches_trace_formula(self, gen):
        op = ginibre(gen, 8)
        amps = exact_pauli_amplitudes(op)
        for label in ("III", "XIZ", "YYX", "ZZZ", "IYI"):
            p = PauliString.from_label(label)
            want = np.trace(p.to_dense() @ op) / 8
            assert amps[pauli_index(p)] == pytest.approx(want, abs=1e-12)

    def test_probabilities_match_vectorized_state(self, gen):
        op = ginibre(gen, 4)
        probs = pauli_probabilities(op)
        assert probs.sum() == pytest.approx(1.0)
        state = vectorize(op, PAULI)
        assert np.allclose(probs, np.abs(state.amplitudes) ** 2, atol=1e-12)


class TestOtoc:
    def test_anticommuting_word_gives_minus_one(self):
        z = PauliString.from_label("Z")
        assert exact_otoc(z, PauliString.from_label("X"), PauliString.from_label("X")) == pytest.approx(-1.0)
        assert exact_otoc(z, PauliString.from_label("Z"), PauliString.from_label("Z")) == pytest.approx(1.0)

    def test_identity_pair_is_normalization(self, gen):
        op = ginibre(gen, 4)
        op = op * 2 / np.linalg.norm(op)  # HS norm sqrt(2^n)
        eye = PauliString.identity(2)
        assert exact_otoc(op, eye, eye) == pytest.approx(1.0)

    @pytest.mark.parametrize("words", [True, False], ids=["pauli_words", "dense_hermitian"])
    def test_trace_formula(self, gen, words):
        # Pauli words, or dense Hermitian P and Q, which keep the trace real.
        op = ginibre(gen, 8)
        if words:
            p, q = PauliString.from_label("XYI"), PauliString.from_label("ZIY")
            pm, qm = p.to_dense(), q.to_dense()
        else:
            p, q = (m + m.conj().T for m in (ginibre(gen, 8), ginibre(gen, 8)))
            pm, qm = p, q
        want = np.trace(op.conj().T @ pm.conj().T @ op @ qm).real / 8
        assert exact_otoc(op, p, q) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_words_match_the_dense_formula(self, gen, n):
        # Random words, Y letters among them, on a Hermitian operator and on
        # a non-Hermitian one, both evolved; the dense formula is the matrix
        # path. tr(O^dag P O Q) is real for Hermitian P and Q whatever O is.
        dim = 2**n
        h = ising_chain(n)
        h.add(0.3, PauliString.from_label("YZ".ljust(n, "I")))
        words = [PauliString(n, int(gen.integers(dim)), int(gen.integers(dim))) for _ in range(40)]
        assert sum(w.y_count > 0 for w in words) > 20
        for om in (ginibre(gen, dim), random_hermitian_sum(gen, n, 4).to_dense()):
            evolved = heisenberg(pauli_normalized(om), h, 0.9)
            for p, q in zip(words[::2], words[1::2]):
                want = exact_otoc(evolved, p.to_dense(), q.to_dense())
                assert abs(exact_otoc(evolved, p, q) - want) < 1e-14

    def test_imaginary_residue_still_refused(self, gen):
        op = pauli_normalized(ginibre(gen, 8))
        q = PauliString.from_label("XYZ")
        with pytest.raises(ValueError, match="imaginary residue"):
            exact_otoc(op, ginibre(gen, 8), q)

    def test_words_of_another_size_refused(self, gen):
        op = ginibre(gen, 8)
        with pytest.raises(ValueError, match="dims differ"):
            exact_otoc(op, PauliString.from_label("XY"), PauliString.from_label("XY"))
        with pytest.raises(ValueError, match="dims differ"):
            exact_otoc(op, PauliString.from_label("XYZ"), PauliString.from_label("XYZI"))


class TestOse:
    def test_equal_superposition_purity(self):
        op = PauliSum.from_text(f"{1 / np.sqrt(2)} 0 X\n{1 / np.sqrt(2)} 0 Z")
        purity, entropy = exact_ose(op, 2)
        assert purity == pytest.approx(0.5, abs=1e-12)
        assert entropy == pytest.approx(np.log(2), abs=1e-12)

    def test_point_mass_is_flat(self):
        purity, entropy = exact_ose(PauliString.from_label("XZY"), 2)
        assert (purity, entropy) == (1.0, 0.0)

    def test_order_one_is_shannon(self):
        op = PauliSum.from_text("0.6 0 X\n0.8 0 Z")
        _, entropy = exact_ose(op, 1)
        p = np.array([0.36, 0.64])
        assert entropy == pytest.approx(float(-(p * np.log(p)).sum()), abs=1e-12)

    def test_higher_order(self):
        op = PauliSum.from_text(f"{1 / np.sqrt(2)} 0 X\n{1 / np.sqrt(2)} 0 Z")
        purity, entropy = exact_ose(op, 3)
        assert purity == pytest.approx(0.25, abs=1e-12)
        assert entropy == pytest.approx(np.log(0.25) / (1 - 3), abs=1e-12)


class TestLoe:
    def test_bell_like_operator_is_maximally_mixed(self):
        op = PauliSum.from_text(f"{1 / np.sqrt(2)} 0 XX\n{1 / np.sqrt(2)} 0 YY")
        out = exact_loe(op, [0])
        assert out["trace"] == pytest.approx(0.5, abs=1e-12)
        assert out["linear"] == pytest.approx(0.5, abs=1e-12)
        assert out["entropy"] == pytest.approx(np.log(2), abs=1e-12)

    def test_product_operator_is_pure(self):
        out = exact_loe(PauliString.from_label("XZ"), [1])
        assert out["trace"] == pytest.approx(1.0, abs=1e-12)

    def test_partition_complement_symmetry(self, gen):
        op = ginibre(gen, 8)
        a = exact_loe(op, [0])
        b = exact_loe(op, [1, 2])
        assert a["trace"] == pytest.approx(b["trace"], abs=1e-10)

    def test_wide_partition_builds_the_smaller_reduced_state(self):
        # Six of seven sites: the complement's 4x4 reduced state, not the
        # partition's 4^6 x 4^6 one (256 MiB).
        op = PauliString.from_label("ZXIIIIZ")
        tracemalloc.start()
        try:
            out = exact_loe(op, range(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["trace"] == pytest.approx(1.0, abs=1e-12)
        assert peak < 8 << 20

    @pytest.mark.parametrize("partition", [[], [0, 1], [5]])
    def test_bad_partitions(self, partition):
        with pytest.raises(ValueError):
            exact_loe(PauliString.from_label("XZ"), partition)


class TestChannelDual:
    def test_bit_flip_on_z(self):
        p = 0.2
        kraus = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * SIGMA["X"]]
        got = exact_channel_dual(kraus, PauliString.from_label("Z"))
        assert np.allclose(got, (1 - 2 * p) * SIGMA["Z"], atol=1e-12)

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError):
            exact_channel_dual([0.5 * np.eye(2)], PauliString.from_label("Z"))
        with pytest.raises(ValueError):
            exact_channel_dual([], PauliString.from_label("Z"))


class TestConfig:
    @pytest.mark.parametrize("dim, named", [
        (2**10000, "at dimension 2^10000 needs 2^20007 bytes"),  # past str()'s 4,300 digits
        (3 * 2**30, "at dimension 3221225472 needs over 2^70 bytes"),
        (2**12, "at dimension 4096 needs 2147483648 bytes"),
    ], ids=["2^10000", "3*2^30", "2^12"])
    def test_refusal_names_any_size(self, dim, named):
        with pytest.raises(CapExceededError, match=re.escape(f"{named}; the byte budget allows")):
            reserve_working_set(dim)

    def test_cap_enforced(self):
        # The matrices an oracle call holds at n=20, refused before the first
        # dense operator is built.
        word = PauliString.identity(20)
        requested = _HELD * 16 * 4**20
        assert refusal_peak(lambda: exact_otoc(word, word, word), requested) < 1 << 20
