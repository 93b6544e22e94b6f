"""Pauli string and sum algebra checked against dense 2^n matrices."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import refusal_peak
from opvec.errors import ParseError
from opvec.pauli import PauliString, PauliSum
from reference import kron_dense, kron_sum

labels = st.text(alphabet="IXYZ", min_size=1, max_size=4)


@given(labels)
def test_label_round_trip(label):
    assert PauliString.from_label(label).label == label


@given(labels)
def test_dense_matches_kron(label):
    p = PauliString.from_label(label)
    want = np.eye(1, dtype=complex)
    table = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]]),
    }
    for ch in label:
        want = np.kron(want, table[ch])
    assert np.allclose(p.to_dense(), want)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 4**n - 1), st.integers(0, 4**n - 1))))
def test_commutes_matches_product_order(args):
    n, ka, kb = args
    a = PauliString(n, ka % 2**n, ka // 2**n)
    b = PauliString(n, kb % 2**n, kb // 2**n)
    da, db = a.to_dense(), b.to_dense()
    assert a.commutes(b) == np.allclose(da @ db, db @ da)


@pytest.mark.parametrize(
    "label,weight,boundary,ys",
    [("IIII", 0, 0, 0), ("XIII", 1, 1, 0), ("IIYZ", 2, 4, 1), ("YYYY", 4, 4, 4)],
)
def test_geometric_features(label, weight, boundary, ys):
    p = PauliString.from_label(label)
    assert (p.weight, p.right_boundary, p.y_count) == (weight, boundary, ys)


def test_single_and_site():
    p = PauliString.single(5, 3, "Y")
    assert p.label == "IIIYI"
    assert p.site(3) == "Y"
    with pytest.raises(ValueError):
        PauliString.single(5, 5, "X")


def test_from_label_rejects_garbage():
    with pytest.raises(ParseError):
        PauliString.from_label("XQ")


def test_bits_outside_range_rejected():
    with pytest.raises(ValueError):
        PauliString(2, 4, 0)


def test_dense_cap():
    # 16 * 4^20 bytes, 16 TiB, refused at the default budget before any of
    # it is allocated.
    assert refusal_peak(lambda: PauliString.identity(20).to_dense(), 16 * 4**20) < 1 << 20
    assert refusal_peak(lambda: PauliSum(20, {(0, 0): 1.0}).to_dense(), 16 * 4**20) < 1 << 20


class TestPauliSum:
    def test_from_text_and_dense(self):
        s = PauliSum.from_text("1 0 ZI\n0.5 -0.25 XY\n# comment\n\n")
        want = PauliString.from_label("ZI").to_dense() + (0.5 - 0.25j) * PauliString.from_label(
            "XY"
        ).to_dense()
        assert np.allclose(s.to_dense(), want)

    def test_text_round_trip(self):
        s = PauliSum.from_text("0.125 0 XX\n-3 0.5 ZY\n1 0 II")
        again = PauliSum.from_text(s.to_text())
        assert again.terms == s.terms

    def test_add_merges_and_drops_zeros(self):
        s = PauliSum(2)
        p = PauliString.from_label("XZ")
        s.add(1.0, p)
        s.add(-1.0, p)
        assert len(s) == 0
        s.add(0.5j, p)
        assert s.terms == {(p.z, p.x): 0.5j}

    @pytest.mark.parametrize(
        "text", ["", "1 0", "x 0 ZI", "1 0 ZI\n1 0 Z", "1 0 QQ"]
    )
    def test_from_text_rejects(self, text):
        with pytest.raises(ParseError):
            PauliSum.from_text(text)

    def test_ordered_items_keeps_file_order(self):
        s = PauliSum.from_text("1 0 ZZ\n1 0 XX")
        assert [p.label for _, p in s.ordered_items()] == ["ZZ", "XX"]
        assert [p.label for _, p in s.items()] == ["XX", "ZZ"]


# ---------------------------------------------------------------------------
# The builders from each word's one nonzero per row, against the kron chain.

def _random_words(n: int, count: int, seed: int) -> list[PauliString]:
    gen = np.random.default_rng(seed)
    return [PauliString(n, int(gen.integers(2**n)), int(gen.integers(2**n))) for _ in range(count)]


@pytest.mark.parametrize("word", [PauliString(n, z, x) for n in range(4)
                                  for z in range(2**n) for x in range(2**n)]
                         + _random_words(7, 24, 7), ids=lambda p: p.label or "empty")
def test_word_equals_its_kron_chain_on_the_support(word):
    # Off the support the kron chain leaves some -0.0; the builder writes +0.0.
    got, want = word.to_dense(), kron_dense(word)
    support = want != 0
    assert np.array_equal(got, want)
    assert np.array_equal(got != 0, support) and np.count_nonzero(support) == 2**word.n
    assert got[support].tobytes() == want[support].tobytes()
    rows = np.arange(2**word.n)
    assert word.row_values().tobytes() == want[rows, rows ^ word.xmask].tobytes()


@pytest.mark.parametrize("n, seed", [(1, 1), (3, 2), (5, 3), (7, 4), (7, 5)])
def test_sum_bytes_equal_the_kron_chain_sum(n, seed):
    gen = np.random.default_rng(seed)
    s = PauliSum(n)
    for p in _random_words(n, 12, seed):
        s.add(complex(*gen.normal(size=2)), p)
    s.add(-1.5, PauliString.from_label("Y" * n))
    assert s.to_dense().tobytes() == kron_sum(s).tobytes()
