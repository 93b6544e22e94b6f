"""Pauli strings and sums in a packed symplectic (bit-vector) encoding.

An n-site Pauli string is stored as two integers ``z`` and ``x`` whose bit i
describes site i:

    (z_i, x_i) = (0,0) -> I,  (0,1) -> X,  (1,0) -> Z,  (1,1) -> Y.

``PauliString`` always denotes the *standard* Hermitian Pauli word (the one
whose label reads over IXYZ); the ``Z^z X^x`` product form differs from it by
a factor of (-i) per Y site, and that bookkeeping lives wherever the product
form is actually needed (e.g. the vectorization map), not here.

Dense matrices follow the convention that site 0 is the most significant
tensor factor: ``to_dense`` of "XZ" is kron(X, Z). A word's matrix has one
nonzero per row, at column ``row ^ xmask``, and is built from those alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import reserve
from .errors import ParseError

PAULI_CHARS = "IXZY"  # label char for (z,x) packed as 2*z + x

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Each letter's two nonzeros, rows 0 and 1.
_NONZEROS = {c: m[[0, 1], [0, 1] if c in "IZ" else [1, 0]] for c, m in SIGMA.items()}


@dataclass(frozen=True)
class PauliString:
    """Immutable n-site Pauli word; bit i of z/x encodes site i."""

    n: int
    z: int
    x: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative site count")
        mask = (1 << self.n) - 1
        if self.z & ~mask or self.x & ~mask:
            raise ValueError("z/x bits outside the declared site range")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        z = x = 0
        for i, ch in enumerate(label):
            if ch in ("X", "Y"):
                x |= 1 << i
            if ch in ("Z", "Y"):
                z |= 1 << i
            if ch not in "IXYZ":
                raise ParseError(f"invalid Pauli character {ch!r} in {label!r}")
        return cls(len(label), z, x)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def single(cls, n: int, site: int, kind: str) -> "PauliString":
        """One non-identity letter at ``site``, identity elsewhere."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} outside 0..{n - 1}")
        label = ["I"] * n
        label[site] = kind
        return cls.from_label("".join(label))

    def site(self, i: int) -> str:
        return PAULI_CHARS[2 * ((self.z >> i) & 1) + ((self.x >> i) & 1)]

    @property
    def label(self) -> str:
        return "".join(self.site(i) for i in range(self.n))

    @property
    def weight(self) -> int:
        return (self.z | self.x).bit_count()

    @property
    def right_boundary(self) -> int:
        """1-based position of the rightmost non-identity site (0 for identity)."""
        return (self.z | self.x).bit_length()

    @property
    def y_count(self) -> int:
        return (self.z & self.x).bit_count()

    def commutes(self, other: "PauliString") -> bool:
        """Symplectic inner product: True iff [self, other] = 0."""
        if self.n != other.n:
            raise ValueError("site-count mismatch")
        return ((self.z & other.x).bit_count() + (self.x & other.z).bit_count()) % 2 == 0

    @property
    def xmask(self) -> int:
        """The x bits as a row index (site 0 most significant): row r's one
        nonzero sits at column r ^ xmask."""
        return sum(1 << (self.n - 1 - i) for i in range(self.n) if (self.x >> i) & 1)

    def row_values(self) -> np.ndarray:
        """The 2^n nonzeros of the word's matrix, by row: an outer-product
        fold of each site's two nonzeros, the same products in the same order
        as the kron chain of its letters, so equal to its entries bit for bit."""
        if self.n == 0:
            return np.ones(1, dtype=complex)
        values = _NONZEROS[self.site(0)]
        for i in range(1, self.n):
            values = np.multiply.outer(values, _NONZEROS[self.site(i)]).reshape(-1)
        return values

    def to_dense(self) -> np.ndarray:
        reserve(16 * 4**self.n, f"a dense operator on {self.n} sites")
        out = np.zeros((2**self.n, 2**self.n), dtype=complex)
        rows = np.arange(2**self.n)
        out[rows, rows ^ self.xmask] = self.row_values()
        return out

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


class PauliSum:
    """Complex linear combination of Pauli words over a fixed site count.

    Stored as {(z, x): coefficient} with exact-zero terms dropped. The text
    format is one term per line, ``<real> <imag> <label>``; blank lines and
    ``#`` comments are ignored.
    """

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n = n
        self.terms: dict[tuple[int, int], complex] = {}
        if terms:
            for key, c in terms.items():
                if c != 0:
                    self.terms[key] = complex(c)

    @classmethod
    def from_terms(cls, pairs) -> "PauliSum":
        """Build from an iterable of (coefficient, PauliString)."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty term list has no site count")
        n = pairs[0][1].n
        out = cls(n)
        for c, p in pairs:
            out.add(c, p)
        return out

    @classmethod
    def from_text(cls, text: str) -> "PauliSum":
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected '<real> <imag> <label>', got {raw!r}")
            try:
                re_c, im_c = float(fields[0]), float(fields[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad coefficient in {raw!r}") from exc
            if not (math.isfinite(re_c) and math.isfinite(im_c)):
                raise ParseError(f"line {lineno}: coefficient is not finite in {raw!r}")
            pairs.append((complex(re_c, im_c), PauliString.from_label(fields[2])))
        if not pairs:
            raise ParseError("no terms found")
        if len({p.n for _, p in pairs}) != 1:
            raise ParseError("inconsistent label lengths")
        return cls.from_terms(pairs)

    def to_text(self) -> str:
        """The text format, terms in insertion order, so a sum read back
        lists its terms, and a Hamiltonian its Trotter step, as written."""
        lines = [f"{c.real!r} {c.imag!r} {p.label}" for c, p in self.ordered_items()]
        return "\n".join(lines) + "\n"

    def add(self, c: complex, p: PauliString) -> None:
        if p.n != self.n:
            raise ValueError("site-count mismatch")
        key = (p.z, p.x)
        new = self.terms.get(key, 0j) + complex(c)
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def items(self):
        """Deterministic (coefficient, PauliString) iteration, key-sorted."""
        for (z, x), c in sorted(self.terms.items()):
            yield c, PauliString(self.n, z, x)

    def ordered_items(self):
        """(coefficient, PauliString) in insertion order (file order)."""
        for (z, x), c in self.terms.items():
            yield c, PauliString(self.n, z, x)

    def __len__(self) -> int:
        return len(self.terms)

    def to_dense(self) -> np.ndarray:
        """Dense matrix: c times each word's row values, added term by term in
        :meth:`items` order at the word's nonzeros."""
        reserve(16 * 4**self.n, f"a dense operator on {self.n} sites")
        dim = 2**self.n
        out = np.zeros(dim * dim, dtype=complex)
        rows = np.arange(dim)
        for c, p in self.items():
            out[rows * dim + (rows ^ p.xmask)] += c * p.row_values()
        return out.reshape(dim, dim)

    def __repr__(self) -> str:
        inner = " + ".join(f"({c:.3g})*{p.label}" for c, p in self.items())
        return f"PauliSum[{inner or '0'}]"
