"""Shared builders for the test suite."""

import sys
import tracemalloc

import numpy as np
import pytest

from opvec import _linalg
from opvec.errors import CapExceededError
from opvec.pauli import PauliString, PauliSum


def refusal_peak(call, requested: int) -> int:
    """Peak bytes traced while ``call()`` is refused for ``requested`` bytes."""
    refusal = f"needs {requested} bytes; the byte budget allows {_linalg.BYTE_BUDGET}$"
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=refusal):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_calls(monkeypatch, *names: str) -> list[str]:
    """Record, in order, the name of every call of the named functions,
    through each opvec module's binding of them."""
    calls: list[str] = []
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "opvec"]:
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn):
                def spy(*args, _fn=fn, _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, spy)
    return calls


def ising_chain(n: int) -> PauliSum:
    """Open transverse-field Ising chain with field 1/2 and coupling 1/4."""
    out = PauliSum(n)
    for i in range(n):
        out.add(0.5, PauliString.single(n, i, "Z"))
    for i in range(n - 1):
        label = ["I"] * n
        label[i] = label[i + 1] = "X"
        out.add(0.25, PauliString.from_label("".join(label)))
    return out


def fielded_chain(n: int) -> PauliSum:
    """The Ising chain plus a longitudinal X field of 0.2 on every site,
    listed after the Z fields and before the couplings. X on site 0 alone is
    then a generator, so no Z-type word through site 0 commutes with them
    all and the evolution keeps the full register; the fields join the
    blocks of their sites, so the passes are the chain's."""
    out = PauliSum(n)
    for i in range(n):
        out.add(0.5, PauliString.single(n, i, "Z"))
    for i in range(n):
        out.add(0.2, PauliString.single(n, i, "X"))
    for c, p in ising_chain(n).ordered_items():
        if p.weight == 2:
            out.add(c, p)
    return out


def ginibre(gen: np.random.Generator, dim: int) -> np.ndarray:
    return (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2)


def pauli_normalized(mat: np.ndarray) -> np.ndarray:
    """Scale so the HS norm matches a Pauli word's: ||O||_HS = sqrt(dim)."""
    return mat * np.sqrt(mat.shape[0]) / np.linalg.norm(mat)


def random_word(gen: np.random.Generator, n: int, nontrivial: bool = False) -> PauliString:
    while True:
        p = PauliString(n, int(gen.integers(2**n)), int(gen.integers(2**n)))
        if not nontrivial or p.weight:
            return p


def random_hermitian_sum(gen: np.random.Generator, n: int, terms: int) -> PauliSum:
    out = PauliSum(n)
    while len(out) < terms:
        out.add(float(gen.standard_normal()), random_word(gen, n))
    return out
