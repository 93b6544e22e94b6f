"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so estimator and parser code
should raise the most specific type that applies.
"""


class OpvecError(Exception):
    """Base class for all package errors."""


class ParseError(OpvecError):
    """Malformed operator, circuit, superoperator, or config input."""


class CapExceededError(OpvecError):
    """An allocation would exceed the byte budget, ``_linalg.BYTE_BUDGET``."""


class NonCommutingSetError(OpvecError):
    """A set of doubled-space observables is not simultaneously measurable."""

    def __init__(self, msg: str, witness: tuple[int, int] | None = None):
        super().__init__(msg)
        self.witness = witness


class EntangledEigenbasisError(OpvecError):
    """A measurement family needs an entangled eigenbasis where only
    separable (input/output product) measurements are available."""

    def __init__(self, msg: str, witness: tuple[int, int] | None = None):
        super().__init__(msg)
        self.witness = witness


class ProjectionFailedError(OpvecError):
    """A postselection step retained (numerically) zero amplitude."""

    def __init__(self, msg: str, probability: float = 0.0):
        super().__init__(msg)
        self.probability = probability
