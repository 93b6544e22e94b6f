"""Heisenberg-picture quantum simulation via operator-to-state vectorization.

An n-site operator becomes a 2n-qubit state; Heisenberg evolution becomes
Schrodinger evolution of that state; operator observables (OTOCs, size,
stabilizer and operator entanglement, two-point correlators) become sampling
experiments on it."""

from .errors import (
    CapExceededError,
    EntangledEigenbasisError,
    NonCommutingSetError,
    ParseError,
    ProjectionFailedError,
)
from .estimators import (
    EmpiricalPauliDist,
    EstimatorReport,
    OseEstimate,
    ShotPlan,
    allocate_shots,
    estimate_corr_interferometric,
    estimate_loe2,
    estimate_ose,
    estimate_otoc_group,
    estimate_superop_grouped,
    mc_diagonal,
    nqubit_otoc,
    nqubit_sample,
    ose_shot_counts,
    sample_pauli_dist,
)
from .lattice2d import (
    GridLayout,
    Schedule,
    ValidationReport,
    embed,
    final_layout,
    grid_hamiltonian,
    schedule_to_circuit,
    trotter_step_schedule,
    validate,
)
from .pauli import PauliString, PauliSum
from .simulator import (
    Circuit,
    Gate,
    QState,
    RngStream,
    apply_circuit,
    born_sample,
    channel_dual_postselect,
    dense_unitary,
    heisenberg_doubled,
    interferometric_state,
    super_propagator_circuit,
    trotter_circuit,
)
from .superop import (
    DiagonalSuperop,
    OperatorSumSuperop,
    builtin_diagonal,
    classify_commuting_set,
    common_eigenbasis_circuit,
    expectation,
    size_superop,
    walsh_hadamard,
)
from .vectorize import (
    COMPUTATIONAL,
    PAULI,
    BasisTag,
    VectorizedState,
    bell_transform,
    devectorize,
    index_pauli,
    load_state,
    pauli_index,
    save_state,
    vectorize,
)

__version__ = "0.1.0"
