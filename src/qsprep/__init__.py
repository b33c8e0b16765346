"""Oracle quantum-state preparation via signal-processing polynomials.

From a classical amplitude table the pipeline compiles a phase oracle,
extracts its generator through a sine block encoding and an arcsin
polynomial transform, amplifies the flagged component with a fixed-point
sign-polynomial plan, and verifies every promised error bound per run. The
pipeline simulates its diagonal oracle with one 4x4 block per data index; a
dense simulator is kept as the reference that tests compare against.
"""

from .amplifier import (
    AmplificationPlan,
    amplify,
    amplify_state,
    build_projectors,
    plan_amplification,
)
from .blockenc import (
    BlockEncoding,
    IndexBlocks,
    extract_block,
    hamiltonian_from_unitary,
    lcu_real_part,
    qsvt_circuit,
    reflection_encoding,
    sine_block_encoding,
)
from .errors import (
    CompletionError,
    ConditionError,
    DegreeOverflowError,
    DimensionError,
    InfeasibleError,
    InputError,
    PhaseFindingError,
    QsprepError,
)
from .oracle import (
    AmplitudeOracle,
    apply_relative_phase,
    bit_oracle_unitary,
    gamma,
    oracle_from_text,
    oracle_to_text,
    phase_unitary,
    phase_unitary_direct,
    target_state,
)
from .phases import (
    PhaseSequence,
    VerificationReport,
    conjugate_phases,
    find_phases,
    phases_from_text,
    phases_to_text,
    polynomial_from_phases,
    reconstruct,
    reconstruct_matrix,
    verify_phases,
)
from .pipeline import (
    BoundCheck,
    PrepConfig,
    PrepReport,
    SweepSpec,
    grover_case,
    prepare_state,
    sweep,
    sweep_to_csv,
    verify_error_bounds,
)
from .polyapprox import (
    Polynomial,
    arcsin_taylor,
    chebyshev_economize,
    complete_to_complex,
    evaluate,
    poly_from_text,
    poly_to_text,
    sign_approx,
    to_chebyshev,
    to_monomial,
)
from .simulator import (
    GateSpec,
    Projector,
    RegisterLayout,
    StateVector,
    UnitaryMatrix,
    apply,
    apply_circuit,
    circuit_unitary,
    cphase,
    controlled,
    fidelity,
    hadamard,
    op_dist,
    pauli_x,
    pauli_y,
    pauli_z,
    phase_gate,
    project_measure,
    projector_phase,
    sample_projective,
    spectral_norm,
    state_dist,
    unitary_gate,
)

__version__ = "0.1.0"
