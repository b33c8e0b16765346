"""Oracle quantum-state preparation via signal-processing polynomials.

From a classical amplitude table the pipeline compiles a phase oracle,
extracts its generator through a sine block encoding and an arcsin
polynomial transform, amplifies the flagged component with closed-form
fixed-point amplification angles, and verifies every promised error bound
per run. The pipeline simulates its diagonal oracle with one 4x4 block per
distinct quantized value of the table, of which it computes only the
flagged entry that post-selection keeps; a dense simulator is kept as the
reference that tests compare against.
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
    LevelEncoding,
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
    conjugate_phases,
    find_phases,
    phases_from_text,
    phases_to_text,
    polynomial_from_phases,
    reconstruct,
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
)
from .simulator import (
    GateSpec,
    Projector,
    StateVector,
    UnitaryMatrix,
    apply,
    circuit_unitary,
    cphase,
    controlled,
    fidelity,
    hadamard,
    op_dist,
    pauli_y,
    project_measure,
    spectral_norm,
    state_dist,
    unitary_gate,
)

__version__ = "0.1.0"
