"""lelab: exact density-matrix evolution, energy-shell reduction, and
effective entropy on momentum lattices, with a classical phase-space
analogue and a config-driven experiment harness."""

from .basis import (
    MAX_POINTS,
    MomentumBasis,
    ShellTable,
    basis_from_json,
    basis_to_json,
    build_basis,
    build_basis_1d,
    energy_tolerance,
    shell_of,
)
from .config import ExperimentConfig, load_config, validate_config
from .dynamics import (
    SUPEROP_DIM_CAP,
    Hamiltonian,
    Propagator,
    Superoperator,
    alpha_diagonality_test,
    alpha_offblock_norm,
    build_hamiltonian,
    commutator_superoperator,
    evolve,
    interaction_liouvillian_element,
    liouvillian_superoperator,
    yukawa_fourier,
)
from .errors import (
    ConfigError,
    DimensionCapError,
    InvariantViolation,
    StateValidationError,
)
from .harness import RunSummary, demo_config, run, run_invariant_checks
from .koopman import (
    BetaMarginal,
    PhaseSpaceDensity,
    PhaseSpaceGrid,
    apply_kick,
    classical_effective_entropy,
    classical_free_flow,
    classical_reduce,
    gaussian_density,
    single_p_row_density,
    xi_beta_coordinates,
)
from .reduction import (
    RANK_TOL,
    TAU_LAMBDA,
    AlphaDecomposition,
    ShellDecomposition,
    TraceRow,
    alpha_decompose,
    assemble_block_diagonal,
    effective_entropy,
    entropy_trace,
    expectation_xi_independent,
    first_order_reduced_step,
    free_phase_law,
    is_effectively_pure,
    reduce,
    shell_entropies,
    weighted_effective_entropy,
)
from .states import (
    DensityMatrix,
    PureState,
    density_from_json,
    density_to_json,
    effectively_pure_state,
    global_entropy,
    global_purity,
    pure_to_density,
    random_density_matrix,
    random_effectively_pure_state,
    random_pure_state,
    random_psd_unit_trace,
)

__version__ = "0.1.0"
