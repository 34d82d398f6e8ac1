"""Generalized-alpha time integrators of order 2k for u'' + lambda*u = 0,
with the amplification-matrix spectral machinery (eigenvalue limits,
stability maps, dissipation control) needed to verify the analytic
properties at desk scale."""

from .params import (
    DissipationSpec,
    SchemeParameters,
    SingularStepError,
    StabilityReport,
    check_stability_conditions,
    derive,
    from_alphas,
)
from .stepper import (
    ModalState,
    StepConfig,
    Trajectory,
    Variant,
    init_state,
    integrate,
    step,
)
from .amplification import (
    AmplificationMatrix,
    amplification_matrix,
    assemble_step_matrices,
    diagonal_blocks,
    oracle_step,
    scale_state,
    unscale_state,
)
from .spectral import (
    ParameterAxis,
    Spectrum,
    StabilityMap,
    SweepConfig,
    classify_stability,
    eigvals,
    limit_eigs_sigma_inf,
    limit_eigs_sigma_zero,
    spectral_radius,
    stability_map,
    sweep_spectrum,
)
from .convergence import (
    ConvergenceStudy,
    exact_solution,
    fit_order,
    run_convergence,
    verify_recurrence,
)
from .modal import (
    ModalDecomposition,
    SymmetricSystem,
    SystemTrajectory,
    integrate_system,
    jacobi_eig,
    load_system,
)

__version__ = "0.1.0"
