"""Spectral calculus for time-and-band limiting operators on [-1, 1]."""

from .errors import (
    ConventionViolationError,
    DomainError,
    OutOfRangeError,
    ProlateCalculusError,
    QuadratureUnresolvedError,
    RecurrenceOverflowError,
    RuleTooLargeError,
    SeriesStallError,
    SpectralFailureError,
    StencilOutOfDomainError,
    XiQuadratureUnresolvedError,
)
from .legendre import (
    BandedSymMatrix,
    CoeffVector,
    GridFunction,
    QuadRule,
    default_truncation,
    eval_legendre_orthonormal,
    gauss_legendre_rule,
    legendre_operator_diag,
    legendre_table,
    position_matrix,
)
from .prolate import (
    ProlateBasis,
    assemble_heun_matrix,
    fourier_eigenvalue,
    pswf_eval,
    solve_prolate,
)
from .nystrom import NystromResult, nystrom_chi, nystrom_psi_value, nystrom_sinc_eigen
from .ucalc import (
    USeriesResult,
    boundary_ratios,
    heun_ode_residual,
    u_operator_apply,
    u_operator_matrix_series,
    u_series_scalar,
)
from .transforms import (
    OperatorMatrix,
    commutator_report,
    finite_fourier_direct,
    reconstruct_fourier,
    reconstruct_sinc,
    reflect,
    sinc_kernel_direct,
)
from .asymptotics import (
    HermiteBasis,
    bessel_i0_series,
    bessel_limit_check,
    dilated_heun_hermite_defect,
    dilated_pswf,
    fourier_phase_errors,
    hermite_basis,
    hermite_distance,
    hermite_exponential,
    large_c_eigen_convergence,
    oscillator_gaps,
    small_c_operator,
    wkb_matching_ratio,
    wkb_scalar_check,
    wkb_value,
)
from .verify import CheckRecord, RunConfig, VerificationReport, run_suite

__version__ = "0.1.0"
