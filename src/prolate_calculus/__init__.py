"""Spectral calculus for time-and-band limiting operators on [-1, 1]."""

from .errors import (
    ConventionViolationError,
    DomainError,
    OutOfRangeError,
    ProlateCalculusError,
    QuadratureUnresolvedError,
    RuleTooLargeError,
    SeriesStallError,
    SpectralFailureError,
    XiQuadratureUnresolvedError,
)
from .legendre import (
    BandedSymMatrix,
    QuadRule,
    default_truncation,
    gauss_legendre_rule,
    legendre_operator_diag,
    legendre_table,
)
from .prolate import (
    ProlateBasis,
    assemble_heun_matrix,
    pswf_eval,
    solve_prolate,
)
from .nystrom import NystromResult, nystrom_chi, nystrom_sinc_eigen
from .ucalc import boundary_ratios, u_series_scalar
from .transforms import (
    OperatorMatrix,
    commutator_report,
    finite_fourier_direct,
    heun_operator,
    reconstruct_fourier,
    reconstruct_sinc,
    sinc_kernel_direct,
)
from .asymptotics import (
    bessel_i0_series,
    bessel_limit_check,
    dilated_pswf,
    hermite_distance,
    oscillator_gaps,
    small_c_operator,
    wkb_value,
)
from .verify import CheckRecord, RunConfig, VerificationReport, run_suite

__version__ = "0.1.0"
