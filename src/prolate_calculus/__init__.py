"""Spectral calculus for time-and-band limiting operators on [-1, 1].

The public names below load on first use: ``import prolate_calculus`` reads
no submodule, and ``prolate_calculus.solve_prolate`` imports ``prolate`` the
first time it is read.  Each read looks the name up in its module again, so
a rebinding of the module attribute shows through the package.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", (
            "ConventionViolationError",
            "DomainError",
            "OutOfRangeError",
            "ProlateCalculusError",
            "QuadratureUnresolvedError",
            "RuleTooLargeError",
            "SeriesStallError",
            "SpectralFailureError",
            "XiQuadratureUnresolvedError",
        )),
        ("legendre", (
            "BandedSymMatrix",
            "QuadRule",
            "default_truncation",
            "gauss_legendre_rule",
            "legendre_operator_diag",
            "legendre_table",
        )),
        ("prolate", ("ProlateBasis", "assemble_heun_matrix", "pswf_eval", "solve_prolate")),
        ("nystrom", ("NystromResult", "nystrom_chi", "nystrom_sinc_eigen")),
        ("ucalc", ("boundary_ratios", "u_series_scalar")),
        ("transforms", (
            "OperatorMatrix",
            "commutator_report",
            "finite_fourier_direct",
            "reconstruct_fourier",
            "reconstruct_sinc",
            "sinc_kernel_direct",
        )),
        ("asymptotics", (
            "bessel_i0_series",
            "bessel_limit_check",
            "dilated_pswf",
            "hermite_distance",
            "oscillator_gaps",
            "small_c_operator",
            "wkb_value",
        )),
        ("verify", ("CheckRecord", "RunConfig", "VerificationReport", "run_suite")),
    )
    for name in names
}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
