"""Translation calculus generated by the prolate operator.

The polynomials U_k obey the four-term recurrence

    U_{k+1}(y) = (y + c^2 + k(k+1)) / (2(k+1)) * U_k(y)
                 - c^2 k / (k+1) * U_{k-1}(y)
                 + c^2 k(k-1) / (2(k+1)) * U_{k-2}(y),      U_0 = 1,

with U_k = 0 for k < 0, so U_1(y) = (y + c^2)/2.  The exponential

    U(xi; y) = sum_k xi^k U_k(y) / k!

converges for xi in (-2, 2) (terms behave like (xi/2)^k) and, evaluated on
the spectrum, translates boundary data: on mode n it multiplies by the
endpoint ratio psi_n(-1 + xi) / psi_n(-1).

Two independent paths to the boundary ratio are kept deliberately, and
``boundary_ratios`` takes exactly these two: "series" sums the power series
for one xi in (-2, 2), "spectral" goes through the eigenbasis for a scalar xi
or a whole xi-grid in (0, 2].  Their agreement is the sharpest numerical test
of the translation property.  The spectral (modes x xi) table is what the
F_c / Q_c reconstructions integrate and what ``u_operator_apply`` scales by;
the series runs only where it is itself under test (translation and
limits-large suites, and the tests).

``u_series_terms`` is the one scalar unrolling of the recurrence, in the
scaled form t_k = xi^k U_k / k!; ``u_operator_matrix_series`` runs the same
recurrence on the matrix of T as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    OutOfRangeError,
    RecurrenceOverflowError,
    SeriesStallError,
    StencilOutOfDomainError,
)
from .legendre import CoeffVector, legendre_table
from .prolate import ProlateBasis, assemble_heun_matrix

K_MAX = 2000
_RUN_LENGTH = 20  # consecutive small terms required before stopping
_OVERFLOW_LIMIT = 1e300
# Relative term size at which boundary_ratios' series path stops summing.
_SERIES_TOL = 1e-13
# Extended precision where available; the cancellation bound below uses the
# actual epsilon, so platforms where longdouble == double just report larger
# bounds instead of silently losing digits.
SERIES_DTYPE = np.longdouble


@dataclass(frozen=True)
class USeriesResult:
    """Converged partial sum of U(xi; lambda) with error bookkeeping.

    ``tail_estimate`` bounds the dropped tail geometrically with ratio
    |xi|/2; ``cancellation_bound`` is eps times the largest intermediate
    term, the floor set by alternating-sum cancellation.
    """

    xi: float
    value: float
    terms_used: int
    tail_estimate: float
    cancellation_bound: float


def u_series_terms(c: float, lambdas, xi: float, k_max: int, dtype=SERIES_DTYPE):
    """Generator of scaled terms t_k = xi^k U_k(lambda) / k!, shape (len(lambdas),).

    Uses the recurrence rewritten for t_k directly,

        t_{k+1} = xi / (2 (k+1)^2) * [ (lambda + c^2 + k(k+1)) t_k
                                       - 2 c^2 xi t_{k-1} + c^2 xi^2 t_{k-2} ],

    which never overflows for |xi| < 2 since t_k ~ (xi/2)^k.
    """
    lam = np.asarray(lambdas, dtype=dtype).ravel()
    xi = dtype(xi)
    c2 = dtype(c) * dtype(c)
    t_m2 = np.zeros_like(lam)
    t_m1 = np.zeros_like(lam)
    t = np.ones_like(lam)
    yield t
    for k in range(k_max):
        nxt = (xi / (2 * dtype(k + 1) ** 2)) * (
            (lam + c2 + dtype(k * (k + 1))) * t - 2 * c2 * xi * t_m1 + c2 * xi * xi * t_m2
        )
        t_m2, t_m1, t = t_m1, t, nxt
        yield t


def u_series_many(c: float, lambdas, xi: float, tol: float = 1e-12, k_max: int = K_MAX):
    """Sum U(xi; lambda) adaptively over an array of spectral points.

    Stops once ``_RUN_LENGTH`` consecutive terms fall below tol times the
    running sum for every point; single-term smallness is unreliable because
    the decay ratio approaches 1 as |xi| -> 2.
    """
    if not -2.0 < xi < 2.0:
        raise DomainError(f"xi = {xi} outside the open interval (-2, 2)")
    if tol <= 0:
        raise DomainError("tol must be positive")
    lam = np.asarray(lambdas, dtype=float).ravel()
    if xi == 0.0:
        zeros = np.zeros(lam.size)
        return np.ones(lam.size), 1, zeros, zeros
    eps = float(np.finfo(SERIES_DTYPE).eps)
    ratio = abs(xi) / 2.0
    total = np.zeros(lam.size, dtype=SERIES_DTYPE)
    max_term = np.zeros(lam.size, dtype=SERIES_DTYPE)
    run = np.zeros(lam.size, dtype=int)
    terms_used = 0
    last_small = None
    for k, term in enumerate(u_series_terms(c, lam, xi, k_max)):
        total += term
        np.maximum(max_term, np.abs(term), out=max_term)
        small = np.abs(term) <= tol * np.maximum(np.abs(total), 1e-300)
        run = np.where(small, run + 1, 0)
        terms_used = k + 1
        if np.all(run >= _RUN_LENGTH):
            last_small = np.abs(term)
            break
    else:
        worst = int(np.argmin(run))
        raise SeriesStallError(
            f"series did not converge within {k_max} terms at xi={xi}",
            worst_index=worst,
        )
    tail = last_small * ratio / (1.0 - ratio)
    cancellation = max_term * eps
    return (
        np.asarray(total, dtype=float),
        terms_used,
        np.asarray(tail, dtype=float),
        np.asarray(cancellation, dtype=float),
    )


def u_series_scalar(c: float, lam: float, xi: float, tol: float = 1e-12, k_max: int = K_MAX) -> USeriesResult:
    """U(xi; lambda) for a single spectral point; xi must lie in (-2, 2)."""
    values, terms, tail, cancel = u_series_many(c, [lam], xi, tol=tol, k_max=k_max)
    return USeriesResult(
        xi=float(xi),
        value=float(values[0]),
        terms_used=terms,
        tail_estimate=float(tail[0]),
        cancellation_bound=float(cancel[0]),
    )


def boundary_ratios(basis: ProlateBasis, xi: float | np.ndarray, method: str = "spectral") -> np.ndarray:
    """Per-mode factors psi_n(-1 + xi) / psi_n(-1) for all modes of the basis.

    "spectral" takes a scalar or 1-D xi in (0, 2] and returns shape
    (n_modes,) + shape(xi) from one Legendre table and one matrix product;
    it raises OutOfRangeError where some psi_n(-1) rounds to 0 (c = 40).
    "series" sums U(xi; lambda) at lambda = -chi_n for one scalar xi in
    (-2, 2); high modes (|lambda| ~ N^2) lose it to cancellation.  Any other
    method raises DomainError.
    """
    if method == "spectral":
        return _spectral_ratios(basis, xi)
    if method != "series":
        raise DomainError(f"unknown method {method!r}; choose 'series' or 'spectral'")
    if np.ndim(xi) != 0:
        raise DomainError("the series path takes one scalar xi")
    return u_series_many(basis.c, -basis.chi, xi, tol=_SERIES_TOL)[0]


def _spectral_ratios(basis: ProlateBasis, xi: float | np.ndarray) -> np.ndarray:
    """psi_n(-1 + xi) / psi_n(-1), shape (n_modes,) + shape(xi), xi in (0, 2]."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim > 1:
        raise DomainError(f"xi must be a scalar or a 1-D array, got {xi.ndim} dims")
    if not np.all((xi > 0.0) & (xi <= 2.0)):
        raise DomainError("spectral ratio path needs every xi in (0, 2]")
    if not np.all(basis.endpoint_minus):
        n = int(np.argmin(np.abs(basis.endpoint_minus)))
        raise OutOfRangeError(
            f"psi_{n}(-1) rounds to 0 at c = {basis.c:g}; the spectral ratios "
            "psi_n(-1 + xi) / psi_n(-1) are not representable"
        )
    table = legendre_table(basis.n_dim - 1, -1.0 + xi)
    return (basis.psi_coeffs.T @ table) / basis.endpoint_minus.reshape((-1,) + (1,) * xi.ndim)


def u_operator_apply(basis: ProlateBasis, xi: float, f: CoeffVector) -> CoeffVector:
    """Apply U(xi; T), xi in [0, 2], to a coefficient vector by spectral scaling.

    Expands f in the prolate eigenbasis and multiplies mode n by its spectral
    boundary ratio; linear in f, the identity at xi = 0.
    """
    if f.n_coeffs != basis.n_dim:
        raise DomainError("coefficient length does not match basis truncation")
    if xi == 0.0:
        # U(0; T) is the identity; skip the eigenbasis round-trip noise.
        return CoeffVector(coeffs=f.coeffs.copy())
    modal = basis.psi_coeffs.T @ f.coeffs
    return CoeffVector(coeffs=basis.psi_coeffs @ (_spectral_ratios(basis, xi) * modal))


def u_operator_matrix_series(c: float, n_dim: int, xi: float, k_max: int) -> np.ndarray:
    """Literal matrix power series sum_k xi^k U_k(T) / k! on the Legendre basis.

    Independent of the spectral path: the four-term recurrence is applied to
    the banded matrix of T itself (in scaled form, so nothing overflows for
    |xi| < 2).  Cross-validates u_operator_apply on the certified block.
    """
    if not -2.0 < xi < 2.0:
        raise DomainError(f"xi = {xi} outside (-2, 2)")
    if k_max > K_MAX:
        raise DomainError(f"k_max capped at {K_MAX}")
    dtype = SERIES_DTYPE
    t_mat = assemble_heun_matrix(c, n_dim).to_dense().astype(dtype)
    c2 = dtype(c) * dtype(c)
    xi_d = dtype(xi)
    eye = np.eye(n_dim, dtype=dtype)
    s_m2 = np.zeros((n_dim, n_dim), dtype=dtype)
    s_m1 = np.zeros((n_dim, n_dim), dtype=dtype)
    s = eye.copy()
    total = eye.copy()
    for k in range(k_max):
        nxt = (xi_d / (2 * dtype(k + 1) ** 2)) * (
            t_mat @ s
            + (c2 + dtype(k * (k + 1))) * s
            - 2 * c2 * xi_d * s_m1
            + c2 * xi_d * xi_d * s_m2
        )
        peak = float(np.max(np.abs(nxt)))
        if not np.isfinite(peak) or peak > _OVERFLOW_LIMIT:
            raise RecurrenceOverflowError(
                f"matrix series term {k + 1} overflowed", last_valid_k=k
            )
        s_m2, s_m1, s = s_m1, s, nxt
        total += s
    return np.asarray(total, dtype=float)


_STENCIL_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_STENCIL_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def heun_ode_residual(
    c: float,
    lam: float,
    y_grid,
    h: float = 1e-3,
    tol: float = 1e-13,
) -> np.ndarray:
    """Residual of [(1-y^2) d^2 - 2y d - c^2 y^2 - lambda] U(y+1; lambda).

    Fourth-order centered differences of the series solution; the residual is
    O(h^4) plus the series tolerance.  U(y+1; lambda) solves this equation on
    y in (-3, 1) with U(0) = 1, which pins the series down as the boundary
    solution of the two-variable problem.
    """
    if not 1e-4 <= h <= 1e-2:
        raise DomainError(f"h = {h} outside [1e-4, 1e-2]")
    y_grid = np.asarray(y_grid, dtype=float).ravel()
    if np.any(np.abs(y_grid) + 2 * h >= 1.0):
        raise StencilOutOfDomainError(
            "grid point within 2h of an endpoint; stencil leaves (-1, 1)"
        )
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    residuals = np.empty(y_grid.size)
    for i, y in enumerate(y_grid):
        f = np.array(
            [u_series_scalar(c, lam, y + 1.0 + d, tol=tol).value for d in offsets]
        )
        d1 = (_STENCIL_D1 @ f) / h
        d2 = (_STENCIL_D2 @ f) / (h * h)
        residuals[i] = (1.0 - y * y) * d2 - 2.0 * y * d1 - (c * c * y * y + lam) * f[2]
    return residuals
