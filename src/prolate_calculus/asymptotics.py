"""Small- and large-bandwidth limits of the finite Fourier transform.

Small c: the transform collapses onto low-order Legendre projectors; the
order-(c^0, c^1) truncation is assembled exactly (rational arithmetic) from
the c = 0 closed form of the recurrence polynomials,

    U_k(y) = prod_{n=1..k} (y + n(n-1)) / (2^k k!),

whose factors annihilate the first k Legendre modes.

Large c: after the dilation x -> x / sqrt(c) the operator approaches the
harmonic oscillator, eigenfunctions approach Hermite functions, and the
rescaled transform approaches the complete Fourier transform with
eigenphases i^n.  Scalar checks at the y = -1 matching corner use the
modified-Bessel limit sum_k eps^k / (2^k k! k!) and a WKB form away from
the turning points.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .legendre import gauss_legendre_rule
from .prolate import ProlateBasis, pswf_eval, solve_prolate
from .transforms import OperatorMatrix, finite_fourier_direct
from .ucalc import u_series_scalar

SMALL_C_MAX = 0.2
SMALL_K_MAX = 30


def legendre_annihilator_diag(n_dim: int, k: int) -> np.ndarray:
    """Diagonal of prod_{n=1..k} (T0 + n(n-1)) at c = 0, exact integers.

    The m-th entry is prod_{n=1..k} (n(n-1) - m(m+1)), which vanishes for all
    m < k; this finite-rank structure is what turns the small-c series into
    Legendre projectors.
    """
    m = np.arange(n_dim, dtype=object)
    lam = -m * (m + 1)
    out = np.ones(n_dim, dtype=object)
    for n in range(1, k + 1):
        out = out * (lam + n * (n - 1))
    return out


def small_c_diagonal_terms(n_dim: int, k_max: int):
    """Exact diagonal coefficients (A_m, B_m) of the two-term expansion.

    The expansion reads  diag_m = A_m - i c B_m  with

        A_m = 2 sum_k  prod_k(m) / (k! (k+1)!)
        B_m = 2 sum_k  (k/(k+2)) prod_k(m) / (k! (k+1)!)

    Sums are finite (terms vanish for k > m) and evaluated in rational
    arithmetic, so A_0 = 2 and A_m = 0 for m >= 1 hold exactly.  The table
    depends on no bandwidth; it is built once per process and shared, so
    both arrays are read-only.
    """
    return _small_c_terms(operator.index(n_dim), operator.index(k_max))


@functools.lru_cache(maxsize=16)
def _small_c_terms(n_dim: int, k_max: int):
    a = [Fraction(0)] * n_dim
    b = [Fraction(0)] * n_dim
    prod = [Fraction(1)] * n_dim
    for k in range(0, k_max + 1):
        if k > 0:
            for m in range(n_dim):
                prod[m] *= Fraction(k * (k - 1) - m * (m + 1))
        denom = Fraction(math.factorial(k) * math.factorial(k + 1))
        for m in range(n_dim):
            if prod[m] == 0:
                continue
            term = 2 * prod[m] / denom
            a[m] += term
            b[m] += Fraction(k, k + 2) * term
    a_terms = np.array([float(x) for x in a])
    b_terms = np.array([float(x) for x in b])
    a_terms.flags.writeable = False
    b_terms.flags.writeable = False
    return a_terms, b_terms


def small_c_operator(c: float, n_dim: int, k_max: int) -> OperatorMatrix:
    """Order-(c^0, c^1) truncation of the finite Fourier transform.

    Diagonal in the Legendre basis; requires k_max >= n_dim - 1 so every
    mode's (finite) product sum is complete -- a truncated sum for m > k_max
    would carry enormous uncancelled terms instead of its exact zero.
    """
    if c > SMALL_C_MAX:
        raise DomainError(f"small-c expansion restricted to c <= {SMALL_C_MAX}")
    if k_max > SMALL_K_MAX:
        raise DomainError(f"k_max capped at {SMALL_K_MAX}")
    if k_max < n_dim - 1:
        raise DomainError(
            f"need k_max >= n_dim - 1 = {n_dim - 1} to complete the product sums"
        )
    a, b = small_c_diagonal_terms(n_dim, k_max)
    return OperatorMatrix(dim=n_dim, entries=np.diag(a - 1j * c * b))


def hermite_exponential(m_count: int) -> np.ndarray:
    """Eigenphases i^n of the complete Fourier transform on Hermite functions.

    Convention note: with the oscillator Hamiltonian normalized as
    H = (d^2/dx^2 - x^2 - 1)/2 the literal exponential exp(-i pi H / 2)
    carries an extra global factor i relative to the transform; the returned
    sequence is the one that fixes the Gaussian (period 4 in n).
    """
    if m_count < 1:
        raise DomainError("need at least one mode")
    return (1j) ** np.arange(m_count)


@dataclass(frozen=True)
class HermiteBasis:
    """Unit-norm Hermite functions h_n(x) ~ H_n(x) exp(-x^2/2) on a grid."""

    m_count: int
    grid: np.ndarray
    weights: np.ndarray
    values: np.ndarray  # shape (m_count, len(grid))


def hermite_basis(m_count: int, half_width: float | None = None, n_quad: int | None = None) -> HermiteBasis:
    """Sample h_0..h_{m-1} on a Gauss grid wide enough for orthonormality.

    Stable three-term recurrence
    h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1}.
    """
    if m_count < 1:
        raise DomainError("need at least one mode")
    if half_width is None:
        half_width = math.sqrt(2 * m_count) + 4.0
    if n_quad is None:
        n_quad = max(256, 8 * m_count)
    rule = gauss_legendre_rule(n_quad)
    grid = half_width * rule.nodes
    weights = half_width * rule.weights
    values = hermite_values(m_count, grid)
    return HermiteBasis(m_count=m_count, grid=grid, weights=weights, values=values)


def hermite_values(m_count: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    values = np.empty((m_count,) + x.shape)
    values[0] = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if m_count > 1:
        values[1] = math.sqrt(2.0) * x * values[0]
    for n in range(1, m_count - 1):
        values[n + 1] = x * math.sqrt(2.0 / (n + 1)) * values[n] - math.sqrt(
            n / (n + 1.0)
        ) * values[n - 1]
    return values


def dilated_pswf(basis: ProlateBasis, n: int, x) -> np.ndarray:
    """Unit-norm dilated eigenfunction c^{-1/4} psi_n(x / sqrt(c)).

    This is the scaling under which the large-c limit lands on the unit-norm
    Hermite function h_n; it lives on |x| <= sqrt(c).
    """
    u = np.asarray(x) / math.sqrt(basis.c)
    if np.any(np.abs(u) > 1.0 + 1e-12):
        raise DomainError("dilated argument outside [-1, 1]")
    return basis.c ** (-0.25) * pswf_eval(basis, n, np.clip(u, -1.0, 1.0))


def hermite_distance(basis: ProlateBasis, n: int, n_quad: int = 400) -> float:
    """L2 distance between the dilated mode n and h_n on [-sqrt(c), sqrt(c)]."""
    half = math.sqrt(basis.c)
    rule = gauss_legendre_rule(n_quad)
    grid = half * rule.nodes
    weights = half * rule.weights
    diff = dilated_pswf(basis, n, grid) - hermite_values(n + 1, grid)[n]
    return float(math.sqrt(np.abs(weights @ diff**2)))


def hermite_ladder_matrices(m_count: int):
    """(X, D) position and derivative matrices in the Hermite-function basis."""
    k = np.sqrt(np.arange(1, m_count) / 2.0)
    x_mat = np.diag(k, 1) + np.diag(k, -1)
    d_mat = np.diag(k, 1) - np.diag(k, -1)
    return x_mat, d_mat


def dilated_heun_hermite_defect(c: float, block: int, buffer: int = 8) -> float:
    """|| dilated-T / (2c) - diag(-(n + 1/2)) ||_F on a leading Hermite block.

    The dilated operator is c (d^2 - x^2) - (x^2 d^2 + 2 x d); the second
    group is c-independent, so the defect decays like 1/c.
    """
    m = block + buffer
    x_mat, d_mat = hermite_ladder_matrices(m)
    osc = d_mat @ d_mat - x_mat @ x_mat
    rest = x_mat @ x_mat @ d_mat @ d_mat + 2.0 * x_mat @ d_mat
    t_tilde = c * osc - rest
    target = np.diag(-(np.arange(m) + 0.5))
    defect = t_tilde / (2.0 * c) - target
    return float(np.linalg.norm(defect[:block, :block]))


def oscillator_gaps(basis: ProlateBasis, n_max: int) -> np.ndarray:
    """|sqrt(c/2pi) lambda_n - 1| for n <= n_max, from ``basis.lambdas``.

    Every eigenvalue of the complete Fourier transform has modulus 1.
    """
    count = basis._certified(n_max) + 1
    return np.abs(math.sqrt(basis.c / (2 * math.pi)) * basis.lambdas[:count] - 1.0)


def fourier_phase_errors(basis: ProlateBasis, n_max: int) -> np.ndarray:
    """Wrapped |arg <psi_n, F_c psi_n> - pi n/2| for n <= n_max.

    The quotients v^T F v are read off one direct F_c matrix on the basis's
    Legendre coefficients, so they carry the measured phase, not the i^n
    that ``fourier_eigenvalue`` enforces.
    """
    count = basis._certified(n_max) + 1
    v = basis.psi_coeffs[:, :count]
    fourier = finite_fourier_direct(basis.c, basis.n_dim).entries
    quotients = np.einsum("in,in->n", v, fourier @ v)
    phase = np.angle(quotients) - math.pi * np.arange(count) / 2
    return np.abs((phase + math.pi) % (2 * math.pi) - math.pi)


def large_c_eigen_convergence(c_list, n_max: int) -> list[dict]:
    """Convergence report toward the complete-Fourier limit.

    For each bandwidth and mode: the oscillator gap, the phase error of the
    measured transform quotient against pi n / 2, and the L2 distance of the
    dilated eigenfunction from the matching Hermite function.
    """
    rows = []
    for c in c_list:
        if c > 30:
            raise DomainError("large-c report capped at c = 30 (desk scale)")
        basis = solve_prolate(c)
        gaps, phases = oscillator_gaps(basis, n_max), fourier_phase_errors(basis, n_max)
        for n in range(n_max + 1):
            rows.append(
                {
                    "c": float(c),
                    "n": n,
                    "delta": float(gaps[n]),
                    "phase_error": float(phases[n]),
                    "hermite_distance": hermite_distance(basis, n),
                    "mu": basis.mu(n),
                }
            )
    return rows


def bessel_i0_series(z: float, tol: float = 1e-16) -> float:
    """Modified Bessel I_0 by its power series sum_k (z^2/4)^k / (k!)^2.

    Deliberately independent of any library Bessel routine; used as the
    oracle for the matching-corner limit of the translation series.
    """
    term = 1.0
    total = 1.0
    q = z * z / 4.0
    for k in range(1, 400):
        term *= q / (k * k)
        total += term
        if term < tol * total:
            break
    return total


def bessel_limit_check(c: float, eps_list, lambda_ref: float) -> list[dict]:
    """Compare U(eps/c^2; lambda_ref) with I_0(sqrt(2 eps)).

    The deviation is O(1/c) at fixed eps; the asymptotic column carries the
    large-eps closed form exp(sqrt(2 eps)) / (sqrt(2 pi) (2 eps)^(1/4)).
    """
    rows = []
    for eps in eps_list:
        xi = eps / (c * c)
        if not 0.0 <= xi < 2.0:
            raise DomainError(f"eps = {eps} maps to xi = {xi} outside [0, 2)")
        value = u_series_scalar(c, lambda_ref, xi, tol=1e-14).value
        bessel = bessel_i0_series(math.sqrt(2.0 * eps))
        asym = (
            math.exp(math.sqrt(2.0 * eps))
            / (math.sqrt(2.0 * math.pi) * (2.0 * eps) ** 0.25)
            if eps > 0
            else float("nan")
        )
        rows.append(
            {
                "eps": float(eps),
                "series": value,
                "bessel": bessel,
                "deviation": abs(value - bessel),
                "asymptotic": asym,
            }
        )
    return rows


def wkb_value(c: float, lam: float, y: float, b_coeff: float = 0.0) -> float:
    """Exponential approximation of U(y+1; lambda) away from y in {0, +-1}.

    A exp(+c sqrt(1-y^2)) branch with A = 1/sqrt(2 pi c); the prefactor uses
    1/sqrt(|y|) (branch conventions absorbed into the matching constant) and
    the spectral factor ((1 + s)/(1 - s))^(lambda/4c) with s = sqrt(1-y^2).
    An optional decaying branch with coefficient ``b_coeff`` is exposed so
    its absence can be tested.
    """
    if y <= -1.0 or y >= 0.0:
        raise DomainError("WKB form evaluated on y in (-1, 0) only")
    s = math.sqrt(1.0 - y * y)
    pref = 1.0 / (math.sqrt(abs(y)) * (1.0 - y * y) ** 0.25)
    spectral = ((1.0 + s) / (1.0 - s)) ** (lam / (4.0 * c))
    a_coeff = 1.0 / math.sqrt(2.0 * math.pi * c)
    grow = a_coeff * math.exp(c * s) * pref * spectral
    decay = b_coeff * math.exp(-c * s) * pref * spectral
    return grow + decay


def wkb_matching_ratio(c: float, lam: float, eps: float) -> float:
    """WKB value at y = -1 + eps/c^2 over the matching form
    A sqrt(c) exp(sqrt(2 eps)) / (2 eps)^(1/4)."""
    y = -1.0 + eps / (c * c)
    a_coeff = 1.0 / math.sqrt(2.0 * math.pi * c)
    matching = a_coeff * math.sqrt(c) * math.exp(math.sqrt(2.0 * eps)) / (2.0 * eps) ** 0.25
    return wkb_value(c, lam, y) / matching


def wkb_scalar_check(c: float, lam: float, y_list) -> list[dict]:
    """Relative deviation of the series from the WKB form on y points.

    Points must stay 0.1 away from the singular set {-1, 0}; deviations are
    O(1/c) for c >= 10.
    """
    if c < 10:
        raise DomainError("WKB check intended for c >= 10")
    rows = []
    for y in y_list:
        if y >= -0.1 or y <= -0.9:
            raise DomainError(f"y = {y} too close to a turning point")
        series = u_series_scalar(c, lam, y + 1.0, tol=1e-14).value
        wkb = wkb_value(c, lam, y)
        rows.append(
            {
                "y": float(y),
                "series": series,
                "wkb": wkb,
                "rel_deviation": abs(series - wkb) / abs(series),
            }
        )
    return rows
