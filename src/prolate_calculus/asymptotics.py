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
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .legendre import gauss_legendre_rule
from .prolate import ProlateBasis, pswf_eval
from .transforms import OperatorMatrix
from .ucalc import u_series_scalar

SMALL_C_MAX = 0.2
# Largest Legendre block of the small-c expansion: its rational product sums
# run to order n_dim - 1 <= 30.
SMALL_N_MAX = 31
# Gauss order of the rule that hermite_distance integrates on.
HERMITE_QUAD = 400


def small_c_diagonal_terms(n_dim: int):
    """Exact diagonal coefficients (A_m, B_m) of the two-term expansion.

    The expansion reads  diag_m = A_m - i c B_m  with

        A_m = 2 sum_k  prod_k(m) / (k! (k+1)!)
        B_m = 2 sum_k  (k/(k+2)) prod_k(m) / (k! (k+1)!)

    The order-k product vanishes on modes m < k, so the sums to order
    n_dim - 1 are complete for every mode of the block.  They are evaluated
    in rational arithmetic, so A_0 = 2 and A_m = 0 for m >= 1 hold exactly.
    The table depends on no bandwidth; it is built once per process and
    shared, so both arrays are read-only.
    """
    n_dim = operator.index(n_dim)
    if n_dim > SMALL_N_MAX:
        raise DomainError(f"small-c block capped at n_dim = {SMALL_N_MAX}")
    return _small_c_terms(n_dim)


@functools.lru_cache(maxsize=16)
def _small_c_terms(n_dim: int):
    a = [Fraction(0)] * n_dim
    b = [Fraction(0)] * n_dim
    prod = [Fraction(1)] * n_dim
    for k in range(n_dim):
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


def small_c_operator(c: float, n_dim: int) -> OperatorMatrix:
    """Order-(c^0, c^1) truncation of the finite Fourier transform.

    Diagonal in the Legendre basis, on a block of at most 31 modes: A_m on
    the even degrees and -i c B_m on the odd ones, since A_m = 0 for odd m
    and B_m = 0 for even m hold exactly.
    """
    if c > SMALL_C_MAX:
        raise DomainError(f"small-c expansion restricted to c <= {SMALL_C_MAX}")
    a, b = small_c_diagonal_terms(n_dim)
    return OperatorMatrix(np.diag(a[0::2]), np.diag(-c * b[1::2]), 1j)


def hermite_values(m_count: int, x) -> np.ndarray:
    """Unit-norm Hermite functions h_0..h_{m-1} at x, shape (m_count,) + shape(x).

    Stable three-term recurrence
    h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1}.
    """
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


def hermite_distance(basis: ProlateBasis, n: int) -> float:
    """L2 distance between the dilated mode n and h_n on [-sqrt(c), sqrt(c)]."""
    half = math.sqrt(basis.c)
    rule = gauss_legendre_rule(HERMITE_QUAD)
    grid = half * rule.nodes
    weights = half * rule.weights
    diff = dilated_pswf(basis, n, grid) - hermite_values(n + 1, grid)[n]
    return float(math.sqrt(np.abs(weights @ diff**2)))


def _mode_count(basis: ProlateBasis, n_max: int) -> int:
    """n_max + 1, refused with IndexError unless modes 0..n_max are certified."""
    if not 0 <= n_max < basis.n_certified:
        raise IndexError(f"mode {n_max} not certified (need n < {basis.n_certified})")
    return n_max + 1


def oscillator_gaps(basis: ProlateBasis, n_max: int) -> np.ndarray:
    """|sqrt(c/2pi) lambda_n - 1| for n <= n_max, from ``basis.lambdas``.

    Every eigenvalue of the complete Fourier transform has modulus 1.
    """
    count = _mode_count(basis, n_max)
    return np.abs(math.sqrt(basis.c / (2 * math.pi)) * basis.lambdas[:count] - 1.0)


def bessel_i0_series(z: float) -> float:
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
        if term < 1e-16 * total:
            break
    return total


def bessel_limit_check(c: float, eps: float, lambda_ref: float) -> float:
    """Deviation |U(eps/c^2; lambda_ref) - I_0(sqrt(2 eps))|, O(1/c) at fixed eps."""
    xi = eps / (c * c)
    if not 0.0 <= xi < 2.0:
        raise DomainError(f"eps = {eps} maps to xi = {xi} outside [0, 2)")
    value = u_series_scalar(c, lambda_ref, xi)
    return abs(value - bessel_i0_series(math.sqrt(2.0 * eps)))


def wkb_value(c: float, lam: float, y: float) -> float:
    """Exponential approximation of U(y+1; lambda) away from y in {0, +-1}.

    A exp(+c sqrt(1-y^2)) branch with A = 1/sqrt(2 pi c); the prefactor uses
    1/sqrt(|y|) (branch conventions absorbed into the matching constant) and
    the spectral factor ((1 + s)/(1 - s))^(lambda/4c) with s = sqrt(1-y^2).
    The decaying exp(-c sqrt(1-y^2)) branch has coefficient 0.
    """
    if y <= -1.0 or y >= 0.0:
        raise DomainError("WKB form evaluated on y in (-1, 0) only")
    s = math.sqrt(1.0 - y * y)
    pref = 1.0 / (math.sqrt(abs(y)) * (1.0 - y * y) ** 0.25)
    spectral = ((1.0 + s) / (1.0 - s)) ** (lam / (4.0 * c))
    a_coeff = 1.0 / math.sqrt(2.0 * math.pi * c)
    return a_coeff * math.exp(c * s) * pref * spectral
