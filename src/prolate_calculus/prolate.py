"""Eigenpairs and eigenvalues of the prolate differential operator on [-1, 1].

The operator ``T = (1-x^2) d^2/dx^2 - 2x d/dx - c^2 x^2`` is pentadiagonal in
the orthonormal Legendre basis; its eigenvectors are the bandlimited prolate
functions psi_n with ``T psi_n = -chi_n psi_n``.  The same functions
diagonalize the finite Fourier transform (eigenvalue ``i^n lambda_n``) and the
sinc-kernel operator (eigenvalue ``mu_n = c/(2 pi) lambda_n^2``).

``solve_prolate`` diagonalizes T as two symmetric tridiagonal blocks, one per
parity of the Legendre degree, and computes every certified lambda_n and mu_n
eagerly from the eigenvectors: lambda_0 in closed form from F_c psi_0 at
x = 0, the rest from the eigenvalue-ratio recurrence of Xiao, Rokhlin &
Yarvin (Inverse Problems 17:805, 2001) and Osipov, Rokhlin & Xiao (Prolate
Spheroidal Wave Functions of Order Zero, 2013).  No quadrature is involved,
and each lambda_n carries a relative, not an absolute, accuracy.  Callers
read them as the arrays ``basis.lambdas`` and ``basis.mus``, whose length
N/2 refuses an uncertified mode with IndexError; the finite-Fourier
eigenvalue of psi_n is ``(1j) ** n * basis.lambdas[n]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConventionViolationError, DomainError, SpectralFailureError
from .legendre import (
    BandedSymMatrix,
    default_truncation,
    legendre_operator_diag,
    legendre_table,
    position_offdiag,
)

# Below this |psi_n(1)| the sign convention is read off the leading coefficient.
_ENDPOINT_RESOLVED = 1e-8


def assemble_heun_matrix(c: float, n_dim: int) -> BandedSymMatrix:
    """Legendre-basis matrix of T: diag(-n(n+1)) - c^2 * (x-multiplication)^2."""
    if c < 0:
        raise DomainError("bandwidth c must be >= 0")
    if n_dim < 4:
        raise DomainError("need dimension >= 4")
    a = position_offdiag(n_dim - 1)  # couplings inside the truncation
    sq_diag = np.zeros(n_dim)
    sq_diag[:-1] = a * a
    sq_diag[1:] += a * a
    bands = np.zeros((3, n_dim))
    bands[0] = legendre_operator_diag(n_dim) - c * c * sq_diag
    bands[2, : n_dim - 2] = -c * c * a[:-1] * a[1:]
    return BandedSymMatrix(bands)


def parity_block(bands: np.ndarray, parity: int) -> np.ndarray:
    """Dense tridiagonal block of T's banded matrix on the Legendre degrees of
    one parity: multiplication by x^2 moves the degree by 0 or 2."""
    diag = bands[0, parity::2]
    off = bands[2, parity::2][: diag.size - 1]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def sinc_kernel(c: float, x, t):
    """sin(c(x-t)) / (pi (x-t)) with the diagonal limit c/pi: the kernel of Q_c."""
    return (c / np.pi) * np.sinc((c / np.pi) * (np.asarray(x) - np.asarray(t)))


@dataclass(frozen=True, eq=False)
class ProlateBasis:
    """Truncated eigendecomposition of T at bandwidth c, with its eigenvalues.

    Columns of ``psi_coeffs`` are the orthonormal-Legendre coefficients of
    psi_n under the conventions: unit L2 norm, psi_n(1) > 0, chi ascending.
    Where |psi_n(1)| < 1e-8 the sign is read off the equivalent condition on
    the leading coefficient of psi_n's parity, which survives rounding.
    ``endpoint_plus`` holds psi_n(1); mode n has parity n, so psi_n(-1) is
    (-1)^n psi_n(1).
    Only modes n < N/2 are certified; the tail is truncation-polluted.
    ``lambdas`` and ``mus`` hold lambda_n and mu_n for the certified modes,
    each to a relative accuracy, so the exponentially small tail is resolved
    rather than buried under an absolute noise floor.  The basis is frozen
    and its arrays are read-only.
    """

    c: float
    n_dim: int
    psi_coeffs: np.ndarray
    chi: np.ndarray
    endpoint_plus: np.ndarray
    lambdas: np.ndarray
    mus: np.ndarray

    @property
    def n_certified(self) -> int:
        return self.n_dim // 2


def _legendre_at_zero(n_dim: int) -> np.ndarray:
    """Pbar_k(0) for k < n_dim in closed form, without legendre_table's degree loop.

    Zero for odd k; P_2m(0) = prod_{j<=m} -(2j-1)/(2j).
    """
    values = np.zeros(n_dim)
    j = np.arange(1, (n_dim + 1) // 2)
    values[0::2] = np.cumprod(np.concatenate(([1.0], -(2 * j - 1) / (2 * j))))
    return values * np.sqrt((2 * np.arange(n_dim) + 1) / 2.0)


def _fourier_magnitudes(c: float, psi_coeffs: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """lambda_n for the certified modes, each to a relative accuracy.

    lambda_0 comes from F_c psi_0 at x = 0: the integral sqrt(2) a_0 of psi_0
    equals lambda_0 psi_0(0).  Consecutive ratios r_n = lambda_{n+1}/lambda_n
    come from pairing the derivative of F_c psi_n = i^n lambda_n psi_n with
    psi_{n+1} (Xiao, Rokhlin & Yarvin 2001; Osipov, Rokhlin & Xiao 2013):

        lambda_n <psi_{n+1}, psi_n'> = -c lambda_{n+1} <psi_{n+1}, x psi_n>.

    The same identity with n and n+1 swapped, integrated by parts, removes
    the derivative: with B = <psi_{n+1}, x psi_n> and P = psi_{n+1}(1) psi_n(1),
    2 P r = c B (1 - r^2).  Its positive root is taken in the cancellation-free
    form below, so small ratios keep their relative accuracy as c -> 0.
    """
    n_dim = psi_coeffs.shape[0]
    m = n_dim // 2
    lam0 = math.sqrt(2.0) * psi_coeffs[0, 0] / (_legendre_at_zero(n_dim) @ psi_coeffs[:, 0])
    lower = psi_coeffs[:, : m - 1]
    a = position_offdiag(n_dim - 1)[:, None]
    x_lower = np.zeros_like(lower)
    x_lower[1:] = a * lower[:-1]
    x_lower[:-1] += a * lower[1:]
    cb = c * np.einsum("ij,ij->j", psi_coeffs[:, 1:m], x_lower)
    p = plus[1:m] * plus[: m - 1]
    steps = np.concatenate(([lam0], cb / (p + np.sqrt(p * p + cb * cb))))
    valid = np.isfinite(steps) & (steps > 0)
    if c == 0:
        valid[1:] = steps[1:] == 0  # F_0 has rank one
    if not np.all(valid):
        n = int(np.argmin(valid))
        what = "lambda_0" if n == 0 else f"lambda_{n}/lambda_{n - 1}"
        raise ConventionViolationError(
            f"{what} = {steps[n]:.3e} is not finite and positive under the sign "
            f"convention psi_n(1) > 0 (psi_{n}(1) = {plus[n]:.3e})"
        )
    return np.cumprod(steps)


def solve_prolate(c: float, n_dim: int | None = None) -> ProlateBasis:
    """Diagonalize T by parity and package the eigenpairs with lambda_n, mu_n.

    Multiplication by x^2 moves the Legendre degree by 0 or 2, so T splits
    into two symmetric tridiagonal blocks, one on even degrees and one on odd.
    Mode n has parity n, so its off-parity coefficients are exactly zero.
    """
    if c < 0:
        raise DomainError("bandwidth c must be >= 0")
    if n_dim is None:
        n_dim = default_truncation(c)
    bands = assemble_heun_matrix(c, n_dim).bands
    chi = np.empty(n_dim)
    v = np.zeros((n_dim, n_dim), order="F")  # column-major: each psi_n is contiguous
    for parity in (0, 1):
        try:
            w, h = np.linalg.eigh(parity_block(bands, parity))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise SpectralFailureError(f"parity-block eigensolve failed: {exc}") from exc
        # Block eigenvalues are -chi; ascending chi reverses LAPACK's order.
        chi[parity::2] = -w[::-1]
        v[parity::2, parity::2] = h[:, ::-1]
    if np.any(np.diff(chi) <= 0):
        raise SpectralFailureError("eigenvalues chi_n not strictly increasing")
    norms = np.sqrt((2 * np.arange(n_dim) + 1) / 2.0)
    plus = norms @ v
    # psi_n(1) > 0 is equivalent to a positive leading coefficient of psi_n's
    # parity (a_0 for even n, a_1 for odd n; see F_c psi_n at x = 0).  That
    # coefficient decides where psi_n(1) is too small to keep its sign under
    # rounding, as happens to the low modes at large c.
    sign = np.where(np.abs(plus) >= _ENDPOINT_RESOLVED, plus, v[0] + v[1])
    sign = np.where(sign >= 0, 1.0, -1.0)
    v = v * sign
    plus = plus * sign
    lambdas = _fourier_magnitudes(c, v, plus)
    mus = c / (2 * np.pi) * lambdas**2
    for array in (v, chi, plus, lambdas, mus):
        array.flags.writeable = False
    return ProlateBasis(
        c=float(c),
        n_dim=int(n_dim),
        psi_coeffs=v,
        chi=chi,
        endpoint_plus=plus,
        lambdas=lambdas,
        mus=mus,
    )


def pswf_eval(basis: ProlateBasis, n: int, x):
    """psi_n(x) for x in [-1, 1] by Legendre-series summation."""
    if not 0 <= n < basis.n_dim:
        raise IndexError(f"mode {n} outside 0..{basis.n_dim - 1}")
    x = np.asarray(x, dtype=float)
    table = legendre_table(basis.n_dim - 1, x)
    return basis.psi_coeffs[:, n] @ table
