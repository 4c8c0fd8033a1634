"""Orthonormal Legendre basis machinery on [-1, 1].

Everything downstream works in the basis ``Pbar_n = sqrt((2n+1)/2) * P_n``,
which makes multiplication by x and the Legendre differential operator
symmetric banded matrices and turns eigensolves into standard symmetric
problems.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RuleTooLargeError

MAX_RULE_ORDER = 1_000_000
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f):
        """Integrate a callable or an array of node samples."""
        values = f(self.nodes) if callable(f) else np.asarray(f)
        return values @ self.weights


@dataclass(frozen=True)
class BandedSymMatrix:
    """Symmetric banded matrix stored in lower form.

    ``bands[k, i]`` holds entry ``A[i + k, i]`` for ``0 <= k <= half_bandwidth``;
    symmetry is implied by storage and the trailing ``k`` slots of each band
    are zero.
    """

    dim: int
    half_bandwidth: int
    bands: np.ndarray

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for k in range(self.half_bandwidth + 1):
            idx = np.arange(self.dim - k)
            a[idx + k, idx] = self.bands[k, : self.dim - k]
            if k:
                a[idx, idx + k] = self.bands[k, : self.dim - k]
        return a

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.bands[0] * v
        for k in range(1, self.half_bandwidth + 1):
            b = self.bands[k, : self.dim - k]
            out[k:] += b * v[:-k]
            out[:-k] += b * v[k:]
        return out


@dataclass(frozen=True)
class CoeffVector:
    """A function on [-1,1] as orthonormal-Legendre coefficients."""

    coeffs: np.ndarray

    @property
    def n_coeffs(self) -> int:
        return self.coeffs.shape[0]

    def norm(self) -> float:
        # Parseval: the L2 norm on [-1,1] equals the Euclidean coefficient norm.
        return float(np.linalg.norm(self.coeffs))

    def evaluate(self, x, extrapolate: bool = False):
        table = legendre_table(self.n_coeffs - 1, x, extrapolate=extrapolate)
        return self.coeffs @ table

    def to_grid(self, rule: QuadRule) -> "GridFunction":
        return GridFunction(rule=rule, values=self.evaluate(rule.nodes))


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function at the nodes of a quadrature rule."""

    rule: QuadRule
    values: np.ndarray

    def to_coeffs(self, n_coeffs: int) -> CoeffVector:
        table = legendre_table(n_coeffs - 1, self.rule.nodes)
        coeffs = table @ (self.rule.weights * self.values)
        return CoeffVector(coeffs=coeffs)


def gauss_legendre_rule(order: int) -> QuadRule:
    """Gauss-Legendre rule of the given order, built once per process.

    The rule is shared by every caller that asks for the same order, so its
    ``nodes`` and ``weights`` are read-only.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise DomainError(f"quadrature order must be an integer, got {order!r}") from None
    if order < 1:
        raise DomainError(f"quadrature order must be >= 1, got {order}")
    if order > MAX_RULE_ORDER:
        raise RuleTooLargeError(
            f"order {order} exceeds {MAX_RULE_ORDER}; node separation underflows"
        )
    return _build_rule(order)


@functools.lru_cache(maxsize=128)
def _build_rule(order: int) -> QuadRule:
    """Gauss-Legendre rule by Newton iteration from Chebyshev initial guesses."""
    if order == 1:
        x, w = np.zeros(1), np.full(1, 2.0)
    else:
        k = np.arange(order)
        x = -np.cos((4 * k + 3) * np.pi / (4 * order + 2))
        for _ in range(_NEWTON_MAX_ITER):
            p, dp = _legendre_value_and_derivative(order, x)
            dx = p / dp
            x -= dx
            if np.max(np.abs(dx)) < _NEWTON_TOL:
                break
        _, dp = _legendre_value_and_derivative(order, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        # Exact +/- symmetry by construction.
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return QuadRule(order=order, nodes=x, weights=w)


def _legendre_value_and_derivative(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) by the classical three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def legendre_table(n_max: int, x, extrapolate: bool = False) -> np.ndarray:
    """Table of orthonormal Legendre values, shape (n_max+1,) + shape(x).

    The recurrence continues analytically outside [-1,1]; that use is only
    legitimate for entire functions and must be requested explicitly.
    """
    x = np.asarray(x, dtype=float)
    if not extrapolate and np.any(np.abs(x) > 1.0 + 1e-14):
        raise DomainError("evaluation point outside [-1, 1]")
    table = np.empty((n_max + 1,) + x.shape)
    table[0] = 1.0
    if n_max >= 1:
        table[1] = x
    for n in range(2, n_max + 1):
        table[n] = ((2 * n - 1) * x * table[n - 1] - (n - 1) * table[n - 2]) / n
    norms = np.sqrt((2 * np.arange(n_max + 1) + 1) / 2.0)
    return table * norms.reshape((-1,) + (1,) * x.ndim)


def eval_legendre_orthonormal(n_max: int, x: float) -> np.ndarray:
    """Values Pbar_0(x) .. Pbar_nmax(x); Pbar_n(1) = sqrt((2n+1)/2)."""
    if abs(x) > 1.0:
        raise DomainError(f"|x| = {abs(x)} > 1")
    return legendre_table(n_max, np.asarray(float(x)))


def position_offdiag(n_terms: int) -> np.ndarray:
    """Couplings a_n = (n+1)/sqrt((2n+1)(2n+3)) of x between Pbar_n, Pbar_n+1."""
    n = np.arange(n_terms, dtype=float)
    return (n + 1) / np.sqrt((2 * n + 1) * (2 * n + 3))


def position_matrix(n_dim: int) -> BandedSymMatrix:
    """Matrix of multiplication by x in the orthonormal Legendre basis."""
    if n_dim < 2:
        raise DomainError("position matrix needs dimension >= 2")
    bands = np.zeros((2, n_dim))
    bands[1, : n_dim - 1] = position_offdiag(n_dim - 1)
    return BandedSymMatrix(dim=n_dim, half_bandwidth=1, bands=bands)


def legendre_operator_diag(n_dim: int) -> np.ndarray:
    """Eigenvalues -n(n+1) of (1-x^2) d^2/dx^2 - 2x d/dx on Pbar_n."""
    if n_dim < 1:
        raise DomainError("dimension must be >= 1")
    n = np.arange(n_dim, dtype=float)
    return -n * (n + 1)


def default_truncation(c: float) -> int:
    """Default basis size for bandwidth c.

    Legendre coefficients of the eigenfunctions decay super-exponentially
    beyond index ~ 2c/pi; the margin keeps the tail below 1e-14.
    """
    return max(64, math.ceil(2 * c) + 40)
