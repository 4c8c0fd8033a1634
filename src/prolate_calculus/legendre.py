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
# The Nystrom oracle's grid: at most MAX_NODES Gauss nodes, run at c <= MAX_C,
# and the Nystrom eigenvectors beyond the mu ~ 1 cluster that its Ritz span
# keeps.  They live here, not in ``nystrom``, so the CLI states them in its
# help without loading the solver.
MAX_NODES = 400
MAX_C = 340.0
RITZ_BUFFER = 24
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


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
        """A v for a vector of length dim, or A V for a (dim, m) array of
        columns; each column of A V equals, bit for bit, A applied to it alone."""
        bands = self.bands.reshape(self.bands.shape + (1,) * (np.ndim(v) - 1))
        out = bands[0] * v
        for k in range(1, self.half_bandwidth + 1):
            b = bands[k, : self.dim - k]
            out[k:] += b * v[:-k]
            out[:-k] += b * v[k:]
        return out


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


def half_rule(rule: QuadRule) -> tuple[np.ndarray, np.ndarray]:
    """The nodes y >= 0 of a Gauss rule and their weights v, the centre weight
    halved when the order is odd.

    The full rule's sum of an even f is then 2 sum v f(y), and a kernel
    sum over the full rule folds onto y through K(x, t) +/- K(x, -t).
    """
    y = rule.nodes[rule.order // 2 :]
    v = rule.weights[rule.order // 2 :].copy()
    if rule.order % 2:
        v[0] *= 0.5
    return y, v


def _legendre_value_and_derivative(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) by the classical three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def legendre_table(n_max: int, x) -> np.ndarray:
    """Table of orthonormal Legendre values, shape (n_max+1,) + shape(x).

    Points with |x| > 1 (beyond a 1e-14 rounding margin) are refused.  The
    three-term recurrence costs one pass over the degrees whatever the size
    of x, so callers evaluate every point they need in one call.  A scalar x
    runs the recurrence on Python floats.  An array x first sets up the
    products' coefficients [(n - 1), (2n - 1) x] of every degree; each degree
    then multiplies its pair by the two rows below it, subtracts and divides
    by n in place, three numpy calls.  Both paths are the same IEEE
    operations in the same order, ((2n - 1) x P_{n-1} - (n - 1) P_{n-2}) / n,
    so a value, and the sign of a zero, does not depend on the shape it was
    asked in.
    """
    x = np.asarray(x, dtype=float)
    norms = np.sqrt((2 * np.arange(n_max + 1) + 1) / 2.0)
    if x.ndim == 0:
        t = float(x)
        if abs(t) > 1.0 + 1e-14:
            raise DomainError("evaluation point outside [-1, 1]")
        values = [1.0, t][: n_max + 1]
        for n in range(2, n_max + 1):
            values.append(((2 * n - 1) * t * values[n - 1] - (n - 1) * values[n - 2]) / n)
        return np.multiply(values, norms)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise DomainError("evaluation point outside [-1, 1]")
    table = np.empty((n_max + 1,) + x.shape)
    table[0] = 1.0
    if n_max >= 1:
        table[1] = x
    # coef[n] holds [(n - 1), (2n - 1) x], so one multiply by the window
    # [P_{n-2}, P_{n-1}] gives both products of degree n's step.
    degrees = np.arange(n_max + 1, dtype=float).reshape((-1,) + (1,) * x.ndim)
    coef = np.empty((n_max + 1, 2) + x.shape)
    coef[:, 0] = degrees - 1.0
    np.multiply(2.0 * degrees - 1.0, x, out=coef[:, 1])
    products = np.empty((2,) + x.shape)
    older, newer = products
    for n, (row, step) in enumerate(zip(table[2:], coef[2:]), 2):
        np.multiply(step, table[n - 2 : n], out=products)
        np.subtract(newer, older, out=row)
        np.divide(row, n, out=row)
    table *= norms.reshape((-1,) + (1,) * x.ndim)
    return table


def position_offdiag(n_terms: int) -> np.ndarray:
    """Couplings a_n = (n+1)/sqrt((2n+1)(2n+3)) of x between Pbar_n, Pbar_n+1."""
    n = np.arange(n_terms, dtype=float)
    return (n + 1) / np.sqrt((2 * n + 1) * (2 * n + 3))


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
