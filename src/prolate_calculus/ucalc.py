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
for one xi in (-2, 2) over the checked modes n < ``legendre.CHECKED_MODES``
(n <= 8), "spectral" goes through the eigenbasis for a scalar xi or a
whole xi-grid in (0, 2] and returns all N modes.  Their agreement on the
checked modes is the sharpest numerical test of the translation property,
and the translation suite's record.  The F_c / Q_c reconstructions read
neither path: they integrate the Legendre table at -1 + xi against real
weights and divide by psi_n(-1) after (``transforms``), sharing only
``ratio_denominators``, the one refusal of a psi_n(-1) that rounds to 0.
The series runs only where it is itself under test (translation and
limits-large suites, and the tests).

``u_series_many`` sums the series over an array of spectral points, in the
scaled form t_k = xi^k U_k / k!, and returns the sums with their error
bounds.  It computes the terms in blocks, ``_BLOCK`` rows first and after
that only the rows before the earliest possible stop, each block by one
call of ``_series_rows``, the one unrolling of the recurrence, from the
last three terms of the block before; it applies its stop rule to a whole
block at a time, with the same result, bit for bit, as a term-by-term loop.
``u_series_scalar`` returns the bare float at one point.

The module sits below ``prolate``, whose ``ProlateBasis`` it names in
annotations only, so ``prolate`` may call the series.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, OutOfRangeError, SeriesStallError
from .legendre import CHECKED_MODES, legendre_table

if TYPE_CHECKING:
    from .prolate import ProlateBasis

K_MAX = 2000
_RUN_LENGTH = 20  # consecutive small terms required before stopping
# Rows of the first block of terms that u_series_many computes, before its
# stop rule first runs; it computes each later block only up to the
# earliest possible stop.  The translation suite's series calls use 67.4
# terms on average (34 to 114 over the 120 calls of three benchmark
# passes).  With a first block of 64 they compute 73.1 terms in 1.73
# blocks.  Timed in one process on 80 such calls (c in [5, 20], xi in
# [0.05, 1.5]), that is 16% less time than fixed blocks of 32 (83.5 terms
# in 2.61 blocks); first blocks of 32 and 96 save 7% and 3%, and 128 costs
# 21% more.
_BLOCK = 64
# Relative term size at which boundary_ratios' series path stops summing.
_SERIES_TOL = 1e-13
# Extended precision where available; the cancellation bound below uses the
# actual epsilon, so platforms where longdouble == double just report larger
# bounds instead of silently losing digits.
SERIES_DTYPE = np.longdouble


def _series_rows(c: float, lam, xi: float, window, start: int, rows: int):
    """The scaled terms t_k = xi^k U_k(lambda) / k! for k = start..start+rows-1,
    as rows 3.. of a (3 + rows, len(lam)) array whose first three rows are
    ``window``, the terms [t_{start-3}, t_{start-2}, t_{start-1}] before them
    (zeros at start = 0, where t_0 = 1 is set, not computed).  Its last three
    rows are the window of the next block, so blocks computed one after the
    other give t_0, t_1, ... in order.

    Uses the recurrence rewritten for t_k directly,

        t_{k+1} = xi / (2 (k+1)^2) * [ (lambda + c^2 + k(k+1)) t_k
                                       - 2 c^2 xi t_{k-1} + c^2 xi^2 t_{k-2} ],

    which never overflows for |xi| < 2 since t_k ~ (xi/2)^k.  Terms are
    ``SERIES_DTYPE``.  A (rows, 3, points) array holds the step coefficients
    [c^2 xi^2, -2 c^2 xi, lambda + c^2 + k(k+1)], so that one multiply of a
    row of it by the window [t_{k-2}, t_{k-1}, t_k] above the new row gives
    the three products; a step then sums them as
    (d t_k + (-2 c^2 xi) t_{k-1}) + c^2 xi^2 t_{k-2} and scales the sum,
    four numpy calls per term.  Negation is exact and a + (-b) is a - b in
    IEEE arithmetic, signed zeros included, so each term has the bits of the
    formula read left to right, however the terms are split into blocks.
    """
    dtype = SERIES_DTYPE
    lam = np.asarray(lam, dtype=dtype)
    xi = dtype(xi)
    c2 = dtype(c) * dtype(c)
    buf = np.empty((3 + rows, lam.size), dtype=dtype)
    buf[:3] = window
    first = 3
    if start == 0:
        buf[3] = 1  # t_0 is set, not computed
        first = 4
    # Row i >= first of buf holds t_{k+1}, from step k = start + i - 4.
    k = np.arange(start + first - 4, start + rows - 1, dtype=dtype)
    scale = xi / (2 * (k + 1) ** 2)
    coef = np.empty((k.size, 3, lam.size), dtype=dtype)
    coef[:, 0] = c2 * xi * xi
    coef[:, 1] = -(2 * c2 * xi)
    np.add(lam + c2, (k * (k + 1))[:, None], out=coef[:, 2])
    products = np.empty((3, lam.size), dtype=dtype)
    p_m2, p_m1, p_0 = products
    for i, out, a, step in zip(range(first, buf.shape[0]), buf[first:], scale, coef):
        np.multiply(step, buf[i - 3 : i], out=products)
        np.add(p_0, p_m1, out=out)
        out += p_m2
        out *= a
    return buf


def u_series_many(c: float, lambdas, xi: float, tol: float = 1e-12):
    """Sum U(xi; lambda) adaptively over an array of spectral points.

    Stops once ``_RUN_LENGTH`` consecutive terms fall below tol times the
    running sum for every point; single-term smallness is unreliable because
    the decay ratio approaches 1 as |xi| -> 2.  Every point's run reaches
    that length at row r exactly when no point had a term that was not
    small in the last ``_RUN_LENGTH`` rows, so the rule reads one flag per
    row, and stops at the same term, with the same running sums, as a
    term-by-term loop.  The terms are computed here in blocks, each by one
    ``_series_rows`` call from the last three terms of the block before:
    ``_BLOCK`` rows first, and after that only the rows before the earliest
    term at which the series could stop, so a call computes
    max(min(``_BLOCK``, ``K_MAX`` + 1), terms_used) terms.  A series that
    has not stopped after the ``K_MAX`` + 1 terms t_0..t_{K_MAX} raises
    SeriesStallError, which names that count.

    Returns (values, terms_used, tail, cancellation): ``tail`` bounds the
    dropped tail geometrically with ratio |xi|/2, and ``cancellation`` is
    eps times the largest intermediate term, the floor set by
    alternating-sum cancellation, plus half an ulp of each returned value,
    for the rounding of the extended-precision sum to double.  So
    tail + cancellation bounds the error of the returned double, and two
    sums of one series that stop at different terms differ by at most the
    sum of their two bounds.  A sum or bound past the double range raises
    OutOfRangeError.
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
    # Index of the last row where some point's term was not small; with no
    # points every run is long enough at once, so the first term stops.
    last_big = -1 if lam.size else -_RUN_LENGTH
    n_terms = K_MAX + 1
    window = np.zeros((3, lam.size), dtype=SERIES_DTYPE)
    start, rows = 0, _BLOCK
    while start < n_terms:
        buf = _series_rows(c, lam, xi, window, start, min(rows, n_terms - start))
        block, window = buf[3:], buf[-3:]
        # add.accumulate adds in order, so each row is the loop's `total += term`.
        sums = np.add.accumulate(np.vstack((total, block)))[1:]
        size = np.abs(block)
        small = size <= tol * np.maximum(np.abs(sums), 1e-300)
        index = np.arange(start, start + block.shape[0])
        last = np.maximum.accumulate(np.where(small.all(axis=1), last_big, index))
        done = index - last >= _RUN_LENGTH
        if done.any():
            stop = int(np.argmax(done))
            np.maximum(max_term, size[: stop + 1].max(axis=0), out=max_term)
            tail = size[stop] * ratio / (1.0 - ratio)
            cancel = max_term * eps
            largest = np.maximum(np.abs(sums[stop]), np.maximum(tail, cancel))
            if not np.all(largest <= np.finfo(float).max):
                raise OutOfRangeError(
                    f"U(xi; lambda) at xi = {xi}, c = {c:g} or its error bound exceeds the double range"
                )
            values = np.asarray(sums[stop], dtype=float)
            return (
                values,
                start + stop + 1,
                np.asarray(tail, dtype=float),
                np.asarray(cancel, dtype=float) + 0.5 * np.spacing(np.abs(values)),
            )
        np.maximum(max_term, size.max(axis=0), out=max_term)
        total = sums[-1]
        last_big = int(last[-1])
        start += block.shape[0]
        rows = last_big + _RUN_LENGTH + 1 - start
    raise SeriesStallError(f"series did not converge within {n_terms} terms at xi={xi}")


def u_series_scalar(c: float, lam: float, xi: float) -> float:
    """U(xi; lambda) for a single spectral point, summed with tol = 1e-14;
    xi must lie in (-2, 2)."""
    return float(u_series_many(c, [lam], xi, tol=1e-14)[0][0])


def boundary_ratios(basis: ProlateBasis, xi: float | np.ndarray, method: str = "spectral"):
    """Per-mode factors psi_n(-1 + xi) / psi_n(-1).

    "spectral" takes a scalar or 1-D xi in (0, 2] and returns all N modes,
    shape (n_dim,) + shape(xi), from one Legendre table and one matrix
    product.  The path raises OutOfRangeError where some psi_n(-1) rounds to
    0 (c = 40; ``ratio_denominators``).  "series" sums U(xi; lambda) at
    lambda = -chi_n for one scalar xi in (-2, 2) over the checked modes,
    shape (CHECKED_MODES,); the slowest mode summed sets the stop term of
    all, so it sums no other mode.  A basis that certifies fewer than those
    modes (N < 18) and any other method raise DomainError.
    """
    if method == "spectral":
        return _spectral_ratios(basis, xi)
    if method != "series":
        raise DomainError(f"unknown method {method!r}; choose 'series' or 'spectral'")
    if np.ndim(xi) != 0:
        raise DomainError("the series path takes one scalar xi")
    if basis.n_certified < CHECKED_MODES:
        raise DomainError(
            f"N = {basis.n_dim} certifies {basis.n_certified} modes; the series path sums "
            f"modes n <= {CHECKED_MODES - 1} and needs N >= {2 * CHECKED_MODES}"
        )
    return u_series_many(basis.c, -basis.chi[:CHECKED_MODES], xi, tol=_SERIES_TOL)[0]


def ratio_denominators(basis: ProlateBasis) -> np.ndarray:
    """psi_n(-1) of every mode, the denominators of the spectral ratios
    psi_n(-1 + xi) / psi_n(-1), which the spectral path and the F_c and Q_c
    reconstructions divide by: (-1)^n psi_n(1), as mode n has parity n.
    Raises OutOfRangeError where some psi_n(-1) rounds to 0 (c = 40)."""
    if not np.all(basis.endpoint_plus):
        n = int(np.argmin(np.abs(basis.endpoint_plus)))
        raise OutOfRangeError(
            f"psi_{n}(-1) rounds to 0 at c = {basis.c:g}; the spectral ratios "
            "psi_n(-1 + xi) / psi_n(-1) are not representable"
        )
    return (-1.0) ** np.arange(basis.n_dim) * basis.endpoint_plus


def _spectral_ratios(basis: ProlateBasis, xi):
    """psi_n(-1 + xi) / psi_n(-1), shape (n_modes,) + shape(xi), xi in (0, 2]."""
    points = np.asarray(xi, dtype=float)
    if points.ndim > 1:
        raise DomainError(f"xi must be a scalar or a 1-D array, got {points.ndim} dims")
    if not np.all((points > 0.0) & (points <= 2.0)):
        raise DomainError("spectral ratio path needs every xi in (0, 2]")
    scale = ratio_denominators(basis).reshape((-1,) + (1,) * points.ndim)
    table = legendre_table(basis.n_dim - 1, -1.0 + points)
    return (basis.psi_coeffs.T @ table) / scale
