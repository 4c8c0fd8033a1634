"""Finite Fourier and sinc-kernel operators, direct and reconstructed.

Direct versions collocate the defining integral kernels with tensor
Gauss-Legendre quadrature in the orthonormal Legendre basis, folded by parity
onto the nodes y >= 0, so entries of mixed parity are exactly 0.  Reconstructed
versions assemble the same operators as weighted integrals of the boundary
translation family over xi: the Fourier weight is ``exp(ic(1-xi))`` on [0,2]
(or its reflected fold onto [0,1]) and the sinc weight is ``sin(c xi)/(pi xi)``
likewise.  Agreement of the two routes is the package's central check.

Both routes check their own quadrature by doubling its order, and a job
makes one pass per route for every operator it needs at one (N, q).  A
direct pass (``direct_operators``) evaluates each kernel on the nodes
y >= 0 of both of its rules, with the weighted Legendre rows sliced from one
table over those nodes, so F_c and Q_c at one (c, N) share the rules and the
recurrence.  A reconstruction pass (``reconstructions``) evaluates one
Legendre table at -1 + xi over the nodes of the two xi rules of every
variant it builds, and integrates it against real weights: each mode's
integral of w(xi) psi_n(-1 + xi) / psi_n(-1) is a moment product, the
table's rows on one rule times a few real weight columns (the weight's
real and imaginary parts), then psi_n's coefficients, then a division by
psi_n(-1).  No (modes x xi) ratio table and no complex array is built,
and the spectral ratios of ``ucalc.boundary_ratios`` are not read.  Every
product keeps the operands it had when each rule built its own table,
and each drift check runs in the order the operators or variants are
named, so a shared pass gives the same bits and the same refusals as one
pass per operator.  Both passes check every operator they build before
they return the list of them.

F_c and Q_c are functions of the self-adjoint prolate operator T, which
commutes with the reflection x -> -x, so each of the three is two real
half-size blocks in the real orthonormal Legendre basis (``OperatorMatrix``):
entries of mixed parity are 0, and F_c, whose eigenvalue on psi_n is
i^n lambda_n, is a real block on the even degrees and i times a real block
on the odd ones.  Every layer works on the blocks, and no complex N x N
array is built.  The direct route folds each kernel onto y >= 0
(``_resolved_matrices``): F_c's folded kernel sums are 2 Re and 2 Im of
exp(icyy'), bit for bit the sums K + conj K and (K - conj K) / i, so each
block is a real product.  A reconstruction sums its modes per block, the
even modes into the even block and the odd modes into the odd one, each a
real half-size product; of each mode's integral it keeps, after the drift
check, the part the exact operator has (real, or imaginary for the odd
modes of F_c).  The folded variant's integrals have no other part, since
the reflected weight cancels it exactly, so only the full variant loses
the quadrature's and rounding's part.  Both routes return exactly
symmetric blocks: after its drift check, each replaces a block B by
(B + B^T) / 2.  That removes rounding-level asymmetry only (max|B - B^T|
was at most 5e-16 at the default N, at seven c from 0.5 to 20) and moves
no refusal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError, QuadratureUnresolvedError, XiQuadratureUnresolvedError
from .legendre import gauss_legendre_rule, half_rule, legendre_table
from .prolate import ProlateBasis, sinc_kernel
# boundary_ratios is bound here, though no reconstruction calls it, for the
# benchmark's tracer (perfbench/bench_trace.py), whose smoke test reads it
# off this module.
from .ucalc import boundary_ratios, ratio_denominators  # noqa: F401

_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class OperatorMatrix:
    """An operator that commutes with x -> -x, in the orthonormal Legendre
    basis, as its two real parity blocks: ``even`` on the degrees 0, 2, ...
    and ``odd`` on 1, 3, ...; the matrix is ``even`` on the even-even entries,
    ``odd_phase`` times ``odd`` on the odd-odd ones and 0 elsewhere.
    ``odd_phase`` is 1 for T and Q_c and 1j for F_c.  The transforms build F_c
    and Q_c with each block exactly equal to its transpose."""

    even: np.ndarray
    odd: np.ndarray
    odd_phase: complex = 1

    @property
    def n_dim(self) -> int:
        return len(self.even) + len(self.odd)

    @property
    def entries(self) -> np.ndarray:
        """The complex n_dim x n_dim matrix, assembled on each read, with +0.0
        in every part the blocks do not set; for readers outside the library."""
        entries = np.zeros((self.n_dim,) * 2, dtype=complex)
        entries.real[0::2, 0::2] = self.even
        (entries.imag if self.odd_phase == 1j else entries.real)[1::2, 1::2] = self.odd
        return entries

    def leading(self, size: int) -> OperatorMatrix:
        """The operator on the Legendre degrees below ``size``."""
        even, odd = (size + 1) // 2, size // 2
        return OperatorMatrix(self.even[:even, :even], self.odd[:odd, :odd], self.odd_phase)

    def norm(self) -> float:
        """Frobenius norm, from the blocks': the phase has modulus 1."""
        return float(np.hypot(np.linalg.norm(self.even), np.linalg.norm(self.odd)))

    def __sub__(self, other: OperatorMatrix) -> OperatorMatrix:
        """A - B, block by block, for two operators of one odd phase."""
        return OperatorMatrix(self.even - other.even, self.odd - other.odd, self.odd_phase)


def _fourier_fold(c: float, y, t):
    """F_c's kernel K = exp(icyy') folded onto the nodes y >= 0: the real
    arrays 2 Re K and 2 Im K.  They are the sums K(y, y') + K(y, -y') and
    (K(y, y') - K(y, -y')) / i bit for bit, since K(y, -y') is conj K (a
    sign change rounds to nothing) and x + x = 2x exactly.
    """
    kernel = np.exp(1j * c * y * t)
    return 2.0 * kernel.real, 2.0 * kernel.imag


def _sinc_fold(c: float, y, t):
    """Q_c's kernel folded onto the nodes y >= 0: K(y, y') +- K(y, -y')."""
    k_plus, k_minus = sinc_kernel(c, y, t), sinc_kernel(c, y, -t)
    return k_plus + k_minus, k_plus - k_minus


# Operator name -> its kernel fold and the phase of its odd block, as
# ``direct_operators`` names them.
_FOLDS = {"Fc": (_fourier_fold, 1j), "Qc": (_sinc_fold, 1)}


def _resolved_matrices(c: float, folds, n_dim: int, q_order: int) -> list[OperatorMatrix]:
    """The operators <Pbar_m, K Pbar_n> of the kernels K at bandwidth c by
    tensor Gauss quadrature, checked for under-resolution by order doubling:
    the rules of q_order and 2 q_order points each give the parity blocks
    per kernel, from one Legendre table over the nodes of both rules, and
    the finer ones are returned, each exactly symmetrised.  The drift checks
    run in the order of ``folds``, so the first kernel that drifts is the
    one refused; a drift is the largest over both blocks, as the entries of
    mixed parity are exact zeros on both rules.

    Each kernel must satisfy K(-x, -t) = K(x, t), so its operator commutes
    with x -> -x, and comes as (fold, p), p the odd block's phase:
    fold(c, y, y') returns the real arrays K(y, y') + K(y, -y') and
    (K(y, y') - K(y, -y')) / p on the rule's nodes y >= 0.  The even block
    is 2 A_e (K(y, y) + K(y, -y)) A_e^T and the odd block
    2 A_o (K(y, y) - K(y, -y)) A_o^T / p, with A the weighted Legendre rows
    of that parity.
    """
    halves = [half_rule(gauss_legendre_rule(q)) for q in (q_order, 2 * q_order)]
    table = legendre_table(n_dim - 1, np.concatenate([y for y, _ in halves]))
    per_rule = []
    end = 0
    for y, v in halves:
        pw = table[:, end : end + y.size] * v
        end += y.size
        per_rule.append([_folded_blocks(fold(c, y[:, None], y[None, :]), pw) for fold, _ in folds])
    # Free the table before the drift check allocates its own arrays, which
    # can then reuse its memory; held, the rules' arrays slow F_c.
    del table, pw
    resolved = []
    for (_, phase), coarse, fine in zip(folds, *per_rule):
        drift = float(np.max([np.max(np.abs(f - g), initial=0.0) for f, g in zip(fine, coarse)]))
        if not drift <= _DRIFT_TOL:  # also refuses a NaN drift
            raise QuadratureUnresolvedError(
                f"entries drift by {drift:.3e} when doubling q_order={q_order}"
            )
        resolved.append(OperatorMatrix(*map(_symmetrised, fine), phase))
    return resolved


def _folded_blocks(kernels, pw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One kernel's (even, odd) blocks on one rule: real products of its
    folded ``kernels`` on the nodes y >= 0 and the weighted Legendre rows
    ``pw`` there.  The kernels are freed on return, before the next kernel
    is evaluated."""
    k_even, k_odd = kernels
    even, odd = pw[0::2], pw[1::2]
    return 2.0 * (even @ k_even @ even.T), 2.0 * (odd @ k_odd @ odd.T)


def _symmetrised(block: np.ndarray) -> np.ndarray:
    """(B + B^T) / 2: exactly symmetric, since a + b and b + a are the same
    bits, and each entry that already equals its mirror keeps its bits."""
    return 0.5 * (block + block.T)


def _q_order(c: float, n_dim: int) -> int:
    """Tensor-quadrature order: the resolution floor n_dim + ceil(c) + 8."""
    if c < 0:
        raise DomainError("bandwidth c must be >= 0")
    return n_dim + math.ceil(c) + 8


def direct_operators(c: float, n_dim: int, names: tuple[str, ...]) -> list[OperatorMatrix]:
    """The direct operators ``names`` ("Fc" for F_c, "Qc" for Q_c) at one
    (c, n_dim), in that order, from one pass: one rule pair and one Legendre
    table serve them all, and their drift checks run in that order.
    """
    return _resolved_matrices(c, [_FOLDS[name] for name in names], n_dim, _q_order(c, n_dim))


def finite_fourier_direct(c: float, n_dim: int) -> OperatorMatrix:
    """Matrix of phi -> integral exp(icxt) phi(t) dt by tensor quadrature.

    Entries with m+n odd are exactly 0; the even block is real and the odd
    block purely imaginary (the cos and sin parts of the kernel).
    """
    return direct_operators(c, n_dim, ("Fc",))[0]


def sinc_kernel_direct(c: float, n_dim: int) -> OperatorMatrix:
    """Matrix of the sinc-kernel operator; real symmetric, spectrum in (0, 1)."""
    return direct_operators(c, n_dim, ("Qc",))[0]


def _default_q_xi(c: float, n_dim: int) -> int:
    # Oscillation floor plus enough nodes to integrate the certified modes'
    # endpoint-ratio polynomials exactly.
    if not math.isfinite(4 * c):
        raise OutOfRangeError(f"c = {c:g} has no xi rule: 4c = {4 * c:g} is not a finite float")
    return max(math.ceil(16 + 4 * c), n_dim // 2 + 12)


def _fourier_weights(c: float, nodes: np.ndarray):
    """(weight_plus, weight_minus) of the Fourier reconstruction at xi nodes,
    each a (nodes, 2) array of its real and imaginary parts:
    exp(ic(1-xi)) and, for the reflected part, exp(-ic(1-xi))."""
    angle = c * (1.0 - nodes)
    cos, sin = np.cos(angle), np.sin(angle)
    return np.stack((cos, sin), axis=1), np.stack((cos, -sin), axis=1)


def _sinc_weights(c: float, nodes: np.ndarray):
    """(weight_plus, weight_minus) of the sinc reconstruction at xi nodes,
    each a (nodes, 1) array, as the weights are real: sin(c xi)/(pi xi),
    with its limit c/pi at xi = 0, and, for the reflected part,
    sin(c(2-xi))/(pi(2-xi))."""
    return sinc_kernel(c, nodes, 0.0)[:, None], sinc_kernel(c, 2.0, nodes)[:, None]


# Operator name -> (its xi weights, its odd phase): F_c's eigenvalue on psi_n
# is i^n lambda_n, Q_c's mu_n is real.
_WEIGHTS = {"Fc": (_fourier_weights, 1j), "Qc": (_sinc_weights, 1)}


def _reconstruct(basis, variants, q_xi, weights_on, odd_phase) -> list[OperatorMatrix]:
    """The mode-wise reconstructions of ``variants``, in that order, each
    with an xi-doubling drift check.

    Each variant integrates over two rules, q_xi and 2 q_xi nodes, on
    [0, 1] (folded) or [0, 2] (full).  One Legendre table at -1 + xi over
    the nodes of every rule gives all the mode integrals, as real moment
    products per rule and mode parity p:

        integrals_p = Psi_p^T (L_p (v W_p)) / psi_p(-1),

    with L_p the table's rows of parity p on the rule's nodes, v the rule's
    weights, Psi_p and psi_p(-1) the coefficients and endpoint values of
    the modes of parity p, and W_p the weight's parts, one real column each
    (``weights_on`` gives weight_plus and weight_minus so): weight_plus for
    full, and weight_plus + (-1)^p weight_minus for folded.  Column j of
    integrals_p is then part j of each mode's integral, and no ratio table
    or complex array is built.  The table is freed before the drift checks.
    A variant's drift, the largest modulus of a certified mode's change
    over the two rules, is checked in the order of ``variants``, so the
    first variant that drifts is the one refused.  Its two blocks are then
    sum_n kept_n psi_n psi_n^T, one real product per parity block, each
    symmetrised on its own, with kept_n the part of the coarse rule's
    integral of mode n that the exact operator has; the part a block drops
    is the quadrature's and rounding's, since the exact integral of mode n
    is i^n lambda_n or mu_n.
    """
    for variant in variants:
        if variant not in ("full", "folded"):
            raise DomainError(f"variant must be 'full' or 'folded', got {variant!r}")
    rules = [gauss_legendre_rule(q) for q in (q_xi, 2 * q_xi)]
    # Each variant's two rules, with the half length of its xi interval.
    per_rule = [
        (variant, 0.5 if variant == "folded" else 1.0, rule) for variant in variants for rule in rules
    ]
    nodes = [half * (rule.nodes + 1.0) for _, half, rule in per_rule]
    endpoints = ratio_denominators(basis)
    table = legendre_table(basis.n_dim - 1, -1.0 + np.concatenate(nodes))
    psi = [basis.psi_coeffs[p::2, p::2] for p in (0, 1)]
    integrals = []
    end = 0
    for (variant, half, rule), x in zip(per_rule, nodes):
        start, end = end, end + x.size
        plus, minus = weights_on(basis.c, x)
        weights = (half * rule.weights)[:, None]
        integrals.append([
            (psi_p.T @ (table[p::2, start:end] @ (weights * columns))) / endpoints[p::2, None]
            for p, psi_p, columns in zip(
                (0, 1), psi, (plus, plus) if variant == "full" else (plus + minus, plus - minus)
            )
        ])
    del table
    certified = basis.n_certified
    counts = ((certified + 1) // 2, certified // 2)  # certified modes of each parity
    resolved = []
    for coarse, fine in zip(integrals[0::2], integrals[1::2]):
        drift = float(np.max([
            np.max(np.linalg.norm(f[:m] - g[:m], axis=1), initial=0.0)
            for f, g, m in zip(fine, coarse, counts)
        ]))
        if not drift <= _DRIFT_TOL:  # also refuses a NaN drift
            raise XiQuadratureUnresolvedError(
                f"mode integrals drift by {drift:.3e} when doubling q_xi={q_xi}"
            )
        # The imaginary parts of F_c's odd modes, the real parts of the rest.
        kept = (coarse[0][:, 0], coarse[1][:, 1 if odd_phase == 1j else 0])
        blocks = ((psi_p * values) @ psi_p.T for psi_p, values in zip(psi, kept))
        resolved.append(OperatorMatrix(*map(_symmetrised, blocks), odd_phase))
    return resolved


def reconstructions(basis: ProlateBasis, name: str, variants: tuple[str, ...]):
    """The reconstructed F_c (name "Fc") or Q_c ("Qc") of each of
    ``variants``, in that order, from one Legendre table; their xi drift
    checks run in that order."""
    return _reconstruct(basis, variants, _default_q_xi(basis.c, basis.n_dim), *_WEIGHTS[name])


def reconstruct_fourier(basis: ProlateBasis, variant: str = "folded") -> OperatorMatrix:
    """Finite Fourier transform assembled from the translation family.

    full:   integral over xi in [0, 2] of exp(ic(1-xi)) U(xi; T)
    folded: integral over xi in [0, 1] of
            (exp(ic(1-xi)) + R exp(-ic(1-xi))) U(xi; T)
    """
    return reconstructions(basis, "Fc", (variant,))[0]


def reconstruct_sinc(basis: ProlateBasis, variant: str = "folded") -> OperatorMatrix:
    """Sinc-kernel operator assembled from the translation family.

    full:   integral over [0, 2] of sin(c xi)/(pi xi) U(xi; T)
    folded: integral over [0, 1] of
            (sin(c xi)/(pi xi) + sin(c(2-xi))/(pi(2-xi)) R) U(xi; T)
    """
    return reconstructions(basis, "Qc", (variant,))[0]


def commutator_report(a: OperatorMatrix, b: OperatorMatrix, block: int) -> float:
    """|| (AB - BA) ||_F / (||A||_F ||B||_F) on the leading block, from the
    commutators of the parity blocks."""
    if a.n_dim != b.n_dim:
        raise DomainError("operators must share a dimension")
    if not 1 <= block <= a.n_dim:
        raise DomainError(f"block must lie in 1..{a.n_dim}")
    comm = OperatorMatrix(*(x @ y - y @ x for x, y in ((a.even, b.even), (a.odd, b.odd))))
    den = a.leading(block).norm() * b.leading(block).norm()
    if den == 0:
        raise DomainError("an operator has norm 0 on the block; the relative commutator is undefined")
    return comm.leading(block).norm() / den
