"""Finite Fourier and sinc-kernel operators, direct and reconstructed.

Direct versions collocate the defining integral kernels with tensor
Gauss-Legendre quadrature in the orthonormal Legendre basis, folded by parity
onto the nodes y >= 0, so entries of mixed parity are exactly 0.  Reconstructed
versions assemble the same operators as weighted integrals of the boundary
translation family over xi: the Fourier weight is ``exp(ic(1-xi))`` on [0,2]
(or its reflected fold onto [0,1]) and the sinc weight is ``sin(c xi)/(pi xi)``
likewise.  Agreement of the two routes is the package's central check.

Both routes check their own quadrature by doubling its order, and each
check runs one Legendre recurrence over the nodes of both of its rules.  A
direct operator evaluates its kernel on each rule's nodes y >= 0, with the
weighted Legendre rows sliced from one table.  A reconstruction makes one
``boundary_ratios`` call for its two xi rules, which returns one (modes x
xi) table of spectral boundary ratios psi_n(-1 + xi) / psi_n(-1) per rule;
the mode integrals are then matrix-vector products with the
quadrature-weighted xi weights, one per rule.  Every product keeps the
operands it had when each rule built its own table, so the entries are the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureUnresolvedError, XiQuadratureUnresolvedError
from .legendre import gauss_legendre_rule, half_rule, legendre_table
from .prolate import ProlateBasis, assemble_heun_matrix, sinc_kernel
from .ucalc import boundary_ratios

_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix of an operator in the orthonormal Legendre basis."""

    dim: int
    entries: np.ndarray


def _tensor_quadrature_matrix(kernel, n_dim: int, q_orders, conjugate_fold: bool = False) -> list:
    """Entries <Pbar_m, K Pbar_n> with K applied by q-point quadrature, one
    matrix for each order q in q_orders, from one Legendre table over the
    nodes of all the rules.

    The kernel must satisfy K(-x, -t) = K(x, t), so the operator commutes
    with x -> -x.  The sum is folded onto the rule's nodes y >= 0: the
    even-even block is 2 A_e (K(y, y) + K(y, -y)) A_e^T and the odd-odd block
    2 A_o (K(y, y) - K(y, -y)) A_o^T, with A the weighted Legendre rows of
    that parity.  Entries with m + n odd are exactly 0.

    With conjugate_fold, K(y, -y') is taken as the conjugate of K(y, y')
    instead of a second evaluation; that is exact for K = exp(icyy').  Its
    argument at -y' is the negated one, because a sign change rounds to
    nothing, and the complex exp is even in its cosine and odd in its sine.
    The two arrays differ only where y y' = 0: there the evaluation gives
    the imaginary part +0.0 and the conjugate -0.0.  Both folds add or
    subtract that zero to K(y, y')'s own 0.0, which gives +0.0 either way,
    so the blocks are the same bits as with two evaluations.
    """
    halves = [half_rule(gauss_legendre_rule(q)) for q in q_orders]
    table = legendre_table(n_dim - 1, np.concatenate([y for y, _ in halves]))
    matrices = []
    end = 0
    for y, v in halves:
        pw = table[:, end : end + y.size] * v
        end += y.size
        k_plus = kernel(y[:, None], y[None, :])
        k_minus = k_plus.conj() if conjugate_fold else kernel(y[:, None], -y[None, :])
        even, odd = pw[0::2], pw[1::2]
        block_even = 2.0 * (even @ (k_plus + k_minus) @ even.T)
        block_odd = 2.0 * (odd @ (k_plus - k_minus) @ odd.T)
        entries = np.zeros((n_dim, n_dim), dtype=np.result_type(block_even, block_odd))
        entries[0::2, 0::2] = block_even
        entries[1::2, 1::2] = block_odd
        matrices.append(entries)
    return matrices


def _resolved_matrix(kernel, n_dim: int, q_order: int, conjugate_fold: bool = False) -> np.ndarray:
    """Tensor quadrature with an under-resolution check by order doubling."""
    coarse, fine = _tensor_quadrature_matrix(
        kernel, n_dim, (q_order, 2 * q_order), conjugate_fold
    )
    drift = float(np.max(np.abs(fine - coarse)))
    if not drift <= _DRIFT_TOL:  # also refuses a NaN drift
        raise QuadratureUnresolvedError(
            f"entries drift by {drift:.3e} when doubling q_order={q_order}"
        )
    return fine


def _q_order(c: float, n_dim: int) -> int:
    """Tensor-quadrature order: the resolution floor n_dim + ceil(c) + 8."""
    if c < 0:
        raise DomainError("bandwidth c must be >= 0")
    return n_dim + math.ceil(c) + 8


def finite_fourier_direct(c: float, n_dim: int) -> OperatorMatrix:
    """Matrix of phi -> integral exp(icxt) phi(t) dt by tensor quadrature.

    Entries with m+n odd are exactly 0; the even-even block is real and the
    odd-odd block purely imaginary (the cos and sin parts of the kernel).
    """
    entries = _resolved_matrix(
        lambda x, t: np.exp(1j * c * x * t), n_dim, _q_order(c, n_dim), conjugate_fold=True
    )
    return OperatorMatrix(dim=n_dim, entries=entries)


def sinc_kernel_direct(c: float, n_dim: int) -> OperatorMatrix:
    """Matrix of the sinc-kernel operator; real symmetric, spectrum in (0, 1)."""
    entries = _resolved_matrix(
        lambda x, t: sinc_kernel(c, x, t), n_dim, _q_order(c, n_dim)
    ).astype(complex)
    return OperatorMatrix(dim=n_dim, entries=entries)


def heun_operator(c: float, n_dim: int) -> OperatorMatrix:
    """The prolate operator T as a dense complex matrix on the Legendre basis."""
    return OperatorMatrix(n_dim, assemble_heun_matrix(c, n_dim).to_dense().astype(complex))


def _default_q_xi(c: float, n_dim: int) -> int:
    # Oscillation floor plus enough nodes to integrate the certified modes'
    # endpoint-ratio polynomials exactly.
    return max(math.ceil(16 + 4 * c), n_dim // 2 + 12)


def _fourier_weights(c: float, nodes: np.ndarray):
    """(weight_plus, weight_minus) of the Fourier reconstruction at xi nodes:
    exp(ic(1-xi)) and, for the reflected part, exp(-ic(1-xi))."""
    phase = np.exp(1j * c * (1.0 - nodes))
    return phase, np.conj(phase)


def _sinc_weights(c: float, nodes: np.ndarray):
    """(weight_plus, weight_minus) of the sinc reconstruction at xi nodes:
    sin(c xi)/(pi xi), with its limit c/pi at xi = 0, and, for the reflected
    part, sin(c(2-xi))/(pi(2-xi))."""
    w_plus = (c / np.pi) * np.sinc((c / np.pi) * nodes) + 0j
    w_minus = (c / np.pi) * np.sinc((c / np.pi) * (2.0 - nodes)) + 0j
    return w_plus, w_minus


def _mode_integrals(basis: ProlateBasis, weights_on, variant: str, nodes, weights, ratios) -> np.ndarray:
    """Integrals int w(xi) ratio_n(xi) dxi for every mode, complex array.

    ``ratios`` is the spectral ratio table at the xi rule's nodes, on [0, 1]
    (folded) or [0, 2] (full).  weights_on(c, nodes) returns both parts of
    the weight, (weight_plus, weight_minus).  full integrates weight_plus
    alone over [0, 2]; folded adds the reflected part, weight_minus scaled
    per mode by parity (-1)^n, over [0, 1].
    """
    w_plus, w_minus = weights_on(basis.c, nodes)
    values = ratios @ (weights * w_plus)
    if variant == "folded":
        parity = (-1.0) ** np.arange(basis.n_dim)
        values += parity * (ratios @ (weights * w_minus))
    return values


def _reconstruct(basis, variant, q_xi, weights_on):
    """Mode-wise reconstruction shared by F_c and Q_c, with an xi-doubling drift check:
    the rules of q_xi and 2 q_xi nodes get their ratio tables from one call."""
    if variant not in ("full", "folded"):
        raise DomainError(f"variant must be 'full' or 'folded', got {variant!r}")
    half = 0.5 if variant == "folded" else 1.0  # xi in [0, 1] or [0, 2]
    rules = [gauss_legendre_rule(q) for q in (q_xi, 2 * q_xi)]
    nodes = tuple(half * (rule.nodes + 1.0) for rule in rules)
    tables = boundary_ratios(basis, nodes, method="spectral")
    coarse, fine = (
        _mode_integrals(basis, weights_on, variant, x, half * rule.weights, table)
        for x, rule, table in zip(nodes, rules, tables)
    )
    certified = basis.n_certified
    drift = float(np.max(np.abs(coarse[:certified] - fine[:certified])))
    if not drift <= _DRIFT_TOL:  # also refuses a NaN drift
        raise XiQuadratureUnresolvedError(
            f"mode integrals drift by {drift:.3e} when doubling q_xi={q_xi}"
        )
    entries = (basis.psi_coeffs * coarse) @ basis.psi_coeffs.T
    return OperatorMatrix(dim=basis.n_dim, entries=entries)


def reconstruct_fourier(basis: ProlateBasis, variant: str = "folded") -> OperatorMatrix:
    """Finite Fourier transform assembled from the translation family.

    full:   integral over xi in [0, 2] of exp(ic(1-xi)) U(xi; T)
    folded: integral over xi in [0, 1] of
            (exp(ic(1-xi)) + R exp(-ic(1-xi))) U(xi; T)
    """
    return _reconstruct(basis, variant, _default_q_xi(basis.c, basis.n_dim), _fourier_weights)


def reconstruct_sinc(basis: ProlateBasis, variant: str = "folded") -> OperatorMatrix:
    """Sinc-kernel operator assembled from the translation family.

    full:   integral over [0, 2] of sin(c xi)/(pi xi) U(xi; T)
    folded: integral over [0, 1] of
            (sin(c xi)/(pi xi) + sin(c(2-xi))/(pi(2-xi)) R) U(xi; T)
    """
    return _reconstruct(basis, variant, _default_q_xi(basis.c, basis.n_dim), _sinc_weights)


def commutator_report(a: OperatorMatrix, b: OperatorMatrix, block: int) -> float:
    """|| (AB - BA) ||_F / (||A||_F ||B||_F) on the leading block."""
    if a.dim != b.dim:
        raise DomainError("operators must share a dimension")
    if not 1 <= block <= a.dim:
        raise DomainError(f"block must lie in 1..{a.dim}")
    comm = a.entries @ b.entries - b.entries @ a.entries
    num = np.linalg.norm(comm[:block, :block])
    den = np.linalg.norm(a.entries[:block, :block]) * np.linalg.norm(
        b.entries[:block, :block]
    )
    if den == 0:
        raise DomainError("an operator has norm 0 on the block; the relative commutator is undefined")
    return float(num / den)
