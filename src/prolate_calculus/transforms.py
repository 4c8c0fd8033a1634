"""Finite Fourier and sinc-kernel operators, direct and reconstructed.

Direct versions collocate the defining integral kernels with tensor
Gauss-Legendre quadrature in the orthonormal Legendre basis.  Reconstructed
versions assemble the same operators as weighted integrals of the boundary
translation family over xi: the Fourier weight is ``exp(ic(1-xi))`` on [0,2]
(or its reflected fold onto [0,1]) and the sinc weight is ``sin(c xi)/(pi xi)``
likewise.  Agreement of the two routes is the package's central check.

Each xi rule costs one (modes x xi) table of spectral boundary ratios
psi_n(-1 + xi) / psi_n(-1), built in one call; the mode integrals are then
two matrix-vector products with the quadrature-weighted xi weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureUnresolvedError, XiQuadratureUnresolvedError
from .legendre import CoeffVector, gauss_legendre_rule, legendre_table
from .nystrom import sinc_kernel
from .prolate import ProlateBasis
from .ucalc import boundary_ratios

_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix of an operator in the orthonormal Legendre basis."""

    dim: int
    entries: np.ndarray

    def apply(self, f: CoeffVector) -> CoeffVector:
        if f.n_coeffs != self.dim:
            raise DomainError("coefficient length does not match operator dim")
        return CoeffVector(coeffs=self.entries @ f.coeffs)


def _tensor_quadrature_matrix(kernel, n_dim: int, q_order: int) -> np.ndarray:
    """Entries <Pbar_m, K Pbar_n> with K applied by q_order-point quadrature."""
    rule = gauss_legendre_rule(q_order)
    k = kernel(rule.nodes[:, None], rule.nodes[None, :])
    pw = legendre_table(n_dim - 1, rule.nodes) * rule.weights
    return pw @ k @ pw.T


def _resolved_matrix(kernel, n_dim: int, q_order: int) -> np.ndarray:
    """Tensor quadrature with an under-resolution check by order doubling."""
    coarse = _tensor_quadrature_matrix(kernel, n_dim, q_order)
    fine = _tensor_quadrature_matrix(kernel, n_dim, 2 * q_order)
    drift = float(np.max(np.abs(fine - coarse)))
    if not drift <= _DRIFT_TOL:  # also refuses a NaN drift
        raise QuadratureUnresolvedError(
            f"entries drift by {drift:.3e} when doubling q_order={q_order}"
        )
    return fine


def _q_order(c: float, n_dim: int, q_order: int | None) -> int:
    """Requested tensor-quadrature order, defaulted and checked against its floor."""
    if c < 0:
        raise DomainError("bandwidth c must be >= 0")
    floor = n_dim + math.ceil(c) + 8
    if q_order is None:
        return floor
    if q_order < floor:
        raise DomainError(f"q_order {q_order} below resolution floor {floor}")
    return q_order


def finite_fourier_direct(c: float, n_dim: int, q_order: int | None = None) -> OperatorMatrix:
    """Matrix of phi -> integral exp(icxt) phi(t) dt by tensor quadrature.

    Entries with m+n even are purely real and with m+n odd purely imaginary
    (cos/sin parity of the kernel).
    """
    q_order = _q_order(c, n_dim, q_order)
    entries = _resolved_matrix(
        lambda x, t: np.exp(1j * c * x * t), n_dim, q_order
    )
    return OperatorMatrix(dim=n_dim, entries=entries)


def sinc_kernel_direct(c: float, n_dim: int, q_order: int | None = None) -> OperatorMatrix:
    """Matrix of the sinc-kernel operator; real symmetric, spectrum in (0, 1)."""
    q_order = _q_order(c, n_dim, q_order)
    entries = _resolved_matrix(
        lambda x, t: sinc_kernel(c, x, t), n_dim, q_order
    ).astype(complex)
    return OperatorMatrix(dim=n_dim, entries=entries)


def reflect(n_dim: int) -> OperatorMatrix:
    """Reflection x -> -x; diagonal (-1)^n on the Legendre basis."""
    return OperatorMatrix(
        dim=n_dim, entries=np.diag((-1.0 + 0j) ** np.arange(n_dim))
    )


def _default_q_xi(c: float, n_dim: int) -> int:
    # Oscillation floor plus enough nodes to integrate the certified modes'
    # endpoint-ratio polynomials exactly.
    return max(math.ceil(16 + 4 * c), n_dim // 2 + 12)


def fourier_weights(c: float, nodes: np.ndarray, variant: str):
    """(weight_plus, weight_minus) of the Fourier reconstruction at xi nodes.

    full:   exp(ic(1-xi)) on [0, 2], no reflected part
    folded: exp(ic(1-xi)) plus R exp(-ic(1-xi)) on [0, 1]
    """
    phase = np.exp(1j * c * (1.0 - nodes))
    if variant == "full":
        return phase, None
    return phase, np.conj(phase)


def sinc_weights(c: float, nodes: np.ndarray, variant: str):
    """(weight_plus, weight_minus) of the sinc reconstruction at xi nodes.

    full:   sin(c xi)/(pi xi) on [0, 2], no reflected part
    folded: sin(c xi)/(pi xi) plus R sin(c(2-xi))/(pi(2-xi)) on [0, 1]

    The weight takes its limit value c/pi at xi = 0.
    """
    w_plus = (c / np.pi) * np.sinc((c / np.pi) * nodes) + 0j
    if variant == "full":
        return w_plus, None
    w_minus = (c / np.pi) * np.sinc((c / np.pi) * (2.0 - nodes)) + 0j
    return w_plus, w_minus


def mode_integrals(basis: ProlateBasis, weights_on, variant: str, q_xi: int) -> np.ndarray:
    """Integrals int w(xi) ratio_n(xi) dxi for every mode, complex array.

    Uses a q_xi-node Gauss rule on [0, 1] (folded) or [0, 2] (full) and one
    spectral ratio table for all its nodes.  weights_on(c, nodes, variant)
    returns (weight_plus, weight_minus): weight_plus multiplies the identity
    part and weight_minus, if not None, the reflected part (scaled per mode
    by parity (-1)^n).
    """
    if variant not in ("full", "folded"):
        raise DomainError(f"variant must be 'full' or 'folded', got {variant!r}")
    rule = gauss_legendre_rule(q_xi)
    if variant == "folded":
        nodes = 0.5 * (rule.nodes + 1.0)  # [0, 1]
        weights = 0.5 * rule.weights
    else:
        nodes = rule.nodes + 1.0  # [0, 2]
        weights = rule.weights
    w_plus, w_minus = weights_on(basis.c, nodes, variant)
    ratios = boundary_ratios(basis, nodes, method="spectral")
    values = ratios @ (weights * w_plus)
    if w_minus is not None:
        parity = (-1.0) ** np.arange(basis.n_dim)
        values += parity * (ratios @ (weights * w_minus))
    return values


def _reconstruct(basis, variant, q_xi, weights_on):
    """Shared mode-wise reconstruction driver with an xi-doubling drift check."""
    if q_xi is None:
        q_xi = _default_q_xi(basis.c, basis.n_dim)
    coarse = mode_integrals(basis, weights_on, variant, q_xi)
    fine = mode_integrals(basis, weights_on, variant, 2 * q_xi)
    certified = basis.n_certified
    drift = float(np.max(np.abs(coarse[:certified] - fine[:certified])))
    if not drift <= _DRIFT_TOL:  # also refuses a NaN drift
        raise XiQuadratureUnresolvedError(
            f"mode integrals drift by {drift:.3e} when doubling q_xi={q_xi}"
        )
    entries = (basis.psi_coeffs * coarse) @ basis.psi_coeffs.T
    return OperatorMatrix(dim=basis.n_dim, entries=entries)


def reconstruct_fourier(
    basis: ProlateBasis, variant: str = "folded", q_xi: int | None = None
) -> OperatorMatrix:
    """Finite Fourier transform assembled from the translation family.

    full:   integral over xi in [0, 2] of exp(ic(1-xi)) U(xi; T)
    folded: integral over xi in [0, 1] of
            (exp(ic(1-xi)) + R exp(-ic(1-xi))) U(xi; T)
    """
    return _reconstruct(basis, variant, q_xi, fourier_weights)


def reconstruct_sinc(
    basis: ProlateBasis, variant: str = "folded", q_xi: int | None = None
) -> OperatorMatrix:
    """Sinc-kernel operator assembled from the translation family.

    full:   integral over [0, 2] of sin(c xi)/(pi xi) U(xi; T)
    folded: integral over [0, 1] of
            (sin(c xi)/(pi xi) + sin(c(2-xi))/(pi(2-xi)) R) U(xi; T)
    """
    return _reconstruct(basis, variant, q_xi, sinc_weights)


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
