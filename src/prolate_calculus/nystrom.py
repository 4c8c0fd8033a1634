"""Nystrom discretization of the sinc-kernel operator.

Independent cross-check for the Legendre-basis spectral path: the integral
operator is collocated on a large Gauss-Legendre grid and the symmetrized
kernel matrix is diagonalized directly.  Nothing here touches the banded
eigensolve of the differential operator; chi values come from a Rayleigh
quotient on the Nystrom eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .legendre import QuadRule, gauss_legendre_rule, legendre_table
from .prolate import assemble_heun_matrix

DEFAULT_NODES = 400


def sinc_kernel(c: float, x, t):
    """sin(c(x-t)) / (pi (x-t)) with the diagonal limit c/pi."""
    return (c / np.pi) * np.sinc((c / np.pi) * (np.asarray(x) - np.asarray(t)))


@dataclass(frozen=True)
class NystromResult:
    """Leading eigenpairs of the sinc-kernel operator on a collocation grid.

    ``psi_nodes[:, n]`` are node values of the n-th eigenfunction, normalized
    to unit L2 norm under the rule weights with sign fixed by a positive value
    at x = 1.
    """

    c: float
    rule: QuadRule
    mu: np.ndarray
    psi_nodes: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.mu.shape[0]


def nystrom_sinc_eigen(c: float, n_nodes: int = DEFAULT_NODES, n_modes: int | None = None) -> NystromResult:
    """Diagonalize the sinc kernel collocated on ``n_nodes`` Gauss points."""
    if c <= 0:
        raise DomainError("Nystrom discretization needs c > 0")
    if n_modes is None:
        n_modes = min(n_nodes, 32)
    rule = gauss_legendre_rule(n_nodes)
    kernel = sinc_kernel(c, rule.nodes[:, None], rule.nodes[None, :])
    sw = np.sqrt(rule.weights)
    sym = sw[:, None] * kernel * sw[None, :]
    sym = 0.5 * (sym + sym.T)
    w, h = np.linalg.eigh(sym)
    order = np.argsort(w)[::-1][:n_modes]
    mu = w[order]
    psi = h[:, order] / sw[:, None]
    edge = _interp_values(c, rule, mu, psi, 1.0)
    psi = psi * np.where(edge >= 0, 1.0, -1.0)
    return NystromResult(c=c, rule=rule, mu=mu, psi_nodes=psi)


def _interp_values(c, rule, mu, psi, x):
    k_row = sinc_kernel(c, x, rule.nodes)
    return (k_row * rule.weights) @ psi / mu


def nystrom_psi_value(result: NystromResult, n: int, x):
    """Eigenfunction value anywhere in [-1,1] via the interpolation formula."""
    x = np.asarray(x, dtype=float)
    k = sinc_kernel(result.c, x[..., None], result.rule.nodes)
    return (k * result.rule.weights) @ result.psi_nodes[:, n] / result.mu[n]


def nystrom_chi(result: NystromResult, n: int, n_legendre: int | None = None) -> float:
    """chi_n from the Rayleigh quotient of T on the Nystrom eigenvector.

    The eigenvector is projected onto Legendre coefficients by quadrature
    (exact at this grid size for the relevant degrees), then contracted with
    the banded matrix of T.

    The quotient is only as good as the eigenvector, and the eigenvector is
    ill-conditioned where the mu_n cluster or fall to rounding: eigh mixes
    modes whose mu agree to the last bit.  At c = 20, where mu_0 and mu_1
    both round to 1, chi_0 and chi_1 are 1.7e-3 off the spectral chi.
    """
    if n_legendre is None:
        n_legendre = min(result.rule.order // 2, 160)
    table = legendre_table(n_legendre - 1, result.rule.nodes)
    coeffs = table @ (result.rule.weights * result.psi_nodes[:, n])
    matrix = assemble_heun_matrix(result.c, n_legendre)
    quad_form = coeffs @ matrix.matvec(coeffs)
    return float(-quad_form / (coeffs @ coeffs))
