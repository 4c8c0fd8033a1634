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
    # psi_n(1) = (K psi_n)(1) / mu_n; its sign is read without the division,
    # because a mode past the numerical rank has mu_n = 0.
    edge = ((sinc_kernel(c, 1.0, rule.nodes) * rule.weights) @ psi) * np.sign(mu)
    return NystromResult(c=c, rule=rule, mu=mu, psi_nodes=psi * np.where(edge >= 0, 1.0, -1.0))


def nystrom_chi(result: NystromResult) -> np.ndarray:
    """chi_n for every mode, from the Rayleigh quotient of T on its Nystrom eigenvector.

    Each eigenvector is projected onto the first min(nodes/2, 160) Legendre
    coefficients by quadrature (exact at this grid size for the relevant
    degrees), then contracted with the banded matrix of T.

    The quotient is only as good as the eigenvector, and the eigenvector is
    ill-conditioned where the mu_n cluster or fall to rounding: eigh mixes
    modes whose mu agree to the last bit.  At c = 20, where mu_0 and mu_1
    both round to 1, chi_0 and chi_1 are 1.7e-3 off the spectral chi.
    """
    n_legendre = min(result.rule.order // 2, 160)
    table = legendre_table(n_legendre - 1, result.rule.nodes)
    matrix = assemble_heun_matrix(result.c, n_legendre)
    chi = np.empty(result.n_modes)
    for n in range(result.n_modes):
        coeffs = table @ (result.rule.weights * result.psi_nodes[:, n])
        quad_form = coeffs @ matrix.matvec(coeffs)
        chi[n] = -quad_form / (coeffs @ coeffs)
    return chi
