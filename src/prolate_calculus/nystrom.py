"""Nystrom discretization of the sinc-kernel operator.

Independent cross-check for the Legendre-basis spectral path: the integral
operator is collocated on a large Gauss-Legendre grid and the symmetrized
kernel matrix is diagonalized directly, one parity block at a time.  Nothing
here touches the banded eigensolve of the differential operator; chi values
come from a Rayleigh quotient on the Nystrom eigenvectors.

The parity blocks keep modes of opposite parity apart; ``nystrom_chi`` states
what the mixing of same-parity modes still costs.  The CLI runs the 400-node
default grid at c <= ``MAX_C`` = 340: |mu_n - ``solve_prolate(c).mus[n]``|, n <= 8,
is at most 9e-14 up to c = 368, then 1.2e-12 at c = 370 and 1.4e-7 at 380.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .legendre import QuadRule, gauss_legendre_rule, half_rule, legendre_table
from .prolate import assemble_heun_matrix

DEFAULT_NODES = 400
MAX_C = 340.0


def sinc_kernel(c: float, x, t):
    """sin(c(x-t)) / (pi (x-t)) with the diagonal limit c/pi."""
    return (c / np.pi) * np.sinc((c / np.pi) * (np.asarray(x) - np.asarray(t)))


@dataclass(frozen=True)
class NystromResult:
    """Leading eigenpairs of the sinc-kernel operator on a collocation grid.

    ``psi_nodes[:, n]`` are node values of the n-th eigenfunction, normalized
    to unit L2 norm under the rule weights with sign fixed by a positive value
    at x = 1.  Each column has exact parity: ``psi_nodes[::-1, n]`` equals
    ``(-1)**n * psi_nodes[:, n]``.
    """

    c: float
    rule: QuadRule
    mu: np.ndarray
    psi_nodes: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.mu.shape[0]


def nystrom_sinc_eigen(c: float, n_nodes: int = DEFAULT_NODES, n_modes: int | None = None) -> NystromResult:
    """Diagonalize the sinc kernel collocated on ``n_nodes`` Gauss points.

    The kernel commutes with x -> -x, so the symmetrized matrix splits into
    an even and an odd block on the nodes y >= 0, with kernels
    K(y, y) + K(y, -y) and K(y, y) - K(y, -y); the odd block leaves out the
    centre node, where odd functions vanish.  The k-th even eigenpair is mode
    2k and the k-th odd one mode 2k + 1, and each eigenvector is unfolded to
    all nodes with exact parity (-1)^n.
    """
    if c <= 0:
        raise DomainError("Nystrom discretization needs c > 0")
    if n_modes is None:
        n_modes = min(n_nodes, 32)
    rule = gauss_legendre_rule(n_nodes)
    y, v = half_rule(rule)
    k_plus = sinc_kernel(c, y[:, None], y[None, :])
    k_minus = sinc_kernel(c, y[:, None], -y[None, :])
    mu = np.empty(n_modes)
    psi = np.zeros((n_nodes, n_modes))
    for start, fold in ((0, k_plus + k_minus), (1, k_plus - k_minus)):
        skip = start * (n_nodes % 2)  # the odd block leaves out y = 0
        sv = np.sqrt(v[skip:])
        sym = sv[:, None] * fold[skip:, skip:] * sv[None, :]
        w, h = np.linalg.eigh(0.5 * (sym + sym.T))
        order = np.argsort(w)[::-1][: mu[start::2].size]
        mu[start::2] = w[order]
        # A unit vector on the half grid is sqrt(2) too long on the full one.
        psi[n_nodes - h.shape[0] :, start::2] = h[:, order] / np.sqrt(2.0 * v[skip:, None])
        psi[: n_nodes // 2, start::2] = (-1.0) ** start * psi[::-1, start::2][: n_nodes // 2]
    # psi_n(1) = (K psi_n)(1) / mu_n; its sign is read without the division,
    # because a mode past the numerical rank has mu_n = 0.
    edge = ((sinc_kernel(c, 1.0, rule.nodes) * rule.weights) @ psi) * np.sign(mu)
    return NystromResult(c=c, rule=rule, mu=mu, psi_nodes=psi * np.where(edge >= 0, 1.0, -1.0))


def nystrom_chi(result: NystromResult) -> np.ndarray:
    """chi_n for every mode, from the Rayleigh quotient of T on its Nystrom eigenvector.

    Each eigenvector is projected onto the first min(nodes/2, 160) Legendre
    coefficients by quadrature (exact at this grid size for the relevant
    degrees), then contracted with the banded matrix of T.

    The quotient is only as good as the eigenvector.  Each eigenvector comes
    from its own parity block, so modes of opposite parity do not mix;
    within a block eigh mixes modes whose mu agree to rounding, and a mode
    whose mu_n is near rounding is off by about eps / mu_n.  Against the
    spectral chi (400 nodes, n <= 8): at most 6e-14 at c = 5, 8, 12 and 16;
    4.3e-7 at c = 20, where mu_0 - mu_2 = 1.5e-12; about 2e2 at c = 30; and
    1.4e-2 for mode 8 at c = 2, where mu_8 = 2.8e-14.
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
