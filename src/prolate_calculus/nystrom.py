"""Nystrom discretization of the sinc-kernel operator.

Independent cross-check for the Legendre-basis spectral path: the integral
operator is collocated on a Gauss-Legendre grid and the symmetrized kernel
matrix is diagonalized directly, one parity block at a time.  mu_n never
touches the eigensolve of the differential operator; chi_n comes from a
Rayleigh-Ritz step of T on the span of the leading Nystrom eigenvectors.

The default grid has min(400, 2 * default_truncation(c)) nodes: 128 for
c <= 12, 160 at c = 20 and 400 from c = 80 up to ``legendre.MAX_C`` = 340.
Against ``solve_prolate(c)``, n <= 8, |mu_n - mus[n]| is at most 5e-15 up to
c = 80 and 4.2e-14 up to 340, the error of a 400-node grid at each c; on 400
nodes it stays below 9e-14 up to c = 368, then 1.2e-12 at c = 370 and 1.4e-7
at 380.  ``nystrom_chi`` states the error of chi_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .legendre import (
    MAX_NODES,
    RITZ_BUFFER,
    QuadRule,
    default_truncation,
    gauss_legendre_rule,
    half_rule,
    legendre_table,
)
from .prolate import assemble_heun_matrix, parity_block, sinc_kernel


@dataclass(frozen=True)
class NystromResult:
    """Leading eigenpairs of the sinc-kernel operator on a collocation grid.

    ``psi_nodes[:, n]`` are node values of the n-th eigenfunction, normalized
    to unit L2 norm under the rule weights with sign fixed by a positive value
    at x = 1.  Each column has exact parity: ``psi_nodes[::-1, n]`` equals
    ``(-1)**n * psi_nodes[:, n]``.  ``span_nodes[p]`` holds, on the nodes
    y >= 0 of ``half_rule`` (the odd block without y = 0), the leading
    eigenvectors of parity block p at the scale of ``psi_nodes`` but without
    its sign fix: the span ``nystrom_chi`` diagonalizes T on.
    """

    c: float
    rule: QuadRule
    mu: np.ndarray
    psi_nodes: np.ndarray
    span_nodes: tuple[np.ndarray, np.ndarray]

    @property
    def n_modes(self) -> int:
        return self.mu.shape[0]


def nystrom_sinc_eigen(c: float, n_nodes: int | None = None, n_modes: int | None = None) -> NystromResult:
    """Diagonalize the sinc kernel collocated on ``n_nodes`` Gauss points,
    min(400, 2 * default_truncation(c)) unless given.

    The kernel commutes with x -> -x, so the symmetrized matrix splits into
    an even and an odd block on the nodes y >= 0, with kernels
    K(y, y) + K(y, -y) and K(y, y) - K(y, -y); the odd block leaves out the
    centre node, where odd functions vanish.  The k-th even eigenpair is mode
    2k and the k-th odd one mode 2k + 1, and each eigenvector is unfolded to
    all nodes with exact parity (-1)^n.  Each block also keeps its share of
    the max(n_modes, 2 ceil(c/pi) + ``RITZ_BUFFER``) leading eigenvectors
    that ``nystrom_chi`` diagonalizes T on.
    """
    if c <= 0:
        raise DomainError("Nystrom discretization needs c > 0")
    if n_nodes is None:
        # 2N nodes integrate psi_n Pbar_k exactly for k < N, so nystrom_chi's
        # Legendre projection keeps every coefficient that T's matrix keeps.
        n_nodes = min(MAX_NODES, 2 * default_truncation(c))
    if n_modes is None:
        n_modes = min(n_nodes, 32)
    # About 2c/pi modes have mu_n = 1 to rounding, and eigh returns any rotation
    # of them; the Ritz span holds all of them plus RITZ_BUFFER, both parities.
    span = max(n_modes, 2 * math.ceil(c / math.pi) + RITZ_BUFFER)
    rule = gauss_legendre_rule(n_nodes)
    y, v = half_rule(rule)
    k_plus = sinc_kernel(c, y[:, None], y[None, :])
    k_minus = sinc_kernel(c, y[:, None], -y[None, :])
    mu = np.empty(n_modes)
    psi = np.zeros((n_nodes, n_modes))
    kept = []
    for start, fold in ((0, k_plus + k_minus), (1, k_plus - k_minus)):
        skip = start * (n_nodes % 2)  # the odd block leaves out y = 0
        sv = np.sqrt(v[skip:])
        sym = sv[:, None] * fold[skip:, skip:] * sv[None, :]
        w, h = np.linalg.eigh(0.5 * (sym + sym.T))
        order = np.argsort(w)[::-1][: (span + 1 - start) // 2]
        modes = mu[start::2].size
        mu[start::2] = w[order[:modes]]
        # A unit vector on the half grid is sqrt(2) too long on the full one.
        kept.append(h[:, order] / np.sqrt(2.0 * v[skip:, None]))
        psi[n_nodes - h.shape[0] :, start::2] = kept[-1][:, :modes]
        psi[: n_nodes // 2, start::2] = (-1.0) ** start * psi[::-1, start::2][: n_nodes // 2]
    # psi_n(1) = (K psi_n)(1) / mu_n; its sign is read without the division,
    # because a mode past the numerical rank has mu_n = 0.
    edge = ((sinc_kernel(c, 1.0, rule.nodes) * rule.weights) @ psi) * np.sign(mu)
    return NystromResult(
        c=c, rule=rule, mu=mu, psi_nodes=psi * np.where(edge >= 0, 1.0, -1.0), span_nodes=tuple(kept)
    )


def nystrom_chi(result: NystromResult) -> np.ndarray:
    """chi_n for every mode, from one Rayleigh-Ritz step of T per parity block.

    The block's span vectors are projected onto the Legendre coefficients of
    their parity below nodes // 2 by the half rule, orthonormalized by one
    QR, and T's tridiagonal block is diagonalized on that span; chi_n is read
    off the smallest Ritz values.  T commutes with the sinc operator and has a
    simple spectrum, so it separates the modes that eigh mixes where their
    mu_n agree to rounding, as long as the span holds all of them.  A mode
    whose mu_n is itself near rounding has no resolved Nystrom eigenvector,
    and its chi_n is off.

    Against the spectral chi, n <= 8, on the default grid: at most 5.7e-14
    for c in [4, 12], 1.3e-13 up to c = 20, 1.4e-12 up to 80 and 2.5e-11 up
    to 340; that is at most 0.27 eps N^2 (N = default_truncation(c)), where
    eps N^2 is the rounding of an eigenvalue of T's N x N matrix, whose norm
    is about N^2.  chi_8 is 5.3e-10 off at c = 3 and 7.9e-4 at c = 2
    (mu_8 = 2.8e-14); at c <= 1 modes 6 to 8 are unresolved.
    """
    n_legendre = result.rule.order // 2
    if result.n_modes > n_legendre:
        raise DomainError(f"nystrom_chi needs at most nodes // 2 = {n_legendre} modes, got {result.n_modes}")
    y, v = half_rule(result.rule)
    table = legendre_table(n_legendre - 1, y)
    bands = assemble_heun_matrix(result.c, n_legendre).bands
    chi = np.empty(result.n_modes)
    for parity, span in enumerate(result.span_nodes):
        skip = y.size - span.shape[0]  # the odd block leaves out y = 0
        basis, _ = np.linalg.qr(table[parity::2, skip:] @ (v[skip:, None] * span))
        block = parity_block(bands, parity)
        _, vecs = np.linalg.eigh(basis.T @ block @ basis)
        # Ritz values are -chi; ascending chi reverses LAPACK's order.  Each is
        # read as the quotient of its Ritz vector, whose rounding scales with
        # chi_n rather than with the largest Ritz value of the span.
        ritz = basis @ vecs[:, ::-1][:, : chi[parity::2].size]
        chi[parity::2] = -np.einsum("ij,ij->j", ritz, block @ ritz) / np.einsum("ij,ij->j", ritz, ritz)
    return chi
