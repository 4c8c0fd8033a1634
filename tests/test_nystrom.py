"""The Nystrom eigensolve on its two parity blocks against the full-matrix
eigensolve it replaced, and its default grid and Ritz chi against the
spectral path."""

import dataclasses

import numpy as np
import pytest

from prolate_calculus import gauss_legendre_rule, nystrom, nystrom_chi, nystrom_sinc_eigen, solve_prolate
from prolate_calculus.legendre import CHECKED_MODES, MAX_C, default_truncation, half_rule, legendre_table
from prolate_calculus.prolate import assemble_heun_matrix, sinc_kernel


def full_matrix_mu(c, n_nodes, n_modes):
    """Oracle: the leading eigenvalues of the symmetrized n_nodes x n_nodes
    sinc matrix, diagonalized whole and sorted in decreasing order."""
    rule = gauss_legendre_rule(n_nodes)
    sw = np.sqrt(rule.weights)
    sym = sw[:, None] * sinc_kernel(c, rule.nodes[:, None], rule.nodes[None, :]) * sw[None, :]
    w = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return np.sort(w)[::-1][:n_modes]


# The default grid (n_nodes None) at each c: 128 nodes up to c = 12, 160 at
# c = 20, 200 at c = 30 and 400 at c = 80; and grids of 96 and 400 nodes,
# set through the grid's formula.  The leading modes are resolved on each,
# so sorting by mu and reading modes off the parity blocks give the same
# order.
_GRID = [(c, None) for c in (0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 80.0)]
_GRID += [(c, n) for c in (0.5, 2.0, 5.0, 10.0, 20.0, 30.0) for n in (96, 400)]


def grid_result(monkeypatch, c, n_nodes):
    """``nystrom_sinc_eigen(c)``, on min(400, n_nodes) nodes when n_nodes is
    given: the grid is min(MAX_NODES, 2 default_truncation(c)), so the test
    sets the truncation it reads to n_nodes / 2."""
    if n_nodes is not None:
        monkeypatch.setattr(nystrom, "default_truncation", lambda c: n_nodes // 2)
    result = nystrom_sinc_eigen(c)
    assert result.rule.nodes.size == (n_nodes or min(400, 2 * default_truncation(c)))
    return result


@pytest.mark.parametrize("c, n_nodes", _GRID)
def test_mu_matches_the_full_matrix(monkeypatch, c, n_nodes):
    result = grid_result(monkeypatch, c, n_nodes)
    oracle = full_matrix_mu(c, result.rule.nodes.size, CHECKED_MODES)
    assert np.max(np.abs(result.mu - oracle)) <= 1e-14


@pytest.mark.parametrize("c, n_nodes", _GRID)
def test_each_mode_has_exact_parity(monkeypatch, c, n_nodes):
    psi = grid_result(monkeypatch, c, n_nodes).psi_nodes
    assert psi.shape[1] == CHECKED_MODES
    for n in range(psi.shape[1]):
        assert np.array_equal(psi[::-1, n], (-1.0) ** n * psi[:, n])


@pytest.mark.parametrize("c", [2.0, 10.0])
def test_unit_norm_and_positive_edge(c):
    result = nystrom_sinc_eigen(c)
    norms = result.rule.weights @ result.psi_nodes**2
    np.testing.assert_allclose(norms, 1.0, atol=1e-13)
    edge = (sinc_kernel(c, 1.0, result.rule.nodes) * result.rule.weights) @ result.psi_nodes
    assert np.all(edge[result.mu > 1e-6] > 0)


@pytest.mark.parametrize("order", [1, 2, 7, 8])
def test_half_rule_sums_even_functions(order):
    rule = gauss_legendre_rule(order)
    y, v = half_rule(rule)
    assert np.all(y >= 0) and y.size == (order + 1) // 2
    for f in (np.cos, lambda x: x**4 + 1.0):
        assert abs(2.0 * (v @ f(y)) - rule.weights @ f(rule.nodes)) <= 1e-15


@pytest.mark.parametrize("c, nodes", [(0.5, 128), (12.0, 128), (20.0, 160), (30.0, 200), (80.0, 400), (MAX_C, 400)])
def test_default_grid_is_twice_the_default_truncation_up_to_400(c, nodes):
    rule = nystrom_sinc_eigen(c).rule
    assert rule.nodes.size == min(400, 2 * default_truncation(c)) == nodes


@pytest.mark.parametrize("c", [0.5, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 120.0, MAX_C])
def test_default_grid_mu_matches_the_spectral_mu(c):
    # Measured at most 5e-15 up to c = 80 and 1.8e-14 at c = 340.
    mu = nystrom_sinc_eigen(c).mu
    assert mu.shape == (CHECKED_MODES,)
    assert np.max(np.abs(mu - solve_prolate(c).mus[:9])) <= 1e-13


def chi_tolerance(c):
    """eps N^2, N = default_truncation(c): the rounding of an eigenvalue of
    T's N x N matrix, whose norm is about N^2.  The Ritz chi (n <= 8) is
    measured within 0.27 eps N^2 of the spectral chi for c in [4, 340]."""
    return np.finfo(float).eps * default_truncation(c) ** 2


_CHI_GRID = [5.0, 10.0, 20.0, 30.0, 40.0, 80.0, 120.0, MAX_C]


@pytest.mark.parametrize("c", _CHI_GRID)
def test_default_grid_chi_matches_the_spectral_chi(c):
    chi = nystrom_chi(nystrom_sinc_eigen(c))
    assert np.max(np.abs(chi - solve_prolate(c).chi[:9])) <= chi_tolerance(c)
    assert np.all(np.diff(chi) > 0)


def per_vector_chi(result):
    """The Rayleigh quotient of T on each Nystrom eigenvector, which the
    Ritz step replaced: eigh mixes modes whose mu_n agree to rounding."""
    n_legendre = result.rule.nodes.size // 2
    table = legendre_table(n_legendre - 1, result.rule.nodes)
    matrix = assemble_heun_matrix(result.c, n_legendre)
    coeffs = table @ (result.rule.weights[:, None] * result.psi_nodes)
    quad = np.einsum("ij,ij->j", coeffs, np.column_stack([matrix.matvec(a) for a in coeffs.T]))
    return -quad / np.einsum("ij,ij->j", coeffs, coeffs)


@pytest.mark.parametrize("c", [20.0, 30.0])
def test_chi_tolerance_rejects_the_per_vector_quotient(c):
    result = nystrom_sinc_eigen(c)
    assert np.max(np.abs(per_vector_chi(result) - solve_prolate(c).chi[:9])) > chi_tolerance(c)


@pytest.mark.parametrize("c", [60.0, 80.0, 120.0])
def test_chi_tolerance_rejects_a_fixed_24_vector_span(c):
    # 12 vectors per parity block hold the mu ~ 1 cluster only below c ~ 40.
    result = nystrom_sinc_eigen(c)
    fixed = dataclasses.replace(result, span_nodes=tuple(span[:, :12] for span in result.span_nodes))
    assert np.max(np.abs(nystrom_chi(fixed) - solve_prolate(c).chi[:9])) > chi_tolerance(c)

