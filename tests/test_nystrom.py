"""The Nystrom eigensolve on its two parity blocks against the full-matrix
eigensolve it replaced."""

import numpy as np
import pytest

from prolate_calculus import gauss_legendre_rule, nystrom_sinc_eigen
from prolate_calculus.legendre import half_rule
from prolate_calculus.nystrom import sinc_kernel


def full_matrix_mu(c, n_nodes, n_modes):
    """Oracle: the leading eigenvalues of the symmetrized n_nodes x n_nodes
    sinc matrix, diagonalized whole and sorted in decreasing order."""
    rule = gauss_legendre_rule(n_nodes)
    sw = np.sqrt(rule.weights)
    sym = sw[:, None] * sinc_kernel(c, rule.nodes[:, None], rule.nodes[None, :]) * sw[None, :]
    w = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return np.sort(w)[::-1][:n_modes]


# Below c = 10 even 8 nodes resolve the leading modes, so sorting by mu and
# reading modes off the parity blocks give the same order.
_GRID = [(c, n) for c in (0.5, 2.0, 5.0) for n in (8, 9, 96, 400, 401)]
_GRID += [(c, n) for c in (10.0, 20.0, 30.0) for n in (96, 400, 401)]


@pytest.mark.parametrize("c, n_nodes", _GRID)
def test_mu_matches_the_full_matrix(c, n_nodes):
    result = nystrom_sinc_eigen(c, n_nodes)
    oracle = full_matrix_mu(c, n_nodes, result.n_modes)
    assert np.max(np.abs(result.mu - oracle)) <= 1e-14


@pytest.mark.parametrize("c, n_nodes", _GRID)
def test_each_mode_has_exact_parity(c, n_nodes):
    psi = nystrom_sinc_eigen(c, n_nodes).psi_nodes
    for n in range(psi.shape[1]):
        assert np.array_equal(psi[::-1, n], (-1.0) ** n * psi[:, n])


@pytest.mark.parametrize("c", [2.0, 10.0])
def test_unit_norm_and_positive_edge(c):
    result = nystrom_sinc_eigen(c, 401)
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
