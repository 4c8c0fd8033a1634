import math

import numpy as np
import pytest
from scipy.special import eval_legendre

from prolate_calculus import (
    BandedSymMatrix,
    DomainError,
    RuleTooLargeError,
    default_truncation,
    gauss_legendre_rule,
    legendre_operator_diag,
    legendre_table,
)
from prolate_calculus.legendre import MAX_RULE_ORDER, _build_rule, position_offdiag


def orthonormal_oracle(n, x):
    """Independent normalized-Legendre values via scipy."""
    return math.sqrt((2 * n + 1) / 2.0) * eval_legendre(n, x)


class TestGaussLegendreRule:
    def test_order_one_is_midpoint(self):
        rule = gauss_legendre_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_order_two_closed_form(self):
        rule = gauss_legendre_rule(2)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_x30_with_16_nodes(self):
        # Exact monomial integral on [-1,1]: 2/(d+1) for even d.
        rule = gauss_legendre_rule(16)
        assert abs(rule.nodes**30 @ rule.weights - 2 / 31) <= 1e-13 * (2 / 31)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 32, 100])
    def test_invariants(self, order):
        rule = gauss_legendre_rule(order)
        assert abs(rule.weights.sum() - 2.0) <= 1e-13
        assert np.all(np.diff(rule.nodes) > 0)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-13)
        assert np.all(rule.weights > 0)
        assert np.all(np.abs(rule.nodes) < 1)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16])
    def test_monomial_exactness_up_to_2p_minus_1(self, order):
        rule = gauss_legendre_rule(order)
        for degree in range(2 * order):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            measured = rule.nodes**degree @ rule.weights
            assert abs(measured - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_matches_numpy_reference(self):
        rule = gauss_legendre_rule(48)
        x_ref, w_ref = np.polynomial.legendre.leggauss(48)
        np.testing.assert_allclose(rule.nodes, x_ref, atol=1e-13)
        np.testing.assert_allclose(rule.weights, w_ref, atol=1e-13)

    def test_rejects_bad_orders(self):
        with pytest.raises(DomainError):
            gauss_legendre_rule(0)
        with pytest.raises(RuleTooLargeError) as err:
            gauss_legendre_rule(1_000_001)
        assert err.value.kind == "rule-too-large"


class TestRuleCache:
    def test_repeat_call_returns_the_same_rule(self):
        rule = gauss_legendre_rule(72)
        assert gauss_legendre_rule(72) is rule
        assert gauss_legendre_rule(np.int64(72)) is rule

    @pytest.mark.parametrize("order", [1, 2, 33, 72, 400])
    def test_cached_rule_is_read_only_and_bit_identical_to_a_fresh_build(self, order):
        rule = gauss_legendre_rule(order)
        fresh = _build_rule.__wrapped__(order)
        assert rule.order == fresh.order == order
        for cached, built in ((rule.nodes, fresh.nodes), (rule.weights, fresh.weights)):
            assert cached.tobytes() == built.tobytes()
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0

    @pytest.mark.parametrize(
        "order, error",
        [
            (0, DomainError),
            (-1, DomainError),
            (MAX_RULE_ORDER + 1, RuleTooLargeError),
            (16.5, DomainError),
            (16.0, DomainError),
        ],
    )
    def test_invalid_orders_raise_every_time_and_are_never_cached(self, order, error):
        before = _build_rule.cache_info()
        for _ in range(2):
            with pytest.raises(error):
                gauss_legendre_rule(order)
        assert _build_rule.cache_info() == before


class TestOrthonormalLegendre:
    def test_low_orders_at_zero(self):
        values = legendre_table(1, 0.0)
        np.testing.assert_allclose(values, [1 / math.sqrt(2), 0.0], atol=1e-15)

    def test_values_at_one(self):
        values = legendre_table(3, 1.0)
        expected = [math.sqrt((2 * n + 1) / 2) for n in range(4)]
        np.testing.assert_allclose(values, expected, rtol=1e-14)

    def test_alternating_signs_at_minus_one(self):
        values = legendre_table(2, -1.0)
        assert values[0] > 0 and values[1] < 0 and values[2] > 0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            legendre_table(3, 1.5)

    def test_extrapolation_is_opt_in(self):
        with pytest.raises(DomainError):
            legendre_table(4, np.array([1.2]))

    @pytest.mark.parametrize("n_max", [0, 1, 2, 5, 63, 160])
    def test_every_path_is_the_recurrence_bit_for_bit(self, n_max, legendre_recurrence):
        # A scalar runs on Python floats, an array row by row in place; both
        # must give the bits of the whole-array recurrence, so a value does
        # not depend on the shape it was asked in.
        points = [1.0, -1.0, 0.0, -0.0, 0.5, -0.3, 1e-300, 1.0 + 5e-15]
        points += np.random.default_rng(63).uniform(-1.0, 1.0, 40).tolist()
        for x in points:
            expected = legendre_recurrence(n_max, x)
            for got in (legendre_table(n_max, x), legendre_table(n_max, np.float64(x))):
                assert got.shape == (n_max + 1,)
                assert got.tobytes() == expected.tobytes(), x
            one = legendre_table(n_max, np.array([x]))
            assert one.shape == (n_max + 1, 1)
            assert one.tobytes() == legendre_recurrence(n_max, np.array([x])).tobytes(), x
            assert one[:, 0].tobytes() == expected.tobytes(), x
            # The bytes hold the sign bits; at x = 0 the odd degrees are zeros
            # whose signs the recurrence sets, so state the signs as well.
            assert np.array_equal(np.signbit(one[:, 0]), np.signbit(expected)), x
        grid = np.array(points).reshape(6, 8)
        table = legendre_table(n_max, grid)
        assert table.tobytes() == legendre_recurrence(n_max, grid).tobytes()
        scalars = np.stack([legendre_table(n_max, x) for x in points], axis=-1).reshape(table.shape)
        assert np.array_equal(np.signbit(table), np.signbit(scalars))

    @pytest.mark.parametrize("n_dim", [8, 24])
    def test_gram_matrix_is_identity(self, n_dim):
        rule = gauss_legendre_rule(n_dim + 2)
        table = legendre_table(n_dim - 1, rule.nodes)
        gram = (table * rule.weights) @ table.T
        np.testing.assert_allclose(gram, np.eye(n_dim), atol=1e-12)


class TestPositionMatrix:
    """Multiplication by x, built from its couplings in banded storage."""

    @staticmethod
    def dense(n_dim):
        bands = np.zeros((2, n_dim))
        bands[1, : n_dim - 1] = position_offdiag(n_dim - 1)
        return BandedSymMatrix(dim=n_dim, half_bandwidth=1, bands=bands).to_dense()

    def quadrature_coupling(self, n):
        # Independent oracle: <x Pbar_n, Pbar_n+1> by quadrature on scipy values.
        x, w = np.polynomial.legendre.leggauss(12)
        return np.sum(w * x * orthonormal_oracle(n, x) * orthonormal_oracle(n + 1, x))

    def test_first_couplings_match_quadrature_oracle(self):
        a = position_offdiag(2)
        assert abs(a[0] - self.quadrature_coupling(0)) <= 1e-14
        assert abs(a[1] - self.quadrature_coupling(1)) <= 1e-14
        assert abs(a[0] - 1 / math.sqrt(3)) <= 1e-15
        assert abs(a[1] - 2 / math.sqrt(15)) <= 1e-15

    def test_symmetry_is_structural(self):
        dense = self.dense(6)
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)

    def test_square_is_pentadiagonal_with_e0_form_one_third(self):
        dense = self.dense(8)
        squared = dense @ dense
        for k in range(3, 8):
            assert np.max(np.abs(np.diag(squared, k))) == 0.0
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert abs(e0 @ squared @ e0 - 1.0 / 3.0) <= 1e-12


class TestBandedMatvec:
    def test_columns_at_once_equal_each_column_alone(self):
        rng = np.random.default_rng(5)
        dim = 40
        bands = rng.standard_normal((3, dim))
        bands[1, -1:] = 0.0
        bands[2, -2:] = 0.0
        matrix = BandedSymMatrix(dim=dim, half_bandwidth=2, bands=bands)
        # A column slice of a wider array, as a table of eigenvectors gives it.
        columns = rng.standard_normal((dim, 9))[:, :6]
        together = matrix.matvec(columns)
        assert together.shape == (dim, 6)
        for j in range(6):
            alone = matrix.matvec(columns[:, j])
            assert together[:, j].tobytes() == alone.tobytes()
        np.testing.assert_allclose(together, matrix.to_dense() @ columns, atol=1e-12)


class TestLegendreOperator:
    def test_small_diagonals(self):
        np.testing.assert_array_equal(legendre_operator_diag(3), [0.0, -2.0, -6.0])
        np.testing.assert_array_equal(legendre_operator_diag(1), [0.0])
        assert legendre_operator_diag(11)[10] == -110.0


class TestCoeffAndGrid:
    def test_parseval_norm(self, rng):
        # The L2 norm on [-1, 1] equals the Euclidean coefficient norm.
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rule = gauss_legendre_rule(14)
        values = coeffs @ legendre_table(11, rule.nodes)
        l2 = math.sqrt(abs(np.abs(values) ** 2 @ rule.weights))
        norm = np.linalg.norm(coeffs)
        assert abs(l2 - norm) <= 1e-12 * norm

    def test_grid_roundtrip_on_polynomials(self, rng):
        # Samples -> coefficients by quadrature -> samples, on a degree-9 polynomial.
        rule = gauss_legendre_rule(24)
        values = rng.standard_normal(10) @ legendre_table(9, rule.nodes)
        coeffs = legendre_table(9, rule.nodes) @ (rule.weights * values)
        back = coeffs @ legendre_table(9, rule.nodes)
        assert np.max(np.abs(back - values)) <= 1e-10

    def test_default_truncation_rule(self):
        assert default_truncation(1.0) == 64
        assert default_truncation(30.0) == 100
