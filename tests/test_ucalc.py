import math

import numpy as np
import pytest
from scipy.special import eval_legendre

import prolate_calculus
from prolate_calculus import (
    CoeffVector,
    DomainError,
    RecurrenceOverflowError,
    SeriesStallError,
    StencilOutOfDomainError,
    boundary_ratios,
    heun_ode_residual,
    pswf_eval,
    reflect,
    u_operator_apply,
    u_operator_matrix_series,
    u_series_scalar,
)
from prolate_calculus.ucalc import u_series_terms


class TestUPolyTable:
    """U_k values read off the scaled series terms: at xi = 1, t_k = U_k / k!."""

    @staticmethod
    def terms(c, lambdas, k_max):
        return np.array(list(u_series_terms(c, lambdas, 1.0, k_max)))

    def test_degree_zero_row_is_one(self):
        np.testing.assert_array_equal(self.terms(1.7, [-3.0, 0.0, 5.0], 6)[0], 1.0)

    def test_c_zero_lambda_minus_two_terminates(self):
        # Hand-unrolled: U_1 = -1 and the recurrence kills everything after.
        terms = self.terms(0.0, [-2.0], 6)
        np.testing.assert_array_equal(terms[:, 0], [1, -1, 0, 0, 0, 0, 0])

    def test_hand_unrolled_u2(self):
        # c=1, lambda=0: U_1 = 1/2 and U_2 = (0+1+2)/4 * 1/2 - 1/2 = -1/8.
        terms = self.terms(1.0, [0.0], 2)
        assert terms[1, 0] == 0.5
        assert terms[2, 0] == -0.125 / 2  # U_2 / 2!

    def test_u1_closed_form(self):
        lam = np.array([-7.0, 3.0])
        for c in (0.0, 1.0, 2.5):
            np.testing.assert_allclose(self.terms(c, lam, 1)[1], (lam + c * c) / 2.0, rtol=1e-15)

    def test_overflow_reports_last_valid_degree(self):
        with pytest.raises(RecurrenceOverflowError) as err:
            u_operator_matrix_series(1e3, 8, 1.0, 2000)
        assert err.value.kind == "recurrence-overflow"
        assert 0 < err.value.last_valid_k < 2000


class TestUSeriesScalar:
    def test_xi_zero_returns_exactly_one(self):
        result = u_series_scalar(1.0, -17.3, 0.0)
        assert result.value == 1.0
        assert result.terms_used == 1
        assert result.tail_estimate == 0.0

    def test_domain_and_tol_errors(self):
        for xi in (-2.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                u_series_scalar(1.0, -1.0, xi)
        with pytest.raises(DomainError):
            u_series_scalar(1.0, -1.0, 0.5, tol=0.0)

    def test_series_stall_near_open_endpoint(self):
        with pytest.raises(SeriesStallError):
            u_series_scalar(1.0, -2.0, 1.99, tol=1e-13, k_max=400)

    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_c_zero_equals_legendre_translation(self, m):
        lam = -m * (m + 1)
        for xi in (0.25, 0.5, 1.0, 1.5):
            series = u_series_scalar(0.0, lam, xi, tol=1e-14).value
            oracle = eval_legendre(m, -1 + xi) / eval_legendre(m, -1)
            assert abs(series - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_half_translation_of_first_legendre(self):
        assert abs(u_series_scalar(0.0, -2.0, 0.5).value - 0.5) <= 1e-14

    def test_against_pswf_ratio_at_c_one(self, ops):
        basis = ops.basis(1.0, 64)
        series = u_series_scalar(1.0, -basis.chi[0], 0.7, tol=1e-14).value
        oracle = pswf_eval(basis, 0, -0.3) / basis.endpoint_minus[0]
        assert abs(series - oracle) <= 1e-8

    def test_tail_estimate_covers_truth(self):
        coarse = u_series_scalar(1.0, -2.5, 1.2, tol=1e-6)
        fine = u_series_scalar(1.0, -2.5, 1.2, tol=1e-14)
        assert abs(coarse.value - fine.value) <= max(coarse.tail_estimate, 1e-6)

    def test_term_decay_bound(self, ops):
        # |xi^k U_k / k!|^(1/k) stays below |xi|/2 + 0.05 for k in [100, 300].
        basis = ops.basis(1.0, 64)
        lam = -basis.chi[0]
        terms = [float(abs(t[0])) for t in u_series_terms(1.0, [lam], 1.5, 300)]
        roots = [terms[k] ** (1.0 / k) for k in range(100, 301)]
        assert max(roots) <= 1.5 / 2 + 0.05

    def test_endpoint_derivative_matches_u1(self, ops):
        # One-sided difference of the series at xi = 0 equals U_1 = (lam+c^2)/2.
        h = 1e-4
        for c in (0.0, 1.0, 2.0):
            basis = ops.basis(c, 64)
            for n in range(5):
                lam = -basis.chi[n]
                f0 = 1.0
                f1 = u_series_scalar(c, lam, h, tol=1e-14).value
                f2 = u_series_scalar(c, lam, 2 * h, tol=1e-14).value
                deriv = (-3 * f0 + 4 * f1 - f2) / (2 * h)
                assert abs(deriv - (lam + c * c) / 2) <= 1e-6 * max(1.0, abs(lam))

    def test_translation_chain_consistency(self, ops, rng):
        # Ratio at xi1+xi2 factors through the intermediate point.
        basis = ops.basis(1.0, 64)
        for _ in range(10):
            xi1, xi2 = rng.uniform(0.1, 0.8, size=2)
            for n in (0, 3):
                lam = -basis.chi[n]
                direct = u_series_scalar(1.0, lam, xi1 + xi2, tol=1e-14).value
                first = u_series_scalar(1.0, lam, xi1, tol=1e-14).value
                chain = first * (
                    pswf_eval(basis, n, -1 + xi1 + xi2)
                    / pswf_eval(basis, n, -1 + xi1)
                )
                assert abs(direct - chain) <= 1e-8 * max(1.0, abs(direct))


class TestBoundaryRatios:
    def test_methods_agree_on_certified_modes(self, ops):
        basis = ops.basis(1.0, 64)
        series = boundary_ratios(basis, 0.8, method="series")
        spectral = boundary_ratios(basis, 0.8, method="spectral")
        assert np.max(np.abs(series[:9] - spectral[:9])) <= 1e-10

    def test_spectral_reflects_at_xi_two(self, ops):
        basis = ops.basis(1.0, 64)
        ratios = boundary_ratios(basis, 2.0, method="spectral")
        np.testing.assert_allclose(ratios, (-1.0) ** np.arange(64), atol=1e-10)

    def test_spectral_is_the_default(self, ops):
        basis = ops.basis(1.0, 64)
        xis = np.array([0.3, 1.2])
        assert np.array_equal(boundary_ratios(basis, xis), boundary_ratios(basis, xis, method="spectral"))

    def test_only_series_and_spectral(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            boundary_ratios(basis, 0.8, method="auto")

    def test_no_tuning_knobs(self, ops):
        basis = ops.basis(1.0, 64)
        for knob in ("tol", "guard"):
            with pytest.raises(TypeError):
                boundary_ratios(basis, 0.8, method="series", **{knob: 1e-12})
        f = CoeffVector(coeffs=np.ones(64))
        with pytest.raises(TypeError):
            u_operator_apply(basis, 0.5, f, method="series")
        assert not hasattr(prolate_calculus, "pswf_eval_ratio")

    def test_array_matches_stacked_scalar_calls(self, ops):
        basis = ops.basis(1.0, 64)
        xis = np.array([1e-3, 0.3, 0.8, 1.5, 1.95, 2.0])
        table = boundary_ratios(basis, xis, method="spectral")
        stacked = np.stack(
            [boundary_ratios(basis, float(x), method="spectral") for x in xis], axis=1
        )
        assert table.shape == (64, xis.size)
        assert np.max(np.abs(table - stacked)) <= 1e-14

    @pytest.mark.parametrize("method", ["series"])
    def test_array_needs_spectral_method(self, ops, method):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            boundary_ratios(basis, np.array([0.5, 0.8]), method=method)

    def test_spectral_rejects_two_dimensional_xi(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            boundary_ratios(basis, np.full((2, 2), 0.5), method="spectral")

    @pytest.mark.parametrize("bad", [0.0, -0.5, 2.0 + 1e-9, 3.0, np.nan])
    def test_array_rejects_xi_outside_half_open_interval(self, ops, bad):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            boundary_ratios(basis, np.array([0.5, bad, 1.0]), method="spectral")

    def test_series_rejects_closed_endpoint(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            boundary_ratios(basis, 2.0, method="series")
        with pytest.raises(DomainError):
            boundary_ratios(basis, -0.5, method="spectral")
        with pytest.raises(DomainError):
            boundary_ratios(basis, 0.5, method="nope")


class TestUOperatorApply:
    def test_identity_at_xi_zero(self, ops, rng):
        basis = ops.basis(1.0, 64)
        f = CoeffVector(coeffs=rng.standard_normal(64))
        out = u_operator_apply(basis, 0.0, f)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_linearity(self, ops, rng):
        basis = ops.basis(1.0, 64)
        f = CoeffVector(coeffs=rng.standard_normal(64))
        g = CoeffVector(coeffs=rng.standard_normal(64))
        a, b = 0.7, -1.3
        lhs = u_operator_apply(basis, 0.9, CoeffVector(coeffs=a * f.coeffs + b * g.coeffs))
        rhs = a * u_operator_apply(basis, 0.9, f).coeffs + b * u_operator_apply(basis, 0.9, g).coeffs
        assert np.max(np.abs(lhs.coeffs - rhs)) <= 1e-12

    def test_eigenmode_scaling(self, ops):
        # U(0.4; T) psi_2 = (psi_2(-0.6)/psi_2(-1)) psi_2.
        basis = ops.basis(1.0, 64)
        f = CoeffVector(coeffs=basis.psi_coeffs[:, 2].astype(float))
        out = u_operator_apply(basis, 0.4, f)
        scale = pswf_eval(basis, 2, -0.6) / basis.endpoint_minus[2]
        assert np.max(np.abs(out.coeffs - scale * f.coeffs)) <= 1e-10

    def test_reflection_via_spectral_path(self, ops, rng):
        basis = ops.basis(1.0, 64)
        f = CoeffVector(coeffs=rng.standard_normal(64))
        out = u_operator_apply(basis, 2.0, f)
        mirrored = reflect(64).apply(CoeffVector(coeffs=f.coeffs.astype(complex)))
        assert np.max(np.abs(out.coeffs - mirrored.coeffs.real)) <= 1e-9

    def test_scales_by_the_spectral_ratios(self, ops, rng):
        basis = ops.basis(1.0, 64)
        f = CoeffVector(coeffs=rng.standard_normal(64))
        out = u_operator_apply(basis, 0.9, f)
        factors = boundary_ratios(basis, 0.9, method="spectral")
        expected = basis.psi_coeffs @ (factors * (basis.psi_coeffs.T @ f.coeffs))
        assert np.array_equal(out.coeffs, expected)

    @pytest.mark.parametrize("xi", [-0.5, 2.0 + 1e-9])
    def test_rejects_xi_outside_closed_interval(self, ops, xi):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            u_operator_apply(basis, xi, CoeffVector(coeffs=np.ones(64)))

    def test_dim_mismatch(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            u_operator_apply(basis, 0.5, CoeffVector(coeffs=np.ones(8)))


class TestMatrixSeries:
    def test_identity_at_xi_zero(self):
        out = u_operator_matrix_series(1.0, 8, 0.0, 50)
        assert np.array_equal(out, np.eye(8))

    def test_agrees_with_spectral_path(self, ops):
        basis = ops.basis(1.0, 48)
        series = u_operator_matrix_series(1.0, 48, 0.5, 120)
        factors = boundary_ratios(basis, 0.5, method="spectral")
        spectral = (basis.psi_coeffs * factors) @ basis.psi_coeffs.T
        diff = np.linalg.norm((series - spectral)[:24, :24])
        assert diff <= 1e-8

    def test_c_zero_is_diagonal_legendre_translation(self):
        out = u_operator_matrix_series(0.0, 12, 1.0, 60)
        off_diag = out - np.diag(np.diag(out))
        assert np.max(np.abs(off_diag)) <= 1e-12
        expected = [eval_legendre(n, 0.0) / eval_legendre(n, -1.0) for n in range(12)]
        np.testing.assert_allclose(np.diag(out), expected, atol=1e-12)

    def test_k_cap(self):
        with pytest.raises(DomainError):
            u_operator_matrix_series(1.0, 8, 0.5, 5000)


class TestHeunOdeResidual:
    def test_c_zero_exact_linear_solution(self):
        resid = heun_ode_residual(0.0, -2.0, [-0.5, 0.0, 0.5], h=1e-3)
        assert np.max(np.abs(resid)) <= 1e-9

    def test_prolate_mode_solution(self, ops):
        basis = ops.basis(1.0, 64)
        resid = heun_ode_residual(1.0, -basis.chi[0], [-0.7, -0.3, 0.3, 0.7], h=1e-3)
        assert np.max(np.abs(resid)) <= 1e-6

    def test_stencil_domain_guard(self):
        with pytest.raises(StencilOutOfDomainError):
            heun_ode_residual(1.0, -2.0, [0.999], h=1e-3)

    def test_h_range_guard(self):
        with pytest.raises(DomainError):
            heun_ode_residual(1.0, -2.0, [0.0], h=1e-5)
