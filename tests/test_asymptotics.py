import math

import numpy as np
import pytest
from scipy.special import eval_hermite, iv

from prolate_calculus import (
    DomainError,
    bessel_i0_series,
    bessel_limit_check,
    dilated_heun_hermite_defect,
    dilated_pswf,
    finite_fourier_direct,
    fourier_eigenvalue,
    fourier_phase_errors,
    hermite_basis,
    hermite_distance,
    hermite_exponential,
    large_c_eigen_convergence,
    oscillator_gaps,
    small_c_operator,
    solve_prolate,
    u_series_scalar,
    wkb_matching_ratio,
    wkb_scalar_check,
    wkb_value,
)
from prolate_calculus.asymptotics import (
    _small_c_terms,
    hermite_values,
    legendre_annihilator_diag,
    small_c_diagonal_terms,
)


class TestSmallC:
    def test_order_zero_is_twice_rank_one(self):
        op = small_c_operator(0.1, 24, 30)
        real_part = op.entries.real
        assert real_part[0, 0] == 2.0
        mask = np.ones_like(real_part, dtype=bool)
        mask[0, 0] = False
        assert np.max(np.abs(real_part[mask])) <= 1e-12

    def test_order_one_lives_on_mode_one(self):
        c = 0.1
        op = small_c_operator(c, 24, 30)
        imag_part = op.entries.imag
        # Forced by the full Taylor kernel: the c^1 term is +i c (2/3) on (1,1).
        assert abs(imag_part[1, 1] - 2 * c / 3) <= 1e-14
        mask = np.ones_like(imag_part, dtype=bool)
        mask[1, 1] = False
        assert np.max(np.abs(imag_part[mask])) <= 1e-12

    def test_product_factors_annihilate_low_modes(self):
        for k in (1, 3, 7):
            diag = legendre_annihilator_diag(16, k)
            assert all(diag[m] == 0 for m in range(k))
            assert all(diag[m] != 0 for m in range(k, 16))

    def test_diagonal_terms_are_exact(self):
        a_terms, b_terms = small_c_diagonal_terms(20, 30)
        assert a_terms[0] == 2.0
        assert np.max(np.abs(a_terms[1:])) == 0.0
        assert abs(b_terms[1] + 2.0 / 3.0) <= 1e-15

    def test_diagonal_terms_are_built_once_and_read_only(self):
        terms = small_c_diagonal_terms(24, 30)
        assert small_c_diagonal_terms(24, 30) is terms
        for cached, built in zip(terms, _small_c_terms.__wrapped__(24, 30)):
            assert cached.tobytes() == built.tobytes()
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_error_scales_quadratically(self, ops):
        errs = {}
        for c in (0.05, 0.1):
            approx = small_c_operator(c, 24, 30)
            errs[c] = np.linalg.norm(approx.entries - ops.fourier(c, 24).entries)
        assert 0.17 <= errs[0.05] / errs[0.1] <= 0.33

    def test_entrywise_taylor_consistency(self, ops):
        approx = small_c_operator(1e-3, 24, 30)
        direct = ops.fourier(1e-3, 24)
        assert np.max(np.abs(approx.entries - direct.entries)) <= 5e-6

    def test_preconditions(self):
        with pytest.raises(DomainError):
            small_c_operator(0.5, 24, 30)
        with pytest.raises(DomainError):
            small_c_operator(0.1, 24, 40)
        with pytest.raises(DomainError):
            small_c_operator(0.1, 40, 30)


class TestHermite:
    def test_exponential_phases(self):
        phases = hermite_exponential(8)
        assert phases[0] == 1
        assert phases[1] == 1j
        np.testing.assert_array_equal(phases[:4], phases[4:])

    def test_orthonormal_on_grid(self):
        basis = hermite_basis(16)
        gram = (basis.values * basis.weights) @ basis.values.T
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-8

    def test_matches_scipy_hermite(self):
        # h_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) exp(-x^2/2)
        x = np.linspace(-2.0, 2.0, 5)
        for n in (0, 1, 4, 7):
            norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
            oracle = norm * eval_hermite(n, x) * np.exp(-0.5 * x * x)
            np.testing.assert_allclose(hermite_values(n + 1, x)[n], oracle, atol=1e-10)


class TestDilation:
    def test_dilated_pswf_domain(self, ops):
        basis = ops.basis(4.0, None)
        with pytest.raises(DomainError):
            dilated_pswf(basis, 0, np.array([3.0]))

    def test_dilated_pswf_unit_norm(self, ops):
        basis = ops.basis(16.0, None)
        half = math.sqrt(16.0)
        from prolate_calculus import gauss_legendre_rule

        rule = gauss_legendre_rule(300)
        vals = dilated_pswf(basis, 0, half * rule.nodes)
        norm = math.sqrt(half * rule.integrate(vals**2))
        assert abs(norm - 1.0) <= 1e-6


class TestLargeCLimit:
    def test_dilated_operator_approaches_oscillator(self):
        defects = {c: dilated_heun_hermite_defect(c, 8) for c in (4.0, 8.0, 16.0)}
        assert defects[16.0] < defects[8.0] < defects[4.0]
        assert defects[16.0] <= defects[4.0] / 2

    def test_convergence_report(self):
        rows = large_c_eigen_convergence([4.0, 8.0, 16.0], n_max=4)
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], []).append(row)
        for n, entries in by_n.items():
            deltas = [e["delta"] for e in sorted(entries, key=lambda e: e["c"])]
            assert deltas[0] > deltas[1] > deltas[2]
        at_16 = [r for r in rows if r["c"] == 16.0]
        assert all(r["phase_error"] <= 0.05 for r in at_16)
        dist0 = {r["c"]: r["hermite_distance"] for r in rows if r["n"] == 0}
        assert dist0[16.0] <= 0.05
        assert dist0[16.0] < dist0[4.0]

    def test_desk_scale_cap(self):
        with pytest.raises(DomainError):
            large_c_eigen_convergence([40.0], n_max=1)

    def test_oscillator_gaps_from_lambdas(self, ops):
        basis = ops.basis(8.0, None)
        gaps = oscillator_gaps(basis, 4)
        expected = [abs(math.sqrt(8.0 / (2 * math.pi)) * basis.lam(n) - 1.0) for n in range(5)]
        np.testing.assert_array_equal(gaps, expected)

    def test_phase_errors_from_direct_transform(self, ops):
        basis = ops.basis(16.0, None)
        fourier = finite_fourier_direct(16.0, basis.n_dim).entries
        for n, err in enumerate(fourier_phase_errors(basis, 4)):
            v = basis.psi_coeffs[:, n]
            quotient = v @ fourier @ v
            assert err <= 1e-12
            assert abs(quotient - fourier_eigenvalue(basis, n)) <= 1e-12

    def test_helpers_refuse_uncertified_modes(self, ops):
        basis = ops.basis(4.0, 16)
        for helper in (oscillator_gaps, fourier_phase_errors):
            with pytest.raises(IndexError):
                helper(basis, 8)

    def test_second_routes_are_gone(self):
        import prolate_calculus
        from prolate_calculus import asymptotics, prolate, ucalc

        for module, name in [
            (prolate, "fourier_rayleigh"),
            (ucalc, "u_poly_table"),
            (ucalc, "UPolyTable"),
            (ucalc, "recurrence_coefficients"),
            (asymptotics, "DilationMap"),
        ]:
            assert not hasattr(module, name)
            assert not hasattr(prolate_calculus, name)

    def test_hermite_distance_tracks_modes(self, ops):
        basis = ops.basis(16.0, None)
        assert hermite_distance(basis, 0) < hermite_distance(basis, 3)


class TestBesselLimit:
    def test_i0_series_matches_scipy(self):
        for z in (0.0, 1.0, 2.0, 10.0):
            assert abs(bessel_i0_series(z) - iv(0, z)) <= 1e-12 * iv(0, z)

    def test_eps_zero_both_sides_one(self, ops):
        basis = ops.basis(20.0, None)
        rows = bessel_limit_check(20.0, [0.0], -basis.chi[0])
        assert rows[0]["series"] == 1.0
        assert rows[0]["bessel"] == 1.0

    def test_deviation_shrinks_with_c(self):
        devs = {}
        for c in (10.0, 20.0, 40.0):
            basis = solve_prolate(c)
            devs[c] = bessel_limit_check(c, [2.0], -basis.chi[0])[0]["deviation"]
        assert devs[40.0] < devs[20.0] < devs[10.0]
        # The O(1/c) law: doubling c about halves the deviation.
        assert abs(devs[20.0] / devs[10.0] - 0.5) <= 0.15

    def test_large_eps_asymptotic_form(self):
        eps = 50.0
        i0 = bessel_i0_series(math.sqrt(2 * eps))
        asym = math.exp(math.sqrt(2 * eps)) / (
            math.sqrt(2 * math.pi) * (2 * eps) ** 0.25
        )
        assert abs(i0 - asym) / i0 <= 0.02

    def test_eps_domain_guard(self, ops):
        basis = ops.basis(20.0, None)
        with pytest.raises(DomainError):
            bessel_limit_check(20.0, [900.0], -basis.chi[0])


class TestWkb:
    def test_deviation_is_order_one_over_c(self):
        devs = {}
        for c in (10.0, 20.0):
            basis = solve_prolate(c)
            devs[c] = wkb_scalar_check(c, -basis.chi[0], [-0.5])[0]["rel_deviation"]
        assert abs(devs[20.0] / devs[10.0] - 0.5) <= 0.3

    def test_matching_region_consistency(self):
        # Series vs the WKB form (matched constants A = 1/sqrt(2 pi c), B = 0)
        # at the corner point y = -1 + eps/c^2.
        c, eps = 20.0, 30.0
        basis = solve_prolate(c)
        lam = -basis.chi[0]
        y_star = -1.0 + eps / (c * c)
        series = u_series_scalar(c, lam, y_star + 1.0, tol=1e-14).value
        assert abs(series - wkb_value(c, lam, y_star)) / abs(series) <= 0.05

    def test_matching_ratio_improves_with_c(self):
        # The simplified corner form drops O(1/c) factors; the gap shrinks.
        gaps = {}
        for c in (20.0, 40.0):
            basis = solve_prolate(c)
            gaps[c] = abs(wkb_matching_ratio(c, -basis.chi[0], 30.0) - 1.0)
        assert gaps[40.0] < gaps[20.0]

    def test_decaying_branch_absence(self):
        # The decaying branch is suppressed by exp(-2c sqrt(1-y^2)), below
        # 3e-5 everywhere in the admissible window at c = 10, so only an
        # admixture large enough to outweigh the O(1/c) residual is
        # resolvable at all; such an admixture must worsen the fit for both
        # signs, while a small one is numerically invisible.
        c = 10.0
        basis = solve_prolate(c)
        lam = -basis.chi[0]
        ys = [-0.85, -0.6, -0.4, -0.2]
        series = np.array([u_series_scalar(c, lam, y + 1.0, tol=1e-14).value for y in ys])
        a_coeff = 1.0 / math.sqrt(2 * math.pi * c)

        def fit(b):
            wkb = np.array([wkb_value(c, lam, y, b_coeff=b) for y in ys])
            return float(np.linalg.norm((wkb - series) / series))

        base = fit(0.0)
        assert base <= 0.1
        for b in (5000 * a_coeff, -5000 * a_coeff):
            assert fit(b) > 1.5 * base
        assert abs(fit(0.1 * a_coeff) - base) <= 1e-6

    def test_domain_guards(self, ops):
        basis = ops.basis(20.0, None)
        lam = -basis.chi[0]
        with pytest.raises(DomainError):
            wkb_scalar_check(5.0, lam, [-0.5])
        with pytest.raises(DomainError):
            wkb_scalar_check(20.0, lam, [-0.05])
        with pytest.raises(DomainError):
            wkb_value(20.0, lam, 0.5)
