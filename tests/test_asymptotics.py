import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_hermite, iv

from prolate_calculus import (
    DomainError,
    bessel_i0_series,
    bessel_limit_check,
    dilated_pswf,
    gauss_legendre_rule,
    hermite_distance,
    oscillator_gaps,
    small_c_operator,
    solve_prolate,
    u_series_scalar,
    wkb_value,
)
from prolate_calculus.asymptotics import (
    _small_c_terms,
    hermite_values,
    small_c_diagonal_terms,
)


# Test-only: the defect is algebra, exactly 6.7419/c at every c, so no
# record of the package can be built on it.
def hermite_ladder_matrices(m_count: int):
    """(X, D) position and derivative matrices in the Hermite-function basis."""
    k = np.sqrt(np.arange(1, m_count) / 2.0)
    x_mat = np.diag(k, 1) + np.diag(k, -1)
    d_mat = np.diag(k, 1) - np.diag(k, -1)
    return x_mat, d_mat


def dilated_heun_hermite_defect(c: float, block: int, buffer: int = 8) -> float:
    """|| dilated-T / (2c) - diag(-(n + 1/2)) ||_F on a leading Hermite block.

    The dilated operator is c (d^2 - x^2) - (x^2 d^2 + 2 x d); the second
    group is c-independent, so the defect decays like 1/c.
    """
    m = block + buffer
    x_mat, d_mat = hermite_ladder_matrices(m)
    osc = d_mat @ d_mat - x_mat @ x_mat
    rest = x_mat @ x_mat @ d_mat @ d_mat + 2.0 * x_mat @ d_mat
    t_tilde = c * osc - rest
    target = np.diag(-(np.arange(m) + 0.5))
    defect = t_tilde / (2.0 * c) - target
    return float(np.linalg.norm(defect[:block, :block]))


class TestSmallC:
    def test_order_zero_is_twice_rank_one(self):
        op = small_c_operator(0.1, 24)
        real_part = op.entries.real
        assert real_part[0, 0] == 2.0
        mask = np.ones_like(real_part, dtype=bool)
        mask[0, 0] = False
        assert np.max(np.abs(real_part[mask])) <= 1e-12

    def test_order_one_lives_on_mode_one(self):
        c = 0.1
        op = small_c_operator(c, 24)
        imag_part = op.entries.imag
        # Forced by the full Taylor kernel: the c^1 term is +i c (2/3) on (1,1).
        assert abs(imag_part[1, 1] - 2 * c / 3) <= 1e-14
        mask = np.ones_like(imag_part, dtype=bool)
        mask[1, 1] = False
        assert np.max(np.abs(imag_part[mask])) <= 1e-12

    def test_product_factors_annihilate_low_modes(self):
        # The order-k product vanishes on modes m < k, so the sums to order
        # n_dim - 1 complete every mode of the block exactly.
        for k in (1, 3, 7):
            a_terms, _ = small_c_diagonal_terms(k + 1)
            assert a_terms[0] == 2.0
            assert np.all(a_terms[1 : k + 1] == 0.0)

    def test_sums_past_the_block_add_nothing(self):
        # Summing every mode of a 24-block to order 30, as the expansion once
        # did, gives the same bits as stopping at order n_dim - 1 = 23.
        a_ref, b_ref = [], []
        for m in range(24):
            a = b = Fraction(0)
            prod = Fraction(1)
            for k in range(31):
                if k:
                    prod *= k * (k - 1) - m * (m + 1)
                term = 2 * prod / (math.factorial(k) * math.factorial(k + 1))
                a += term
                b += Fraction(k, k + 2) * term
            a_ref.append(float(a))
            b_ref.append(float(b))
        a_terms, b_terms = small_c_diagonal_terms(24)
        assert a_terms.tobytes() == np.array(a_ref).tobytes()
        assert b_terms.tobytes() == np.array(b_ref).tobytes()

    def test_diagonal_terms_are_exact(self):
        a_terms, b_terms = small_c_diagonal_terms(20)
        assert a_terms[0] == 2.0
        assert np.max(np.abs(a_terms[1:])) == 0.0
        assert abs(b_terms[1] + 2.0 / 3.0) <= 1e-15

    def test_diagonal_terms_are_built_once_and_read_only(self):
        terms = small_c_diagonal_terms(24)
        assert small_c_diagonal_terms(24) is terms
        for cached, built in zip(terms, _small_c_terms.__wrapped__(24)):
            assert cached.tobytes() == built.tobytes()
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_error_scales_quadratically(self, ops):
        errs = {}
        for c in (0.05, 0.1):
            approx = small_c_operator(c, 24)
            errs[c] = np.linalg.norm(approx.entries - ops.fourier(c, 24).entries)
        assert 0.17 <= errs[0.05] / errs[0.1] <= 0.33

    def test_entrywise_taylor_consistency(self, ops):
        approx = small_c_operator(1e-3, 24)
        direct = ops.fourier(1e-3, 24)
        assert np.max(np.abs(approx.entries - direct.entries)) <= 5e-6

    def test_preconditions(self):
        with pytest.raises(DomainError):
            small_c_operator(0.5, 24)
        small_c_operator(0.1, 31)
        with pytest.raises(DomainError):
            small_c_operator(0.1, 32)


class TestHermite:
    def test_exponential_phases(self, ops):
        # F_c carries the eigenphases i^n of the complete transform on
        # Hermite functions: period 4 in n, fixing the Gaussian.  The phases
        # are measured on the direct F_c matrix.
        basis = ops.basis(16.0, None)
        fourier = ops.fourier(16.0, basis.n_dim).entries
        v = basis.psi_coeffs[:, :8]
        phases = np.einsum("in,in->n", v, fourier @ v) / basis.lambdas[:8]
        np.testing.assert_allclose(phases[:2], [1, 1j], atol=1e-12)
        np.testing.assert_allclose(phases[:4], phases[4:], atol=1e-12)

    def test_orthonormal_on_grid(self):
        half = math.sqrt(2 * 16) + 4.0
        rule = gauss_legendre_rule(256)
        values = hermite_values(16, half * rule.nodes)
        gram = (values * half * rule.weights) @ values.T
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
        rule = gauss_legendre_rule(300)
        vals = dilated_pswf(basis, 0, half * rule.nodes)
        norm = math.sqrt(half * (vals**2 @ rule.weights))
        assert abs(norm - 1.0) <= 1e-6


class TestLargeCLimit:
    def test_dilated_operator_approaches_oscillator(self):
        defects = {c: dilated_heun_hermite_defect(c, 8) for c in (4.0, 8.0, 16.0)}
        assert defects[16.0] < defects[8.0] < defects[4.0]
        assert defects[16.0] <= defects[4.0] / 2

    def test_convergence_report(self, ops):
        bases = {c: ops.basis(c, None) for c in (4.0, 8.0, 16.0)}
        gaps = [oscillator_gaps(basis, 4) for basis in bases.values()]
        assert np.all(gaps[0] > gaps[1]) and np.all(gaps[1] > gaps[2])
        dist0 = {c: hermite_distance(basis, 0) for c, basis in bases.items()}
        assert dist0[16.0] <= 0.05
        assert dist0[16.0] < dist0[4.0]

    def test_oscillator_gaps_from_lambdas(self, ops):
        basis = ops.basis(8.0, None)
        gaps = oscillator_gaps(basis, 4)
        expected = [abs(math.sqrt(8.0 / (2 * math.pi)) * basis.lambdas[n] - 1.0) for n in range(5)]
        np.testing.assert_array_equal(gaps, expected)

    def test_helpers_refuse_uncertified_modes(self, ops):
        basis = ops.basis(4.0, 16)
        with pytest.raises(IndexError):
            oscillator_gaps(basis, 8)

    def test_second_routes_are_gone(self):
        import prolate_calculus
        from prolate_calculus import (
            asymptotics, errors, legendre, nystrom, prolate, serialize, transforms, ucalc, verify,
        )

        for module, name in [
            (prolate, "fourier_rayleigh"),
            (ucalc, "u_poly_table"),
            (ucalc, "UPolyTable"),
            (ucalc, "recurrence_coefficients"),
            (asymptotics, "DilationMap"),
            (asymptotics, "legendre_annihilator_diag"),
            (asymptotics, "hermite_exponential"),
            (asymptotics, "HermiteBasis"),
            (asymptotics, "hermite_basis"),
            (asymptotics, "large_c_eigen_convergence"),
            (asymptotics, "wkb_matching_ratio"),
            (asymptotics, "wkb_scalar_check"),
            (asymptotics, "fourier_phase_errors"),
            (transforms, "reflect"),
            (ucalc, "u_operator_apply"),
            (ucalc, "heun_ode_residual"),
            (ucalc, "_STENCIL_D1"),
            (ucalc, "_STENCIL_D2"),
            (errors, "StencilOutOfDomainError"),
            (legendre, "GridFunction"),
            (legendre, "eval_legendre_orthonormal"),
            (legendre, "position_matrix"),
            (nystrom, "_interp_values"),
            (prolate, "fourier_eigenvalue"),
            (legendre, "CoeffVector"),
            (ucalc, "USeriesResult"),
            # Test oracles: no CLI path runs them, so they live in tests/.
            (ucalc, "u_operator_matrix_series"),
            (errors, "RecurrenceOverflowError"),
            (nystrom, "nystrom_psi_value"),
            (asymptotics, "dilated_heun_hermite_defect"),
            (asymptotics, "hermite_ladder_matrices"),
            (serialize, "operator_from_dict"),
            (serialize, "load_json"),
            # T has one builder; its callers make the dense copy they need.
            (transforms, "heun_operator"),
            # The per-mode identity reads the reconstruction it checks, so the
            # xi integrals behind it are private to transforms.
            (transforms, "mode_integrals"),
            (transforms, "fourier_weights"),
            (transforms, "sinc_weights"),
            (verify, "_IDENTITY_Q_XI"),
        ]:
            assert not hasattr(module, name)
            assert not hasattr(prolate_calculus, name)
        # One array per spectral quantity: no accessor beside lambdas and mus,
        # and no wrapper method beside the arrays a caller reads.
        for cls, name in [
            (prolate.ProlateBasis, "lam"),
            (prolate.ProlateBasis, "mu"),
            (prolate.ProlateBasis, "_certified"),
            (legendre.QuadRule, "integrate"),
            (transforms.OperatorMatrix, "apply"),
        ]:
            assert not hasattr(cls, name)

    def test_hermite_distance_tracks_modes(self, ops):
        basis = ops.basis(16.0, None)
        assert hermite_distance(basis, 0) < hermite_distance(basis, 3)


class TestBesselLimit:
    def test_i0_series_matches_scipy(self):
        for z in (0.0, 1.0, 2.0, 10.0):
            assert abs(bessel_i0_series(z) - iv(0, z)) <= 1e-12 * iv(0, z)

    def test_eps_zero_both_sides_one(self, ops):
        basis = ops.basis(20.0, None)
        assert u_series_scalar(20.0, -basis.chi[0], 0.0) == 1.0
        assert bessel_i0_series(0.0) == 1.0
        assert bessel_limit_check(20.0, 0.0, -basis.chi[0]) == 0.0

    def test_deviation_shrinks_with_c(self):
        devs = {}
        for c in (10.0, 20.0, 40.0):
            basis = solve_prolate(c)
            devs[c] = bessel_limit_check(c, 2.0, -basis.chi[0])
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
            bessel_limit_check(20.0, 900.0, -basis.chi[0])


class TestWkb:
    def test_deviation_is_order_one_over_c(self):
        devs = {}
        for c in (10.0, 20.0):
            lam = -solve_prolate(c).chi[0]
            series = u_series_scalar(c, lam, 0.5)
            devs[c] = abs(series - wkb_value(c, lam, -0.5)) / abs(series)
        assert abs(devs[20.0] / devs[10.0] - 0.5) <= 0.3

    def test_matching_region_consistency(self):
        # Series vs the WKB form (matched constants A = 1/sqrt(2 pi c), B = 0)
        # at the corner point y = -1 + eps/c^2.
        c, eps = 20.0, 30.0
        basis = solve_prolate(c)
        lam = -basis.chi[0]
        y_star = -1.0 + eps / (c * c)
        series = u_series_scalar(c, lam, y_star + 1.0)
        assert abs(series - wkb_value(c, lam, y_star)) / abs(series) <= 0.05

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
        series = np.array([u_series_scalar(c, lam, y + 1.0) for y in ys])
        a_coeff = 1.0 / math.sqrt(2 * math.pi * c)

        def fit(b):
            # A decaying branch b exp(-c s), s = sqrt(1 - y^2), added to the
            # growing branch a exp(c s) that wkb_value returns.
            wkb = np.array([
                wkb_value(c, lam, y) * (1.0 + (b / a_coeff) * math.exp(-2.0 * c * math.sqrt(1.0 - y * y)))
                for y in ys
            ])
            return float(np.linalg.norm((wkb - series) / series))

        base = fit(0.0)
        assert base <= 0.1
        for b in (5000 * a_coeff, -5000 * a_coeff):
            assert fit(b) > 1.5 * base
        assert abs(fit(0.1 * a_coeff) - base) <= 1e-6

    def test_domain_guards(self, ops):
        basis = ops.basis(20.0, None)
        lam = -basis.chi[0]
        for y in (-1.0, 0.0, 0.5):
            with pytest.raises(DomainError):
                wkb_value(20.0, lam, y)
