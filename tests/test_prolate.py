import dataclasses
import json
import math

import numpy as np
import pytest

from prolate_calculus import (
    ConventionViolationError,
    DomainError,
    OutOfRangeError,
    RunConfig,
    assemble_heun_matrix,
    gauss_legendre_rule,
    pswf_eval,
    solve_prolate,
)
from prolate_calculus import cli, prolate
from prolate_calculus.nystrom import nystrom_chi
from prolate_calculus.prolate import sinc_kernel
from prolate_calculus.ucalc import ratio_denominators

# The bandwidths of the CLI's exit-code contract, and c = 0.
CONTRACT_C = (0.0, 0.5, 4.0, 8.0, 10.0, 12.0, 15.0, 18.0, 20.0, 22.0, 25.0, 30.0, 40.0)


def nystrom_psi_value(result, n, x):
    """Eigenfunction value anywhere in [-1,1] via the interpolation formula.

    ``n`` is one mode index or an array of them; an array adds a trailing
    mode axis to the result.
    """
    x = np.asarray(x, dtype=float)
    k = sinc_kernel(result.c, x[..., None], result.rule.nodes)
    return (k * result.rule.weights) @ result.psi_nodes[:, n] / result.mu[n]


class TestHeunMatrix:
    def test_c_zero_reduces_to_legendre_operator(self):
        mat = assemble_heun_matrix(0.0, 4)
        np.testing.assert_array_equal(mat.bands[0], [0.0, -2.0, -6.0, -12.0])
        assert np.all(mat.bands[1:] == 0.0)

    def test_corner_entry_is_minus_c2_third(self):
        # Oracle: -c^2 * integral x^2 Pbar_0^2 = -c^2/3 by quadrature.
        rule = gauss_legendre_rule(8)
        oracle = -((rule.nodes**2 * 0.5) @ rule.weights)
        mat = assemble_heun_matrix(1.0, 4)
        assert abs(mat.bands[0][0] - oracle) <= 1e-14
        assert abs(oracle + 1.0 / 3.0) <= 1e-15

    def test_symmetry_and_bandwidth(self):
        dense = assemble_heun_matrix(2.0, 12).to_dense()
        assert np.array_equal(dense, dense.T)
        for k in range(3, 12):
            assert np.max(np.abs(np.diag(dense, k))) == 0.0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            assemble_heun_matrix(-1.0, 8)
        with pytest.raises(DomainError):
            assemble_heun_matrix(1.0, 3)


class TestSolveProlate:
    def test_legendre_limit(self, ops):
        basis = ops.basis(0.0, 16)
        n = np.arange(16)
        np.testing.assert_allclose(basis.chi, n * (n + 1), atol=1e-12)
        np.testing.assert_allclose(basis.psi_coeffs, np.eye(16), atol=1e-12)

    def test_pswf_is_first_legendre_at_c_zero(self, ops):
        basis = ops.basis(0.0, 16)
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(
            pswf_eval(basis, 1, x), math.sqrt(1.5) * x, atol=1e-12
        )

    def test_chi_strictly_increasing(self, ops):
        basis = ops.basis(2.0, 64)
        assert np.all(np.diff(basis.chi[:6]) > 0)
        assert np.all(np.diff(basis.chi) > 0)

    def test_chi0_against_nystrom_oracle(self, ops):
        basis = ops.basis(1.0, 64)
        oracle = nystrom_chi(ops.nystrom(1.0))[0]
        assert abs(basis.chi[0] - oracle) <= 1e-8

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0])
    def test_top8_mu_against_nystrom_oracle(self, ops, c):
        basis = ops.basis(c, 64)
        oracle = ops.nystrom(c)
        for n in range(8):
            assert abs(basis.mus[n] - oracle.mu[n]) <= 1e-8

    def test_pswf_value_against_nystrom_eigenvector(self, ops):
        basis = ops.basis(1.0, 64)
        oracle = nystrom_psi_value(ops.nystrom(1.0), 0, np.array([0.0]))[0]
        assert abs(pswf_eval(basis, 0, 0.0) - oracle) <= 1e-7

    def test_parity_of_coefficients(self, ops):
        # The parity-block eigensolve writes exact zeros off parity.
        for c in CONTRACT_C:
            basis = ops.basis(c, None)
            degrees = np.arange(basis.n_dim)
            for n in range(basis.n_dim):
                assert np.all(basis.psi_coeffs[(degrees + n) % 2 == 1, n] == 0), (c, n)

    def test_pointwise_parity(self, ops, rng):
        basis = ops.basis(1.0, 64)
        x = rng.uniform(0, 1, size=5)
        for n in range(6):
            np.testing.assert_allclose(
                pswf_eval(basis, n, -x),
                (-1.0) ** n * pswf_eval(basis, n, x),
                atol=1e-11,
            )

    def test_endpoints_nonzero_and_sign_convention(self, ops):
        basis = ops.basis(1.0, 64)
        assert np.all(np.abs(ratio_denominators(basis)[:32]) > 0)
        assert np.all(basis.endpoint_plus > 0)

    def test_spectral_residual(self, ops):
        basis = ops.basis(2.0, 64)
        matrix = assemble_heun_matrix(2.0, 64)
        for n in range(32):
            v = basis.psi_coeffs[:, n]
            resid = np.linalg.norm(matrix.matvec(v) + basis.chi[n] * v)
            assert resid <= 1e-10 * (1 + basis.chi[n])

    def test_unit_norm(self, ops):
        basis = ops.basis(5.0, 64)
        np.testing.assert_allclose(
            np.linalg.norm(basis.psi_coeffs, axis=0), 1.0, atol=1e-13
        )


class TestFourierEigenvalue:
    def test_mu_lambda_relation(self, ops):
        for c in CONTRACT_C:
            basis = ops.basis(c, None)
            assert np.array_equal(basis.mus, c / (2 * np.pi) * basis.lambdas**2), c

    def test_lambda_positive_decreasing(self, ops):
        basis = ops.basis(2.0, 64)
        lams = []
        for n in range(8):
            lams.append(basis.lambdas[n])
        assert np.all(np.array(lams) > 0)
        assert np.all(np.diff(lams) < 0)

    def test_eigenvalue_phase(self, ops):
        # i^n lambda_n, phase and magnitude, is the quotient <psi_n, F_c psi_n>.
        for c, n_dim, tol in ((1.0, 64, 1e-14), (16.0, None, 1e-12)):
            basis = ops.basis(c, n_dim)
            for n in range(5):
                q = _fourier_quotient(ops, basis, n)
                assert abs(q - (1j) ** n * basis.lambdas[n]) <= tol, (c, n)

    def test_small_c_limit_of_lambda0(self):
        basis = solve_prolate(1e-4, 64)
        assert abs(basis.lambdas[0] - 2.0) <= 1e-5
        # Independent double-quadrature oracle on numpy's rule.
        x, w = np.polynomial.legendre.leggauss(200)
        psi = pswf_eval(basis, 0, x)
        kernel = np.exp(1j * 1e-4 * np.outer(x, x))
        oracle = (w * psi) @ kernel @ (w * psi)
        assert abs(basis.lambdas[0] - oracle.real) <= 1e-10

    def test_uncertified_mode_rejected(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(IndexError):
            basis.lambdas[32]
        with pytest.raises(IndexError):
            basis.mus[32]

    def test_rayleigh_quotient_phase_structure(self, ops):
        basis = ops.basis(1.0, 64)
        for n in range(4):
            q = _fourier_quotient(ops, basis, n)
            assert abs(q / (1j) ** n - abs(q)) <= 1e-12 * abs(q)


def _fourier_quotient(ops, basis, n):
    """<psi_n, F_c psi_n> = v^T F v on the direct quadrature matrix of F_c."""
    v = basis.psi_coeffs[:, n]
    return complex(v @ ops.fourier(basis.c, basis.n_dim).entries @ v)


def _mp_parity_lambdas(c, n_dim, modes, dps=50):
    """lambda_n at ``dps`` digits from the parity blocks of the same truncated T.

    Independent of the ratio recurrence: F_c psi_n = i^n lambda_n psi_n at
    x = 0 gives lambda_n = |sqrt(2) a_0 / psi_n(0)| for even n, and its
    derivative there gives |c sqrt(2/3) a_1 / psi_n'(0)| for odd n.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        c = mp.mpf(c)
        a = [mp.mpf(k + 1) / mp.sqrt((2 * k + 1) * (2 * k + 3)) for k in range(n_dim - 1)]
        sq = [(a[k] ** 2 if k < n_dim - 1 else 0) + (a[k - 1] ** 2 if k else 0) for k in range(n_dim)]
        p_even = [mp.mpf(1)]  # P_2m(0)
        for m in range(1, n_dim // 2 + 1):
            p_even.append(-p_even[-1] * (2 * m - 1) / (2 * m))
        out = {}
        for parity in (0, 1):
            deg = list(range(parity, n_dim, 2))
            block = mp.matrix(len(deg))
            for i, k in enumerate(deg):
                block[i, i] = -k * (k + 1) - c * c * sq[k]
                if i + 1 < len(deg):
                    block[i, i + 1] = block[i + 1, i] = -c * c * a[k] * a[k + 1]
            e, q = mp.eigsy(block)
            descending = sorted(range(len(deg)), key=lambda j: -e[j])  # chi ascending
            norms = [mp.sqrt(mp.mpf(2 * k + 1) / 2) for k in deg]
            for n in (n for n in modes if n % 2 == parity):
                coef = [q[i, descending[n // 2]] for i in range(len(deg))]
                if parity == 0:
                    centre = mp.fsum(f * s * p_even[k // 2] for f, s, k in zip(coef, norms, deg))
                    out[n] = abs(mp.sqrt(2) * coef[0] / centre)
                else:
                    slope = mp.fsum(
                        f * s * k * p_even[(k - 1) // 2] for f, s, k in zip(coef, norms, deg)
                    )
                    out[n] = abs(c * mp.sqrt(mp.mpf(2) / 3) * coef[0] / slope)
        return out


class TestEagerEigenvalues:
    @pytest.mark.parametrize("c", [0.05, 1.0, 10.0, 20.0])
    def test_matches_rayleigh_quotient(self, ops, c):
        basis = ops.basis(c, None)
        for n in range(basis.n_certified):
            rayleigh = ((-1j) ** n * _fourier_quotient(ops, basis, n)).real
            assert abs(basis.lambdas[n] - rayleigh) <= 1e-14

    @pytest.mark.parametrize("c", [0.05, 1.0, 10.0, 20.0])
    def test_positive_and_mu_strictly_decreasing(self, ops, c):
        basis = ops.basis(c, None)
        assert basis.lambdas.shape == (basis.n_certified,)
        assert np.all(basis.lambdas > 0)
        assert np.all(np.diff(basis.mus) < 0)

    def test_c_zero_is_rank_one(self, ops):
        basis = ops.basis(0.0, 16)
        expected = np.zeros(8)
        expected[0] = 2.0
        np.testing.assert_allclose(basis.lambdas, expected, rtol=1e-15, atol=0.0)
        assert np.all(basis.mus == 0.0)

    @pytest.mark.parametrize("c", [1e-6, 1e-3])
    def test_small_c_tail_keeps_relative_accuracy(self, c):
        # Leading small-c law lambda_n = sqrt(pi) (n!)^2 c^n / ((2n)! Gamma(n+3/2)),
        # with a relative O(c^2) correction.
        basis = solve_prolate(c, 64)
        for n in (0, 1, 5, 20, 31):
            law = (
                math.sqrt(math.pi) * math.factorial(n) ** 2 * c**n
                / (math.factorial(2 * n) * math.gamma(n + 1.5))
            )
            assert abs(basis.lambdas[n] / law - 1) <= 0.1 * c * c

    def test_tail_relative_accuracy_against_mpmath(self, ops):
        basis = ops.basis(10.0, None)
        oracle = _mp_parity_lambdas(10.0, basis.n_dim, (20, 31))
        for n, value in oracle.items():
            assert abs(basis.lambdas[n] / float(value) - 1) <= 1e-10

    def test_agrees_with_banded_eigensolve(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for c in (0.05, 1.0, 10.0, 20.0, 30.0):
            basis = solve_prolate(c)
            w, v = scipy_linalg.eig_banded(assemble_heun_matrix(c, basis.n_dim).bands, lower=True)
            v = v[:, ::-1]
            norms = np.sqrt((2 * np.arange(basis.n_dim) + 1) / 2.0)
            v = v * np.where(norms @ v >= 0, 1.0, -1.0)
            np.testing.assert_allclose(basis.chi, -w[::-1], rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(basis.psi_coeffs, v, rtol=0.0, atol=1e-13)

    def test_sign_convention_survives_large_c(self):
        # At c = 40, psi_0(1) is below rounding; the ratios stay positive and
        # lambda_n stays at the complete-Fourier value sqrt(2 pi / c).
        basis = solve_prolate(40.0)
        assert np.all(basis.lambdas > 0)
        np.testing.assert_allclose(basis.lambdas[:5], math.sqrt(2 * math.pi / 40.0), rtol=1e-12)

    def test_ratio_against_sign_convention_raises(self, ops):
        basis = ops.basis(1.0, 64)
        flip = np.ones(64)
        flip[3] = -1.0  # psi_3(1) < 0: lambda_3/lambda_2 and lambda_4/lambda_3 turn negative
        with pytest.raises(ConventionViolationError, match="lambda_3/lambda_2"):
            prolate._fourier_magnitudes(1.0, basis.psi_coeffs * flip, basis.endpoint_plus * flip)

    def test_basis_is_frozen(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.chi = np.zeros(64)
        with pytest.raises(ValueError):
            basis.lambdas[0] = 0.0


class TestOneEndpointArray:
    def test_the_basis_keeps_one_endpoint_array(self):
        names = [field.name for field in dataclasses.fields(prolate.ProlateBasis)]
        assert [name for name in names if name.startswith("endpoint")] == ["endpoint_plus"]

    def test_readers_form_the_summed_endpoint_values(self, tmp_path):
        # Mode n has parity n, so psi_n(-1) = (-1)^n psi_n(1): as the spectral
        # ratios and the pswf table form it, it equals in value the Legendre
        # sum of the coefficients with the signs (-1)^k, for every mode, on
        # c = 0, 0.25, ..., 40, 60 and 100 at the default N.  The two can
        # differ in the sign of a zero (psi_0(-1) rounds to 0 from c = 39.25).
        out = tmp_path / "pswf.json"
        for c in (*(k / 4 for k in range(161)), 60.0, 100.0):
            basis = solve_prolate(c)
            k = np.arange(basis.n_dim)
            summed = (np.sqrt((2 * k + 1) / 2.0) * (-1.0) ** k) @ basis.psi_coeffs
            if np.all(summed):
                np.testing.assert_array_equal(ratio_denominators(basis), summed)
            else:
                with pytest.raises(OutOfRangeError):
                    ratio_denominators(basis)
            cli.cmd_pswf(RunConfig(c=c, out=str(out)))
            table = json.loads(out.read_text(encoding="utf-8"))["data"]
            np.testing.assert_array_equal(table["psi_minus1"], summed[: basis.n_certified])


class TestPswfEval:
    def test_out_of_range_mode(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(IndexError):
            pswf_eval(basis, 64, 0.0)

    def test_extrapolation_flagged(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            pswf_eval(basis, 0, 1.1)
