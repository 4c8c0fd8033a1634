import math

import numpy as np
import pytest

from prolate_calculus import (
    DomainError,
    OperatorMatrix,
    QuadratureUnresolvedError,
    XiQuadratureUnresolvedError,
    commutator_report,
    finite_fourier_direct,
    gauss_legendre_rule,
    heun_operator,
    legendre_table,
    reconstruct_fourier,
    reconstruct_sinc,
    sinc_kernel_direct,
    solve_prolate,
)
from prolate_calculus.nystrom import sinc_kernel
from prolate_calculus.transforms import (
    _fourier_weights,
    _q_order,
    _reconstruct,
    _resolved_matrix,
    _tensor_quadrature_matrix,
)
from prolate_calculus.ucalc import boundary_ratios


def full_grid_matrix(kernel, n_dim, q_order):
    """Oracle: the tensor quadrature unfolded, with the whole q x q kernel
    between the weighted Legendre tables on all nodes."""
    rule = gauss_legendre_rule(q_order)
    k = kernel(rule.nodes[:, None], rule.nodes[None, :])
    pw = legendre_table(n_dim - 1, rule.nodes) * rule.weights
    return pw @ k @ pw.T


def _kernels(c):
    return {
        "Fc": lambda x, t: np.exp(1j * c * x * t),
        "Qc": lambda x, t: sinc_kernel(c, x, t),
    }


class TestFoldedQuadrature:
    @pytest.mark.parametrize("extra", [0, 1], ids=["q", "q+1"])
    @pytest.mark.parametrize("n_dim", [10, 64, 101])
    @pytest.mark.parametrize("c", [0.5, 3.0, 7.5, 12.0, 19.0, 30.0])
    def test_matches_the_full_grid(self, c, n_dim, extra):
        q_order = _q_order(c, n_dim) + extra
        for kernel in _kernels(c).values():
            oracle = full_grid_matrix(kernel, n_dim, q_order)
            folded = _tensor_quadrature_matrix(kernel, n_dim, q_order)
            assert np.max(np.abs(folded - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("extra", [0, 1], ids=["q", "q+1"])
    @pytest.mark.parametrize("c", [0.5, 4.0, 12.0, 30.0])
    def test_parity_blocks_are_exact(self, c, extra, reflect):
        # Mixed-parity entries are exactly 0, the even-even block of F_c is
        # real and its odd-odd block imaginary, and R commutes with both
        # operators exactly.  The rules of order q and q+1 give an odd order
        # and an even one; the direct operators use 2q.
        n_dim = 40
        q_order = _q_order(c, n_dim) + extra
        m, n = np.meshgrid(np.arange(n_dim), np.arange(n_dim), indexing="ij")
        mixed = (m + n) % 2 == 1
        even = (m % 2 == 0) & (n % 2 == 0)
        odd = (m % 2 == 1) & (n % 2 == 1)
        refl = reflect(n_dim).entries
        matrices = {name: _tensor_quadrature_matrix(kernel, n_dim, q_order)
                    for name, kernel in _kernels(c).items()}
        matrices["Fc direct"] = finite_fourier_direct(c, n_dim).entries
        matrices["Qc direct"] = sinc_kernel_direct(c, n_dim).entries
        for name, entries in matrices.items():
            entries = entries.astype(complex)
            assert np.all(entries[mixed] == 0), name
            assert np.array_equal(refl @ entries @ refl, entries), name
            if name.startswith("Fc"):
                assert np.all(entries[even].imag == 0), name
                assert np.all(entries[odd].real == 0), name
            else:
                assert np.all(entries.imag == 0), name


class TestFourierDirect:
    def test_parity_structure(self, ops):
        # i^n structure: mixed-parity entries vanish, even-even entries are
        # real and odd-odd entries purely imaginary.
        entries = ops.fourier(1.0, 32).entries
        m, n = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        mixed = (m + n) % 2 == 1
        both_odd = (m % 2 == 1) & (n % 2 == 1)
        both_even = (m % 2 == 0) & (n % 2 == 0)
        assert np.max(np.abs(entries[mixed])) <= 1e-12
        assert np.max(np.abs(entries[both_even].imag)) <= 1e-12
        assert np.max(np.abs(entries[both_odd].real)) <= 1e-12

    def test_small_c_limit_entry(self):
        c = 1e-6
        entries = finite_fourier_direct(c, 8).entries
        assert abs(entries[0, 0] - 2.0) <= 1e-10
        mask = np.ones_like(entries, dtype=bool)
        mask[0, 0] = False
        assert np.max(np.abs(entries[mask])) <= 2 * c

    def test_eigen_action(self, ops):
        basis = ops.basis(1.0, 64)
        fourier = ops.fourier(1.0, 64)
        for n in range(9):
            target = (1j) ** n * basis.lambdas[n]
            v = basis.psi_coeffs[:, n].astype(complex)
            resid = np.max(np.abs(fourier.entries @ v - target * v))
            assert resid <= 1e-9

    def test_adjoint_factorization(self, ops):
        # Forced by the defining kernels: Q = (c / 2 pi) F* F.
        for c in (1.0, 2.0):
            fourier = ops.fourier(c, 64)
            sinc = ops.sinc(c, 64)
            resid = np.linalg.norm(
                (c / (2 * np.pi)) * fourier.entries.conj().T @ fourier.entries
                - sinc.entries
            )
            assert resid <= 1e-9


class TestSincDirect:
    def test_symmetry(self, ops):
        entries = ops.sinc(1.0, 64).entries
        assert np.max(np.abs(entries - entries.T)) <= 1e-12
        assert np.max(np.abs(entries.imag)) == 0.0

    def test_eigen_action_gives_mu(self, ops):
        basis = ops.basis(1.0, 64)
        sinc = ops.sinc(1.0, 64)
        for n in range(9):
            v = basis.psi_coeffs[:, n].astype(complex)
            resid = np.max(np.abs(sinc.entries @ v - basis.mus[n] * v))
            assert resid <= 1e-9

    def test_trace_identity(self, ops):
        # Oracle: integral of the diagonal kernel c/pi over [-1,1] = 2c/pi.
        rule = gauss_legendre_rule(16)
        oracle = np.full(16, 1.0 / math.pi) @ rule.weights
        trace = float(np.trace(ops.sinc(1.0, 64).entries).real)
        assert abs(trace - oracle) <= 1e-6

    def test_spectrum_inside_unit_interval(self, ops):
        w = np.linalg.eigvalsh(ops.sinc(2.0, 64).entries.real)
        assert w.min() > 0.0 - 1e-13
        assert w.max() < 1.0


class TestReflect:
    def test_reflects_eigenmodes(self, ops, reflect):
        basis = ops.basis(1.0, 64)
        r = reflect(64).entries
        for n in range(6):
            v = basis.psi_coeffs[:, n].astype(complex)
            assert np.max(np.abs(r @ v - (-1.0) ** n * v)) <= 1e-12

    def test_reflection_identities_for_fourier(self, ops, reflect):
        # Flipping both variables leaves the kernel alone (R F R = F);
        # conjugating it flips one variable (conj F = R F).
        fourier = ops.fourier(1.0, 32).entries
        r = reflect(32).entries
        assert np.max(np.abs(r @ fourier @ r - fourier)) <= 1e-12
        assert np.max(np.abs(r @ fourier - fourier.conj())) <= 1e-12


class TestReconstructions:
    def test_folded_fourier_matches_direct(self, ops):
        basis = ops.basis(1.0, 64)
        recon = ops.fourier_recon(1.0, 64)
        direct = ops.fourier(1.0, 64)
        block = 32
        rel = np.linalg.norm(
            (recon.entries - direct.entries)[:block, :block]
        ) / np.linalg.norm(direct.entries[:block, :block])
        assert rel <= 1e-7

    def test_folded_sinc_matches_direct(self, ops):
        recon = ops.sinc_recon(1.0, 64)
        direct = ops.sinc(1.0, 64)
        rel = np.linalg.norm(
            (recon.entries - direct.entries)[:32, :32]
        ) / np.linalg.norm(direct.entries[:32, :32])
        assert rel <= 1e-7

    def test_full_and_folded_agree(self, ops):
        folded = ops.fourier_recon(1.0, 64, "folded")
        full = ops.fourier_recon(1.0, 64, "full")
        assert np.linalg.norm((folded.entries - full.entries)[:32, :32]) <= 1e-7

    def test_per_mode_fourier_identity(self, ops):
        basis = ops.basis(1.0, 64)
        rule = gauss_legendre_rule(48)
        nodes = 0.5 * (rule.nodes + 1.0)
        weights = 0.5 * rule.weights
        phase = np.exp(1j * (1 - nodes))
        for n in range(9):
            target = (1j) ** n * basis.lambdas[n]
            ratios = np.array(
                [boundary_ratios(basis, float(x), method="series")[n] for x in nodes]
            )
            value = (ratios * (phase + (-1.0) ** n * phase.conj())) @ weights
            assert abs(value - target) <= 1e-8

    def test_per_mode_sinc_identity(self, ops):
        basis = ops.basis(1.0, 64)
        rule = gauss_legendre_rule(48)
        nodes = 0.5 * (rule.nodes + 1.0)
        weights = 0.5 * rule.weights
        w_plus = (1.0 / np.pi) * np.sinc(nodes / np.pi)
        w_minus = (1.0 / np.pi) * np.sinc((2 - nodes) / np.pi)
        for n in range(9):
            ratios = np.array(
                [boundary_ratios(basis, float(x), method="series")[n] for x in nodes]
            )
            value = (ratios * (w_plus + (-1.0) ** n * w_minus)) @ weights
            assert abs(value - basis.mus[n]) <= 1e-8

    def test_sinc_reconstruction_vanishes_linearly_in_c(self):
        norms = {}
        for c in (0.005, 0.01):
            basis = solve_prolate(c, 64)
            norms[c] = np.linalg.norm(reconstruct_sinc(basis).entries[:32, :32])
        assert norms[0.01] <= 0.02
        assert abs(norms[0.005] / norms[0.01] - 0.5) <= 0.15

    def test_factorization_for_reconstructed_pair(self, ops):
        c = 1.0
        fourier = ops.fourier_recon(c, 64)
        sinc = ops.sinc_recon(c, 64)
        resid = np.linalg.norm(
            (
                (c / (2 * np.pi)) * fourier.entries.conj().T @ fourier.entries
                - sinc.entries
            )[:32, :32]
        )
        assert resid <= 1e-9

    def test_unresolved_xi_quadrature_raises(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(XiQuadratureUnresolvedError):
            _reconstruct(basis, "folded", 6, _fourier_weights)

    def test_nan_drifts_are_refused(self, ops):
        # NaN > tol is False; both drift guards must still refuse.
        with pytest.raises(QuadratureUnresolvedError):
            _resolved_matrix(lambda x, t: np.full(np.broadcast(x, t).shape, np.nan), 8, 16)
        with pytest.raises(XiQuadratureUnresolvedError):
            _reconstruct(
                ops.basis(1.0, 64), "folded", 16,
                lambda c, nodes: (np.full(nodes.shape, np.nan + 0j),) * 2,
            )

    def test_graceful_degradation(self, ops):
        # Halving the node count changes the answer beyond tolerance only
        # when the internal doubling check fires (and raises).
        basis = ops.basis(1.0, 64)
        full = _reconstruct(basis, "folded", 44, _fourier_weights)
        half = _reconstruct(basis, "folded", 22, _fourier_weights)
        drift = np.linalg.norm((full.entries - half.entries)[:32, :32])
        assert drift <= 1e-7

    def test_variant_validation(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            reconstruct_fourier(basis, "diagonal")


class TestCommutators:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0])
    def test_heun_commutes_with_both_transforms(self, ops, c):
        t_op = heun_operator(c, 64)
        assert commutator_report(t_op, ops.fourier(c, 64), 32) <= 1e-8
        assert commutator_report(t_op, ops.sinc(c, 64), 32) <= 1e-8

    def test_reflection_commutes_with_heun(self, reflect):
        t_op = heun_operator(2.0, 64)
        assert commutator_report(reflect(64), t_op, 32) <= 1e-12

    def test_commutator_detects_noncommuting_pair(self):
        # Position multiplication does not commute with T.
        from prolate_calculus.legendre import position_offdiag

        t_op = heun_operator(2.0, 64)
        a = position_offdiag(63)
        x_op = OperatorMatrix(64, (np.diag(a, 1) + np.diag(a, -1)).astype(complex))
        assert commutator_report(t_op, x_op, 32) > 1e-3

    def test_block_validation(self, ops):
        t_op = heun_operator(1.0, 64)
        with pytest.raises(DomainError):
            commutator_report(t_op, ops.fourier(1.0, 64), 0)

