import dataclasses
import functools
import inspect
import math
import re

import numpy as np
import pytest

from prolate_calculus import (
    DomainError,
    OperatorMatrix,
    QuadratureUnresolvedError,
    XiQuadratureUnresolvedError,
    assemble_heun_matrix,
    commutator_report,
    finite_fourier_direct,
    gauss_legendre_rule,
    legendre_table,
    reconstruct_fourier,
    reconstruct_sinc,
    sinc_kernel_direct,
    solve_prolate,
)
import prolate_calculus.transforms
import prolate_calculus.ucalc
from prolate_calculus.legendre import default_truncation, half_rule
from prolate_calculus.prolate import parity_block, sinc_kernel
from prolate_calculus.transforms import (
    _FOLDS,
    _default_q_xi,
    _fourier_weights,
    _q_order,
    _reconstruct,
    _resolved_matrices,
    _sinc_weights,
    direct_operators,
    reconstructions,
)
from prolate_calculus.ucalc import boundary_ratios, ratio_denominators
from prolate_calculus.verify import SUITES, RunConfig, run_suite


def full_grid_matrix(kernel, n_dim, q_order):
    """Oracle: the tensor quadrature unfolded, with the whole q x q kernel
    between the weighted Legendre tables on all nodes."""
    rule = gauss_legendre_rule(q_order)
    k = kernel(rule.nodes[:, None], rule.nodes[None, :])
    pw = legendre_table(n_dim - 1, rule.nodes) * rule.weights
    return pw @ k @ pw.T


def _kernels(c):
    """Name -> the kernel K(x, t) of each direct operator."""
    return {
        "Fc": lambda x, t: np.exp(1j * c * x * t),
        "Qc": lambda x, t: sinc_kernel(c, x, t),
    }


def _resolved(c, n_dim, q_order, names=("Fc", "Qc")):
    """Name -> the complex matrix of the operator ``_resolved_matrices``
    returns for it, all of ``names`` from one pass."""
    operators = _resolved_matrices(c, [_FOLDS[name] for name in names], n_dim, q_order)
    return {name: op.entries for name, op in zip(names, operators, strict=True)}


class TestFoldedQuadrature:
    @pytest.mark.parametrize("extra", [0, 1], ids=["q", "q+1"])
    @pytest.mark.parametrize("n_dim", [10, 64, 101])
    @pytest.mark.parametrize("c", [0.5, 3.0, 7.5, 12.0, 19.0, 30.0])
    def test_matches_the_full_grid(self, c, n_dim, extra):
        # The matrix returned is the one of the drift check's finer rule.
        q_order = _q_order(c, n_dim) + extra
        folded = _resolved(c, n_dim, q_order)
        for name, kernel in _kernels(c).items():
            oracle = full_grid_matrix(kernel, n_dim, 2 * q_order)
            assert np.max(np.abs(folded[name] - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("q_order", [15, 16])
    @pytest.mark.parametrize("c", [3.0, 12.0])
    def test_coarse_rule_drift_matches_the_full_grid(self, c, q_order):
        # At an under-resolved order, odd (a centre node) or even, the
        # refusal reports the drift between the two folded rules, which the
        # unfolded sums of both orders give too.  In a shared pass the
        # kernels are checked in the order named, so the first one refuses.
        n_dim = 40
        for name, kernel in _kernels(c).items():
            oracle = full_grid_matrix(kernel, n_dim, 2 * q_order) - full_grid_matrix(kernel, n_dim, q_order)
            message = f"drift by {np.max(np.abs(oracle)):.3e} when doubling q_order={q_order}"
            for names in ((name,), (name, *({"Fc", "Qc"} - {name}))):
                with pytest.raises(QuadratureUnresolvedError, match=re.escape(message)):
                    _resolved(c, n_dim, q_order, names)

    @pytest.mark.parametrize("extra", [0, 1], ids=["q", "q+1"])
    @pytest.mark.parametrize("c", [0.5, 4.0, 12.0, 30.0])
    def test_parity_blocks_are_exact(self, c, extra, reflect):
        # Mixed-parity entries are exactly 0, the even-even block of F_c is
        # real and its odd-odd block imaginary, and R commutes with both
        # operators exactly, at the drift check's orders (q, 2q) and
        # (q + 1, 2q + 2); each block is exactly symmetric and real.
        n_dim = 40
        q_order = _q_order(c, n_dim) + extra
        m, n = np.meshgrid(np.arange(n_dim), np.arange(n_dim), indexing="ij")
        mixed = (m + n) % 2 == 1
        even = (m % 2 == 0) & (n % 2 == 0)
        odd = (m % 2 == 1) & (n % 2 == 1)
        refl = reflect(n_dim).entries
        matrices = _resolved(c, n_dim, q_order)
        for name, op in (("Fc direct", finite_fourier_direct(c, n_dim)), ("Qc direct", sinc_kernel_direct(c, n_dim))):
            for block in (op.even, op.odd):
                assert block.dtype == float and np.array_equal(block, block.T), name
            matrices[name] = op.entries
        for name, entries in matrices.items():
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
        assert np.array_equal(entries, entries.T)
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
            _reconstruct(basis, ("folded",), 6, _fourier_weights, 1j)

    def test_reconstructions_return_checked_lists(self, ops):
        # Like direct_operators, a reconstruction pass checks every variant
        # before it returns, one operator per variant in the order named.
        assert not inspect.isgeneratorfunction(reconstructions)
        assert not inspect.isgeneratorfunction(_reconstruct)
        built = reconstructions(ops.basis(1.0, 64), "Fc", ("folded", "full"))
        assert isinstance(built, list)
        assert [op.odd_phase for op in built] == [1j, 1j]

    def test_each_variant_is_checked_when_it_is_reached(self, ops):
        # At c = 1, N = 64 and q_xi = 16 the folded rules resolve the mode
        # integrals and the full ones, on twice the interval, do not: a call
        # that names both refuses at the full variant, in either order.
        basis = ops.basis(1.0, 64)
        assert len(_reconstruct(basis, ("folded",), 16, _fourier_weights, 1j)) == 1
        for variants in (("folded", "full"), ("full", "folded")):
            with pytest.raises(XiQuadratureUnresolvedError, match="drift by 1.405e-01 "):
                _reconstruct(basis, variants, 16, _fourier_weights, 1j)

    @pytest.mark.parametrize("suite, first", [("sinc", "Qc"), ("commutation", "Fc")])
    def test_a_shared_direct_pass_refuses_in_the_suites_order(self, monkeypatch, suite, first):
        # At c = 3, N = 40, q = 15 both kernels drift, by different amounts:
        # the sinc suite reports Q_c's drift and the commutation suite F_c's.
        with pytest.raises(QuadratureUnresolvedError) as alone:
            _resolved(3.0, 40, 15, (first,))
        monkeypatch.setattr(prolate_calculus.transforms, "_q_order", lambda c, n_dim: 15)
        with pytest.raises(QuadratureUnresolvedError) as shared:
            run_suite(suite, RunConfig(c=3.0, n_trunc=40))
        assert str(shared.value) == str(alone.value)

    def test_the_fourier_suite_refuses_in_its_order(self, monkeypatch):
        # At c = 1, N = 64 and q_xi = 16 the folded rules resolve and the
        # full ones refuse.  The chosen variant is checked first, then the
        # other variant, then the direct F_c.
        transforms = prolate_calculus.transforms
        monkeypatch.setattr(transforms, "_default_q_xi", lambda c, n_dim: 16)
        monkeypatch.setattr(transforms, "_q_order", lambda c, n_dim: 4)
        config = RunConfig(c=1.0, n_trunc=64)
        for variant in ("full", "folded"):
            with pytest.raises(XiQuadratureUnresolvedError, match="drift by 1.405e-01 "):
                run_suite("fourier", dataclasses.replace(config, variant=variant))
        monkeypatch.undo()
        monkeypatch.setattr(transforms, "_q_order", lambda c, n_dim: 4)
        with pytest.raises(QuadratureUnresolvedError, match="when doubling q_order=4"):
            run_suite("fourier", config)

    def test_the_fourier_suite_refuses_before_the_direct_pass(self, monkeypatch):
        # At c = 20 the full variant's xi quadrature refuses: both variants'
        # refusals come before any direct quadrature.  The suite itself runs,
        # past the stated range at which run_suite refuses it.
        def no_direct_pass(*args):
            raise AssertionError("the direct F_c was built before a refusal")

        monkeypatch.setattr(prolate_calculus.transforms, "finite_fourier_direct", no_direct_pass)
        for variant in ("folded", "full"):
            with pytest.raises(XiQuadratureUnresolvedError):
                SUITES["fourier"](RunConfig(c=20.0, variant=variant))

    @pytest.mark.parametrize("n_trunc", [18, 0], ids=["N=18", "default N"])
    @pytest.mark.parametrize("c", [0.5, 10.0, 20.0, 40.0])
    def test_the_direct_fc_is_resolved_on_the_fourier_suites_inputs(self, monkeypatch, c, n_trunc):
        # The direct F_c drifts by at most 1e-12, far inside its 1e-9
        # tolerance, on the fourier suite's inputs, so running it after
        # both variants cannot move a refusal on an input it accepts.
        monkeypatch.setattr(prolate_calculus.transforms, "_DRIFT_TOL", 1e-12)
        finite_fourier_direct(c, RunConfig(c=c, n_trunc=n_trunc).n_dim)

    def test_nan_drifts_are_refused(self, ops):
        # NaN > tol is False; both drift guards must still refuse, the
        # direct one on either block of a block fold.
        for parity in (0, 1):
            def fold(c, x, t):
                kernels = [np.zeros(np.broadcast(x, t).shape) for _ in range(2)]
                kernels[parity][...] = np.nan
                return kernels

            with pytest.raises(QuadratureUnresolvedError):
                _resolved_matrices(1.0, [(fold, 1)], 8, 16)
        with pytest.raises(XiQuadratureUnresolvedError):
            _reconstruct(
                ops.basis(1.0, 64), ("folded",), 16,
                lambda c, nodes: (np.full((nodes.size, 1), np.nan),) * 2, 1j,
            )

    def test_graceful_degradation(self, ops):
        # Halving the node count changes the answer beyond tolerance only
        # when the internal doubling check fires (and raises).
        basis = ops.basis(1.0, 64)
        (full,) = _reconstruct(basis, ("folded",), 44, _fourier_weights, 1j)
        (half,) = _reconstruct(basis, ("folded",), 22, _fourier_weights, 1j)
        drift = np.linalg.norm((full.entries - half.entries)[:32, :32])
        assert drift <= 1e-7

    def test_variant_validation(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            reconstruct_fourier(basis, "diagonal")


def _plus_zero(values):
    return (values == 0) & ~np.signbit(values)


class TestReconstructedParityBlocks:
    # At the default N, N + 24 (an export's enlarged basis) and N + 25:
    # even and odd N.
    @pytest.mark.parametrize("extra", [0, 24, 25])
    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("c", [0.5, 4.0, 12.3, 15.5])
    def test_each_block_has_its_exact_phase(self, ops, c, variant, extra):
        # F_c: a real even-even block and an imaginary odd-odd block; Q_c:
        # real.  Every part the exact operator does not have is +0.0.
        n_dim = default_truncation(c) + extra
        basis = ops.basis(c, n_dim)
        m, n = np.meshgrid(np.arange(n_dim), np.arange(n_dim), indexing="ij")
        mixed = (m + n) % 2 == 1
        odd = (m % 2 == 1) & (n % 2 == 1)
        fourier = reconstruct_fourier(basis, variant).entries
        assert np.all(_plus_zero(fourier.real[mixed | odd]))
        assert np.all(_plus_zero(fourier.imag[~odd]))
        assert np.all(fourier.real[~mixed & ~odd] != 0) and np.all(fourier.imag[odd] != 0)
        sinc = reconstruct_sinc(basis, variant).entries
        assert np.all(_plus_zero(sinc.imag))
        assert np.all(_plus_zero(sinc.real[mixed]))


def _heun(c, n_dim):
    """T as its two tridiagonal parity blocks, as the commutation suite builds it."""
    bands = assemble_heun_matrix(c, n_dim).bands
    return OperatorMatrix(parity_block(bands, 0), parity_block(bands, 1))


def _dense_commutator(a, b, block):
    """Oracle: the relative commutator of the complex matrices on the leading block."""
    a, b = a.entries, b.entries
    comm = (a @ b - b @ a)[:block, :block]
    return np.linalg.norm(comm) / (np.linalg.norm(a[:block, :block]) * np.linalg.norm(b[:block, :block]))


class TestCommutators:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0])
    def test_heun_commutes_with_both_transforms(self, ops, c):
        t_op = _heun(c, 64)
        assert commutator_report(t_op, ops.fourier(c, 64), 32) <= 1e-8
        assert commutator_report(t_op, ops.sinc(c, 64), 32) <= 1e-8

    def test_reflection_commutes_with_heun(self, reflect):
        t_op = _heun(2.0, 64)
        assert commutator_report(reflect(64), t_op, 32) <= 1e-12

    @pytest.mark.parametrize("phase", [1, 1j])
    def test_commutator_detects_noncommuting_pair(self, phase):
        # Multiplication by x^2 commutes with x -> -x but not with T; the
        # block commutators give the complex matrices' commutator.
        from prolate_calculus.legendre import position_offdiag

        t_op = _heun(2.0, 64)
        a = position_offdiag(63)
        x_squared = np.linalg.matrix_power(np.diag(a, 1) + np.diag(a, -1), 2)
        x_op = OperatorMatrix(x_squared[0::2, 0::2], x_squared[1::2, 1::2], phase)
        for block in (32, 33, 64):
            value = commutator_report(t_op, x_op, block)
            assert value > 1e-3
            assert abs(value - _dense_commutator(t_op, x_op, block)) <= 1e-14 * value

    def test_block_validation(self, ops):
        # The bound is the side of the entries.
        t_op = _heun(1.0, 64)
        commutator_report(t_op, ops.fourier(1.0, 64), 64)
        for block in (0, 65):
            with pytest.raises(DomainError, match=r"block must lie in 1\.\.64"):
                commutator_report(t_op, ops.fourier(1.0, 64), block)

    def test_operators_of_different_sizes_are_refused(self, ops):
        with pytest.raises(DomainError, match="share a dimension"):
            commutator_report(_heun(1.0, 64), ops.fourier(1.0, 32), 16)


# The two-recurrence route: each rule of a drift check builds its own
# Legendre table and evaluates both kernel folds, and each xi rule asks for
# its own ratio table.  The operators must keep its bits.

def two_recurrence_direct(kernel, odd_phase, n_dim, q_order, legendre):
    """The (even, odd) blocks, each rule with its own Legendre table and two
    kernel evaluations, K(y, y') and K(y, -y'), whose sum and difference /
    odd_phase are taken as real arrays and multiplied as real products."""
    blocks = []
    for order in (q_order, 2 * q_order):
        y, v = half_rule(gauss_legendre_rule(order))
        k_plus = kernel(y[:, None], y[None, :])
        k_minus = kernel(y[:, None], -y[None, :])
        k_even = (k_plus + k_minus).real
        k_odd = (k_plus - k_minus).imag if odd_phase == 1j else (k_plus - k_minus).real
        pw = legendre(n_dim - 1, y) * v
        even, odd = pw[0::2], pw[1::2]
        blocks.append((2.0 * (even @ k_even @ even.T), 2.0 * (odd @ k_odd @ odd.T)))
    coarse, fine = blocks
    assert max(np.max(np.abs(f - g)) for f, g in zip(fine, coarse)) <= 1e-9
    return [0.5 * (f + f.T) for f in fine]


def two_recurrence_ratios(basis, nodes, legendre):
    return (basis.psi_coeffs.T @ legendre(basis.n_dim - 1, -1.0 + nodes)) / ratio_denominators(basis)[:, None]


def two_recurrence_reconstruction(basis, variant, weights_on, odd_phase, legendre):
    """((even, odd), None), or (None, drift) when the xi-doubling check refuses.

    Each xi rule builds its own Legendre table, and the mode integrals of
    each parity p are the real moment products Psi_p^T (L_p (v W_p)) /
    psi_p(-1), W_p the real and imaginary parts of the weight of that
    parity.  Each block sums the part of the coarse rule's integrals that
    the exact operator has: the real part, or the imaginary part for the
    odd modes of F_c (odd_phase 1j)."""
    q_xi = _default_q_xi(basis.c, basis.n_dim)
    half = 0.5 if variant == "folded" else 1.0
    psi = [basis.psi_coeffs[p::2, p::2] for p in (0, 1)]
    endpoints = ratio_denominators(basis)
    integrals = []
    for order in (q_xi, 2 * q_xi):
        rule = gauss_legendre_rule(order)
        nodes = half * (rule.nodes + 1.0)
        weights = half * rule.weights
        table = legendre(basis.n_dim - 1, -1.0 + nodes)
        plus, minus = weights_on(basis.c, nodes)
        columns = (plus, plus) if variant == "full" else (plus + minus, plus - minus)
        integrals.append([
            (psi[p].T @ (table[p::2] @ (weights[:, None] * columns[p]))) / endpoints[p::2, None]
            for p in (0, 1)
        ])
    coarse, fine = integrals
    certified = basis.n_certified
    counts = ((certified + 1) // 2, certified // 2)
    drift = max(
        float(np.max(np.sqrt(np.sum((f[:m] - g[:m]) ** 2, axis=1)), initial=0.0))
        for f, g, m in zip(fine, coarse, counts)
    )
    if not drift <= 1e-9:
        return None, drift
    kept = (coarse[0][:, 0], coarse[1][:, 1 if odd_phase == 1j else 0])
    blocks = [(psi_p * values) @ psi_p.T for psi_p, values in zip(psi, kept)]
    return [0.5 * (b + b.T) for b in blocks], None


def ratio_route_reconstruction(basis, variant, name, legendre):
    """The reconstruction as the spectral ratio tables gave it, without the
    drift check: the coarse rule's (modes x xi) table of psi_n(-1 + xi) /
    psi_n(-1) times the complex xi weights, the folded variant adding
    (-1)^n times the reflected weight, each mode keeping the part its block
    has, summed per parity block."""
    c = basis.c
    half = 0.5 if variant == "folded" else 1.0
    rule = gauss_legendre_rule(_default_q_xi(c, basis.n_dim))
    nodes, weights = half * (rule.nodes + 1.0), half * rule.weights
    if name == "Fc":
        plus = np.exp(1j * c * (1.0 - nodes))
        minus = np.conj(plus)
    else:
        plus, minus = sinc_kernel(c, nodes, 0.0) + 0j, sinc_kernel(c, 2.0, nodes) + 0j
    ratios = two_recurrence_ratios(basis, nodes, legendre)
    values = ratios @ (weights * plus)
    if variant == "folded":
        values += (-1.0) ** np.arange(basis.n_dim) * (ratios @ (weights * minus))
    kept = [values[0::2].real, values[1::2].imag if name == "Fc" else values[1::2].real]
    psi = [basis.psi_coeffs[p::2, p::2] for p in (0, 1)]
    blocks = [(psi_p * part) @ psi_p.T for psi_p, part in zip(psi, kept)]
    return OperatorMatrix(*(0.5 * (b + b.T) for b in blocks), 1j if name == "Fc" else 1)


def complex_matrix_direct(kernel, n_dim, q_order, legendre):
    """The direct route as it was when every operator was a complex N x N
    array: each rule's blocks from products with the kernel sums as they
    come (complex for F_c), placed in an N x N matrix of zeros, the drift
    checked on the whole matrix, (A + A^T) / 2 taken of it and the result
    cast to complex."""
    matrices = []
    for order in (q_order, 2 * q_order):
        y, v = half_rule(gauss_legendre_rule(order))
        k_plus = kernel(y[:, None], y[None, :])
        k_minus = kernel(y[:, None], -y[None, :])
        pw = legendre(n_dim - 1, y) * v
        even, odd = pw[0::2], pw[1::2]
        block_even = 2.0 * (even @ (k_plus + k_minus) @ even.T)
        block_odd = 2.0 * (odd @ (k_plus - k_minus) @ odd.T)
        entries = np.zeros((n_dim, n_dim), dtype=np.result_type(block_even, block_odd))
        entries[0::2, 0::2] = block_even
        entries[1::2, 1::2] = block_odd
        matrices.append(entries)
    coarse, fine = matrices
    assert np.max(np.abs(fine - coarse)) <= 1e-9
    return (0.5 * (fine + fine.T)).astype(complex)


def assert_blocks_are_its_parts(op, entries):
    """The blocks of ``op`` are the parts of the complex matrix ``entries``
    bit for bit, the real even-even part and the odd-odd part of its phase,
    and every other part of ``entries`` is +0.0."""
    odd_part = entries.imag if op.odd_phase == 1j else entries.real
    assert op.even.tobytes() == entries.real[0::2, 0::2].tobytes()
    assert op.odd.tobytes() == odd_part[1::2, 1::2].tobytes()
    rest = entries.copy()
    rest.real[0::2, 0::2] = 0.0
    (rest.imag if op.odd_phase == 1j else rest.real)[1::2, 1::2] = 0.0
    assert np.all(_plus_zero(rest.view(float)))


# c = 0.5 and 4 give N = 64 and q = 73 and 76; c = 12.3 gives N = 65 and
# q = 86, c = 20 N = 80 and q = 108: odd and even N and q.
BIT_GRID = [0.5, 4.0, 12.3, 20.0]


class TestOneRecurrencePerDriftCheck:
    @pytest.mark.parametrize("c", BIT_GRID)
    def test_direct_operators_keep_their_bits(self, c, legendre_recurrence):
        n_dim = default_truncation(c)
        q_order = _q_order(c, n_dim)
        for build, kernel, phase in (
            (finite_fourier_direct, lambda x, t: np.exp(1j * c * x * t), 1j),
            (sinc_kernel_direct, lambda x, t: sinc_kernel(c, x, t), 1),
        ):
            op = build(c, n_dim)
            expected = two_recurrence_direct(kernel, phase, n_dim, q_order, legendre_recurrence)
            assert op.odd_phase == phase
            assert [op.even.tobytes(), op.odd.tobytes()] == [block.tobytes() for block in expected]

    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("c", BIT_GRID)
    def test_reconstructions_keep_their_bits(self, ops, c, variant, legendre_recurrence):
        basis = ops.basis(c)
        for build, weights_on, odd_phase in (
            (reconstruct_fourier, _fourier_weights, 1j),
            (reconstruct_sinc, _sinc_weights, 1),
        ):
            expected, drift = two_recurrence_reconstruction(basis, variant, weights_on, odd_phase, legendre_recurrence)
            if expected is None:  # at c = 20 all but F_c folded: both routes refuse on the same drift
                with pytest.raises(XiQuadratureUnresolvedError, match=f"drift by {drift:.3e} "):
                    build(basis, variant)
            else:
                op = build(basis, variant)
                assert op.odd_phase == odd_phase
                assert [op.even.tobytes(), op.odd.tobytes()] == [block.tobytes() for block in expected]

    @pytest.mark.parametrize("c", BIT_GRID)
    def test_blocks_keep_the_complex_matrix_bits(self, c, legendre_recurrence):
        # Q_c's blocks are the parts of the complex N x N matrix the library
        # built before it held blocks, bit for bit.  F_c's real block
        # products round differently from the complex ones, by at most
        # 3.4e-16 of max|F_c| on this grid.
        n_dim = default_truncation(c)
        q_order = _q_order(c, n_dim)
        sinc = complex_matrix_direct(lambda x, t: sinc_kernel(c, x, t), n_dim, q_order, legendre_recurrence)
        assert_blocks_are_its_parts(sinc_kernel_direct(c, n_dim), sinc)
        fourier = complex_matrix_direct(lambda x, t: np.exp(1j * c * x * t), n_dim, q_order, legendre_recurrence)
        moved = np.max(np.abs(finite_fourier_direct(c, n_dim).entries - fourier))
        assert moved <= 4 * np.finfo(float).eps * np.max(np.abs(fourier))

    @pytest.mark.parametrize("extra", [0, 24], ids=["N", "N+24"])
    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("c", BIT_GRID)
    def test_moments_agree_with_the_ratio_tables(self, ops, c, variant, extra, legendre_recurrence):
        # The moment products and the ratio tables are two orders of one
        # sum.  Each divides a mode's integral by psi_n(-1), so rounding of
        # order eps max|entry| grows by 1 / min|psi_n(-1)|; on this grid,
        # at the default N and an export's N + 24, the routes differ by at
        # most 1.11 times eps max|entry| / min|psi_n(-1)|.
        basis = ops.basis(c, default_truncation(c) + extra)
        scale = np.finfo(float).eps / np.min(np.abs(basis.endpoint_plus))
        built = 0
        for name, build in (("Fc", reconstruct_fourier), ("Qc", reconstruct_sinc)):
            try:
                op = build(basis, variant)
            except XiQuadratureUnresolvedError:  # at c = 20 only; rounding sets the drift there
                assert c == 20.0
                continue
            built += 1
            ratio = ratio_route_reconstruction(basis, variant, name, legendre_recurrence)
            size = max(np.max(np.abs(ratio.even)), np.max(np.abs(ratio.odd)))
            moved = max(np.max(np.abs(op.even - ratio.even)), np.max(np.abs(op.odd - ratio.odd)))
            assert moved <= 4 * scale * size, (name, moved / (scale * size))
        assert built or c == 20.0

    @pytest.mark.parametrize("c", BIT_GRID)
    def test_a_shared_direct_pass_keeps_each_operators_bits(self, c):
        n_dim = default_truncation(c)
        alone = {"Fc": finite_fourier_direct(c, n_dim), "Qc": sinc_kernel_direct(c, n_dim)}
        for names in (("Fc", "Qc"), ("Qc", "Fc")):
            for name, shared in zip(names, direct_operators(c, n_dim, names), strict=True):
                assert shared.entries.tobytes() == alone[name].entries.tobytes(), name

    @pytest.mark.parametrize("c", BIT_GRID[:3])  # F_c full and Q_c refuse at c = 20
    def test_one_ratio_call_for_both_variants_keeps_their_bits(self, ops, c):
        basis = ops.basis(c)
        for name, build in (("Fc", reconstruct_fourier), ("Qc", reconstruct_sinc)):
            for variants in (("folded", "full"), ("full", "folded")):
                for variant, shared in zip(variants, reconstructions(basis, name, variants), strict=True):
                    assert shared.entries.tobytes() == build(basis, variant).entries.tobytes(), (name, variant)

    def test_one_legendre_table_per_operator(self, ops, monkeypatch):
        basis = ops.basis(4.0)
        calls = []

        def counted(table):
            def wrapper(n_max, x):
                calls.append(np.shape(x))
                return table(n_max, x)

            return wrapper

        for module in (prolate_calculus.prolate, prolate_calculus.transforms, prolate_calculus.ucalc):
            monkeypatch.setattr(module, "legendre_table", counted(module.legendre_table))
        # At c = 4, N = 64 the direct rules have q = 76 and 152 nodes, 38 + 76
        # of them y >= 0, and the xi rules 44 and 88 nodes.
        builds = {
            (114,): [lambda: finite_fourier_direct(4.0, 64), lambda: sinc_kernel_direct(4.0, 64)],
            (132,): [functools.partial(build, basis, variant)
                     for build in (reconstruct_fourier, reconstruct_sinc)
                     for variant in ("folded", "full")],
        }
        for shape, group in builds.items():
            for build in group:
                calls.clear()
                build()
                assert calls == [shape]
        # A suite makes one table per pass: the xi rules of every variant it
        # reconstructs (the fourier suite's two variants: 2 x 132 nodes), and
        # the direct rules shared by every direct operator it builds.
        suites = {"sinc": [(132,), (114,)], "fourier": [(264,), (114,)], "commutation": [(114,)]}
        for suite, shapes in suites.items():
            for variant in ("folded", "full"):
                calls.clear()
                assert run_suite(suite, RunConfig(c=4.0, variant=variant)).passed
                assert calls == shapes, (suite, variant)
