import functools
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
import prolate_calculus.transforms
import prolate_calculus.ucalc
from prolate_calculus.legendre import default_truncation, half_rule
from prolate_calculus.prolate import sinc_kernel
from prolate_calculus.transforms import (
    _default_q_xi,
    _fourier_weights,
    _q_order,
    _reconstruct,
    _resolved_matrix,
    _sinc_weights,
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
    """Name -> (kernel, conjugate_fold) as the direct operators pass them."""
    return {
        "Fc": (lambda x, t: np.exp(1j * c * x * t), True),
        "Qc": (lambda x, t: sinc_kernel(c, x, t), False),
    }


class TestFoldedQuadrature:
    @pytest.mark.parametrize("extra", [0, 1], ids=["q", "q+1"])
    @pytest.mark.parametrize("n_dim", [10, 64, 101])
    @pytest.mark.parametrize("c", [0.5, 3.0, 7.5, 12.0, 19.0, 30.0])
    def test_matches_the_full_grid(self, c, n_dim, extra):
        # Both rules of a drift check come from one call, as in _resolved_matrix.
        q_order = _q_order(c, n_dim) + extra
        orders = (q_order, 2 * q_order)
        for kernel, conjugate_fold in _kernels(c).values():
            matrices = _tensor_quadrature_matrix(kernel, n_dim, orders, conjugate_fold)
            for order, folded in zip(orders, matrices, strict=True):
                oracle = full_grid_matrix(kernel, n_dim, order)
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
        matrices = {name: _tensor_quadrature_matrix(kernel, n_dim, (q_order,), conjugate_fold)[0]
                    for name, (kernel, conjugate_fold) in _kernels(c).items()}
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


# The two-recurrence route: each rule of a drift check builds its own
# Legendre table and evaluates both kernel folds, and each xi rule asks for
# its own ratio table.  The operators must keep its bits.

def two_recurrence_direct(kernel, n_dim, q_order, legendre):
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
    return fine


def two_recurrence_ratios(basis, nodes, legendre):
    return (basis.psi_coeffs.T @ legendre(basis.n_dim - 1, -1.0 + nodes)) / basis.endpoint_minus[:, None]


def two_recurrence_reconstruction(basis, variant, weights_on, legendre):
    """(entries, None), or (None, drift) when the xi-doubling check refuses."""
    q_xi = _default_q_xi(basis.c, basis.n_dim)
    half = 0.5 if variant == "folded" else 1.0
    integrals = []
    for order in (q_xi, 2 * q_xi):
        rule = gauss_legendre_rule(order)
        nodes = half * (rule.nodes + 1.0)
        weights = half * rule.weights
        w_plus, w_minus = weights_on(basis.c, nodes)
        ratios = two_recurrence_ratios(basis, nodes, legendre)
        values = ratios @ (weights * w_plus)
        if variant == "folded":
            values += (-1.0) ** np.arange(basis.n_dim) * (ratios @ (weights * w_minus))
        integrals.append(values)
    coarse, fine = integrals
    certified = basis.n_certified
    drift = float(np.max(np.abs(coarse[:certified] - fine[:certified])))
    if not drift <= 1e-9:
        return None, drift
    return (basis.psi_coeffs * coarse) @ basis.psi_coeffs.T, None


# c = 0.5 and 4 give N = 64 and q = 73 and 76; c = 12.3 gives N = 65 and
# q = 86, c = 20 N = 80 and q = 108: odd and even N and q.
BIT_GRID = [0.5, 4.0, 12.3, 20.0]


class TestOneRecurrencePerDriftCheck:
    @pytest.mark.parametrize("c", BIT_GRID)
    def test_direct_operators_keep_their_bits(self, c, legendre_recurrence):
        n_dim = default_truncation(c)
        q_order = _q_order(c, n_dim)
        fourier = two_recurrence_direct(
            lambda x, t: np.exp(1j * c * x * t), n_dim, q_order, legendre_recurrence
        )
        sinc = two_recurrence_direct(
            lambda x, t: sinc_kernel(c, x, t), n_dim, q_order, legendre_recurrence
        ).astype(complex)
        assert finite_fourier_direct(c, n_dim).entries.tobytes() == fourier.tobytes()
        assert sinc_kernel_direct(c, n_dim).entries.tobytes() == sinc.tobytes()

    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("c", BIT_GRID)
    def test_reconstructions_keep_their_bits(self, ops, c, variant, legendre_recurrence):
        basis = ops.basis(c)
        for build, weights_on in ((reconstruct_fourier, _fourier_weights), (reconstruct_sinc, _sinc_weights)):
            expected, drift = two_recurrence_reconstruction(basis, variant, weights_on, legendre_recurrence)
            if expected is None:  # F_c at c = 20: both routes refuse on the same drift
                with pytest.raises(XiQuadratureUnresolvedError, match=f"drift by {drift:.3e} "):
                    build(basis, variant)
            else:
                assert build(basis, variant).entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("c", BIT_GRID)
    def test_ratio_tables_per_rule_keep_their_bits(self, ops, c, legendre_recurrence):
        basis = ops.basis(c)
        q_xi = _default_q_xi(c, basis.n_dim)
        for half in (0.5, 1.0):
            nodes = tuple(half * (gauss_legendre_rule(q).nodes + 1.0) for q in (q_xi, 2 * q_xi))
            tables = boundary_ratios(basis, nodes, method="spectral")
            assert len(tables) == 2
            for x, table in zip(nodes, tables, strict=True):
                assert table.tobytes() == two_recurrence_ratios(basis, x, legendre_recurrence).tobytes()
                assert table.tobytes() == boundary_ratios(basis, x, method="spectral").tobytes()

    def test_one_legendre_table_per_operator(self, ops, monkeypatch):
        basis = ops.basis(4.0)
        calls = []

        def counted(table):
            def wrapper(n_max, x):
                calls.append(np.shape(x))
                return table(n_max, x)

            return wrapper

        for module in (prolate_calculus.transforms, prolate_calculus.ucalc):
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

    def test_ratio_rules_are_validated_as_one_xi(self, ops):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            boundary_ratios(basis, (np.array([0.5]), np.array([0.0, 1.0])), method="spectral")
        with pytest.raises(DomainError):
            boundary_ratios(basis, (np.array([0.5]), np.full((2, 2), 0.5)), method="spectral")
        with pytest.raises(DomainError):
            boundary_ratios(basis, (), method="spectral")
