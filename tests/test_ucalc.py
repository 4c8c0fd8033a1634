import math

import numpy as np
import pytest
from scipy.special import eval_legendre

import prolate_calculus
from prolate_calculus import (
    DomainError,
    SeriesStallError,
    boundary_ratios,
    pswf_eval,
    u_series_scalar,
)
from prolate_calculus import RunConfig, assemble_heun_matrix, ucalc
from prolate_calculus.errors import OutOfRangeError, ProlateCalculusError
from prolate_calculus.ucalc import (
    _BLOCK,
    _RUN_LENGTH,
    _SERIES_TOL,
    K_MAX,
    SERIES_DTYPE,
    _series_rows,
    ratio_denominators,
    u_series_many,
)
from prolate_calculus.legendre import CHECKED_MODES
from prolate_calculus.verify import SUITES

_OVERFLOW_LIMIT = 1e300


class RecurrenceOverflowError(ProlateCalculusError, OverflowError):
    """Polynomial recurrence overflowed before reaching the requested degree."""

    kind = "recurrence-overflow"

    def __init__(self, message: str, last_valid_k: int):
        super().__init__(message)
        self.last_valid_k = last_valid_k


def u_operator_matrix_series(c: float, n_dim: int, xi: float, k_max: int) -> np.ndarray:
    """Literal matrix power series sum_k xi^k U_k(T) / k! on the Legendre basis.

    Independent of the spectral path: the four-term recurrence is applied to
    the banded matrix of T itself (in scaled form, so nothing overflows for
    |xi| < 2).  Cross-validates the spectral path on the certified block.
    """
    if not -2.0 < xi < 2.0:
        raise DomainError(f"xi = {xi} outside (-2, 2)")
    if k_max > K_MAX:
        raise DomainError(f"k_max capped at {K_MAX}")
    dtype = SERIES_DTYPE
    t_mat = assemble_heun_matrix(c, n_dim).to_dense().astype(dtype)
    c2 = dtype(c) * dtype(c)
    xi_d = dtype(xi)
    eye = np.eye(n_dim, dtype=dtype)
    s_m2 = np.zeros((n_dim, n_dim), dtype=dtype)
    s_m1 = np.zeros((n_dim, n_dim), dtype=dtype)
    s = eye.copy()
    total = eye.copy()
    for k in range(k_max):
        nxt = (xi_d / (2 * dtype(k + 1) ** 2)) * (
            t_mat @ s
            + (c2 + dtype(k * (k + 1))) * s
            - 2 * c2 * xi_d * s_m1
            + c2 * xi_d * xi_d * s_m2
        )
        peak = float(np.max(np.abs(nxt)))
        if not np.isfinite(peak) or peak > _OVERFLOW_LIMIT:
            raise RecurrenceOverflowError(
                f"matrix series term {k + 1} overflowed", last_valid_k=k
            )
        s_m2, s_m1, s = s_m1, s, nxt
        total += s
    return np.asarray(total, dtype=float)


def reference_series_terms(c, lambdas, xi, k_max):
    """Term-by-term generator of t_k = xi^k U_k(lambda) / k!, k = 0..k_max."""
    dtype = SERIES_DTYPE
    lam = np.asarray(lambdas, dtype=dtype).ravel()
    xi = dtype(xi)
    c2 = dtype(c) * dtype(c)
    t_m2 = np.zeros_like(lam)
    t_m1 = np.zeros_like(lam)
    t = np.ones_like(lam)
    yield t
    for k in range(k_max):
        nxt = (xi / (2 * dtype(k + 1) ** 2)) * (
            (lam + c2 + dtype(k * (k + 1))) * t - 2 * c2 * xi * t_m1 + c2 * xi * xi * t_m2
        )
        t_m2, t_m1, t = t_m1, t, nxt
        yield t


def reference_series_many(c, lambdas, xi, tol=1e-12, k_max=K_MAX):
    """The stop rule of u_series_many applied one term at a time.

    The blocked production code must agree with it bit for bit: same sums,
    terms_used, tail and cancellation bounds, and the same stall.
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    eps = float(np.finfo(SERIES_DTYPE).eps)
    ratio = abs(xi) / 2.0
    total = np.zeros(lam.size, dtype=SERIES_DTYPE)
    max_term = np.zeros(lam.size, dtype=SERIES_DTYPE)
    run = np.zeros(lam.size, dtype=int)
    for k, term in enumerate(reference_series_terms(c, lam, xi, k_max)):
        total += term
        np.maximum(max_term, np.abs(term), out=max_term)
        small = np.abs(term) <= tol * np.maximum(np.abs(total), 1e-300)
        run = np.where(small, run + 1, 0)
        if np.all(run >= _RUN_LENGTH):
            tail = np.abs(term) * ratio / (1.0 - ratio)
            values = np.asarray(total, dtype=float)
            # Half an ulp of each returned double covers its rounding.
            return (
                values,
                k + 1,
                np.asarray(tail, dtype=float),
                np.asarray(max_term * eps, dtype=float) + 0.5 * np.spacing(np.abs(values)),
            )
    # t_0..t_{k_max} are summed: k_max + 1 terms.
    raise SeriesStallError(f"series did not converge within {k_max + 1} terms at xi={xi}")


def assert_same_series(c, lambdas, xi, tol, k_max=K_MAX):
    """u_series_many, with ucalc.K_MAX set to k_max, and the reference give
    identical bits, or the same stall."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ucalc, "K_MAX", k_max)
        try:
            expected = reference_series_many(c, lambdas, xi, tol, k_max)
        except SeriesStallError as ref_err:
            with pytest.raises(SeriesStallError) as err:
                u_series_many(c, lambdas, xi, tol=tol)
            assert str(err.value) == str(ref_err)
            return None
        values, terms_used, tail, cancel = u_series_many(c, lambdas, xi, tol=tol)
    assert terms_used == expected[1]
    for got, want in zip((values, tail, cancel), (expected[0], expected[2], expected[3])):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    return terms_used


def u_apply(basis, xi, f):
    """U(xi; T) f on orthonormal-Legendre coefficients: mode n of f scaled by
    its spectral boundary ratio."""
    return basis.psi_coeffs @ (boundary_ratios(basis, xi) * (basis.psi_coeffs.T @ f))


def block_rows(c, lambdas, xi, k_max, rows=_BLOCK):
    """The terms t_0..t_{k_max} from _series_rows, one row each, computed in
    blocks of up to ``rows`` rows, each from the last three rows of the one
    before, as u_series_many computes them."""
    lam = np.asarray(lambdas, dtype=float)
    window = np.zeros((3, lam.size), dtype=SERIES_DTYPE)
    blocks = []
    for start in range(0, k_max + 1, rows):
        count = min(rows, k_max + 1 - start)
        buf = _series_rows(c, lam, xi, window, start, count)
        assert buf.shape == (3 + count, lam.size) and np.array_equal(buf[:3], window)
        blocks.append(buf[3:])
        window = buf[-3:]
    return np.concatenate(blocks)


def recording_rows(calls):
    """A _series_rows that appends, for each u_series_many call (each run
    from start = 0), the list of the row counts it was asked for to calls."""

    def rows(c, lam, xi, window, start, count):
        if start == 0:
            calls.append([])
        calls[-1].append(count)
        return _series_rows(c, lam, xi, window, start, count)

    return rows


def blocks_and_stop(monkeypatch, c, lambdas, xi, tol, k_max=K_MAX):
    """assert_same_series' terms_used (None for a stall) and the row counts
    of the blocks u_series_many asked of _series_rows."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(ucalc, "_series_rows", recording_rows(calls))
        terms_used = assert_same_series(c, lambdas, xi, tol, k_max)
    return terms_used, calls[0]


def last_big_rows(c, lambdas, xi, tol, k_max):
    """Per point, the index of the last term t_0..t_{k_max} that is not
    small against its running sum (-1 if none), term by term."""
    terms = np.array(list(reference_series_terms(c, lambdas, xi, k_max)))
    small = np.abs(terms) <= tol * np.maximum(np.abs(np.add.accumulate(terms)), 1e-300)
    return np.array([np.flatnonzero(~column).max(initial=-1) for column in small.T])


class TestBlockedSeries:
    """u_series_many against the term-by-term reference, bit for bit."""

    @pytest.mark.parametrize("c", [0.0, 0.5, 4.0, 10.0, 15.0, 20.0, 30.0])
    @pytest.mark.parametrize("xi", [-1.2, -0.3, 1e-3, 0.05, 0.37, 0.8, 1.21, 1.5, 1.9])
    def test_bit_equal_to_reference(self, ops, c, xi):
        lam = -ops.basis(c).chi
        for tol in (1e-6, 1e-12, 1e-13, 1e-14):
            for lambdas in (lam, lam[3:4], lam[:0]):
                assert_same_series(c, lambdas, xi, tol)

    def test_terms_match_the_reference_generator(self):
        # At c = 0 and lambda = -n(n+1) the series stops at k = n: the terms
        # after it are exact zeros, of either sign, and a negative xi gives
        # most of the negative ones.  array_equal counts -0.0 equal to 0.0,
        # so the signs are compared on their own.
        cases = [
            (4.0, [-31.5, -2.0, 0.0, 14.25], 1.3),
            (4.0, [-31.5, -2.0, 0.0, 14.25], -0.7),
            (0.0, [0.0, -2.0, -6.0, -12.0, -3.0], 0.9),
            (0.0, [0.0, -2.0, -6.0, -12.0, -3.0], -0.9),
        ]
        # The terms are computed in blocks of _BLOCK rows, as u_series_many's
        # first one, and of 1 and 5 rows, so that blocks of any size chain
        # through the window with the same bits.
        negative_zeros = 0
        for c, lam, xi in cases:
            for k_max in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
                expected = np.array(list(reference_series_terms(c, lam, xi, k_max)))
                for block in (_BLOCK, 1, 5):
                    rows = block_rows(c, lam, xi, k_max, block)
                    assert rows.dtype == SERIES_DTYPE
                    assert np.array_equal(rows, expected)
                    assert np.array_equal(np.signbit(rows), np.signbit(expected))
                negative_zeros += int(np.sum(np.signbit(expected) & (expected == 0)))
        assert negative_zeros > 0

    def test_blocks_have_the_stated_shape(self):
        # _series_rows(..., window, start, rows) returns a (3 + rows, points)
        # array: the window it was given, then t_start..t_{start+rows-1}, with
        # t_0 = 1 set at start = 0.  Its last three rows are the next block's
        # window, so blocks of 64, 1, 64, 5 and 66 rows give t_0..t_{3*64+7}.
        lam, k_max = [-1.0, -2.0], 3 * _BLOCK + 7
        window = np.zeros((3, 2), dtype=SERIES_DTYPE)
        blocks, start = [], 0
        for rows in (_BLOCK, 1, _BLOCK, 5, _BLOCK + 2):
            buf = _series_rows(1.0, np.asarray(lam), 0.5, window, start, rows)
            assert buf.dtype == SERIES_DTYPE and buf.shape == (3 + rows, 2)
            assert np.array_equal(buf[:3], window)
            blocks.append(buf[3:])
            window, start = buf[-3:], start + rows
        assert start == k_max + 1 and np.array_equal(blocks[0][0], [1.0, 1.0])
        assert np.array_equal(np.concatenate(blocks), np.array(list(reference_series_terms(1.0, lam, 0.5, k_max))))

    def test_stops_on_and_around_block_edges(self, monkeypatch):
        # u_series_many asks _series_rows for _BLOCK rows first; each later
        # block holds the rows up to the earliest possible stop, at most
        # _RUN_LENGTH of them, so a call computes max(_BLOCK, terms_used)
        # terms.  The grid stops inside the first block, on its last row, on
        # the first row after it, and at the end of the second and of a
        # later block.
        found = set()
        for xi in np.linspace(0.3, 1.8, 151):
            terms_used, blocks = blocks_and_stop(monkeypatch, 1.0, [-2.5, 7.0], float(xi), 1e-12)
            assert sum(blocks) == max(_BLOCK, terms_used)
            assert blocks[0] == _BLOCK and all(0 < rows <= _RUN_LENGTH for rows in blocks[1:])
            offset = terms_used - _BLOCK
            found.add(offset if offset in (0, 1) else "first" if offset < 0 else min(len(blocks), 4))
        assert found == {"first", 0, 1, 2, 3, 4}
        # With no points every run is long enough at once: the first term.
        terms_used, blocks = blocks_and_stop(monkeypatch, 1.0, [], 0.5, 1e-12)
        assert terms_used == 1 and blocks == [_BLOCK]

    @pytest.mark.parametrize("c", [0.5, 4.0, 8.0, 10.0, 12.0, 15.0, 18.0, 20.0, 22.0, 25.0, 30.0])
    def test_translation_suite_computes_no_term_past_the_stop(self, monkeypatch, c):
        # Each of the suite's series calls asks _series_rows for
        # max(min(_BLOCK, K_MAX + 1), terms_used) terms, over three seeds'
        # draws of xi.
        blocks, stops = [], []

        def counting(*args, **kwargs):
            result = u_series_many(*args, **kwargs)
            stops.append(result[1])
            return result

        monkeypatch.setattr(ucalc, "_series_rows", recording_rows(blocks))
        monkeypatch.setattr(ucalc, "u_series_many", counting)
        for seed in (1234, 1, 2):  # the suite itself, also past its stated range
            SUITES["translation"](RunConfig(c=c, seed=seed))
        assert len(blocks) == len(stops) == 30
        assert [sum(rows) for rows in blocks] == [max(min(_BLOCK, K_MAX + 1), used) for used in stops]

    def test_k_max_caps_the_terms_exactly(self):
        c, lam, xi, tol = 1.0, [-2.5, 7.0], 1.2, 1e-12
        terms_used = assert_same_series(c, lam, xi, tol)
        assert terms_used % _BLOCK not in (0, 1)
        # K_MAX + 1 terms are allowed: enough at K_MAX = terms_used - 1.
        assert assert_same_series(c, lam, xi, tol, k_max=terms_used - 1) == terms_used
        assert assert_same_series(c, lam, xi, tol, k_max=terms_used - 2) is None

    @pytest.mark.parametrize("k_max", [0, 1, 45, _BLOCK + 1, 399])
    def test_stall_after_exactly_k_max_plus_one_terms(self, monkeypatch, k_max):
        terms_used, blocks = blocks_and_stop(monkeypatch, 1.0, [-2.0], 1.99, 1e-13, k_max)
        assert terms_used is None and sum(blocks) == k_max + 1

    @pytest.mark.parametrize("k_max, xi", [(_BLOCK + 5, 1.17), (3 * _BLOCK + 7, 1.755), (400, 1.887)])
    @pytest.mark.parametrize("lambdas", [[7.0, -2.5], [-2.5, 7.0]])
    def test_stall_named_from_an_earlier_block(self, monkeypatch, k_max, xi, lambdas):
        # K_MAX cuts the last block short of the earliest possible stop, and
        # every point's last term that was not small lies in an earlier
        # block: the stall comes after exactly K_MAX + 1 terms, with the
        # reference's message.
        terms_used, blocks = blocks_and_stop(monkeypatch, 1.0, lambdas, xi, 1e-12, k_max)
        assert terms_used is None and sum(blocks) == k_max + 1
        assert last_big_rows(1.0, lambdas, xi, 1e-12, k_max).max() < k_max + 1 - blocks[-1]


class TestUPolyTable:
    """U_k values read off the scaled series terms: at xi = 1, t_k = U_k / k!."""

    @staticmethod
    def terms(c, lambdas, k_max):
        return block_rows(c, lambdas, 1.0, k_max)

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
        assert u_series_scalar(1.0, -17.3, 0.0) == 1.0
        _, terms_used, tail, _ = u_series_many(1.0, [-17.3], 0.0)
        assert terms_used == 1
        assert tail[0] == 0.0

    def test_domain_and_tol_errors(self):
        for xi in (-2.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                u_series_scalar(1.0, -1.0, xi)
        with pytest.raises(DomainError):
            u_series_many(1.0, [-1.0], 0.5, tol=0.0)

    def test_a_sum_past_the_double_range_is_refused(self):
        # U(1; 0) at c = 600 sums to -7.1e316 in extended precision, past the
        # largest double: refused, not cast to -inf with a RuntimeWarning.
        with pytest.raises(OutOfRangeError, match="exceeds the double range"):
            u_series_many(600.0, [-2.0, 0.0], 1.0)
        with pytest.raises(OutOfRangeError):
            u_series_scalar(600.0, 0.0, 1.0)
        assert np.all(np.isfinite(u_series_many(500.0, [-2.0, 0.0], 1.0)[0]))

    def test_series_stall_near_open_endpoint(self, monkeypatch):
        # K_MAX = 400 sums the 401 terms t_0..t_400, and the message names them.
        monkeypatch.setattr(ucalc, "K_MAX", 400)
        with pytest.raises(SeriesStallError, match=r"^series did not converge within 401 terms at xi=1\.99$"):
            u_series_many(1.0, [-2.0], 1.99, tol=1e-13)
        assert assert_same_series(1.0, [-2.0], 1.99, 1e-13, k_max=400) is None

    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_c_zero_equals_legendre_translation(self, m):
        lam = -m * (m + 1)
        for xi in (0.25, 0.5, 1.0, 1.5):
            series = u_series_scalar(0.0, lam, xi)
            oracle = eval_legendre(m, -1 + xi) / eval_legendre(m, -1)
            assert abs(series - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_half_translation_of_first_legendre(self):
        assert abs(u_series_scalar(0.0, -2.0, 0.5) - 0.5) <= 1e-14

    def test_against_pswf_ratio_at_c_one(self, ops):
        basis = ops.basis(1.0, 64)
        series = u_series_scalar(1.0, -basis.chi[0], 0.7)
        oracle = pswf_eval(basis, 0, -0.3) / ratio_denominators(basis)[0]
        assert abs(series - oracle) <= 1e-8

    def test_tail_estimate_covers_truth(self):
        coarse, _, tail, _ = u_series_many(1.0, [-2.5], 1.2, tol=1e-6)
        fine = u_series_scalar(1.0, -2.5, 1.2)
        assert abs(coarse[0] - fine) <= max(tail[0], 1e-6)

    def test_term_decay_bound(self, ops):
        # |xi^k U_k / k!|^(1/k) stays below |xi|/2 + 0.05 for k in [100, 300].
        basis = ops.basis(1.0, 64)
        lam = -basis.chi[0]
        terms = [float(abs(t[0])) for t in block_rows(1.0, [lam], 1.5, 300)]
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
                f1 = u_series_scalar(c, lam, h)
                f2 = u_series_scalar(c, lam, 2 * h)
                deriv = (-3 * f0 + 4 * f1 - f2) / (2 * h)
                assert abs(deriv - (lam + c * c) / 2) <= 1e-6 * max(1.0, abs(lam))

    def test_translation_chain_consistency(self, ops, rng):
        # Ratio at xi1+xi2 factors through the intermediate point.
        basis = ops.basis(1.0, 64)
        for _ in range(10):
            xi1, xi2 = rng.uniform(0.1, 0.8, size=2)
            for n in (0, 3):
                lam = -basis.chi[n]
                direct = u_series_scalar(1.0, lam, xi1 + xi2)
                first = u_series_scalar(1.0, lam, xi1)
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

    @pytest.mark.parametrize("c", [0.0, 0.5, 4.0, 10.0, 15.0, 20.0, 25.0])
    @pytest.mark.parametrize("xi", [0.05, 0.8, 1.5, 1.95])
    def test_series_sums_the_certified_modes_only(self, ops, c, xi):
        # The slowest mode summed sets the stop term of all, so a sum over
        # more modes stops later, and each mode moves by at most its own tail
        # and cancellation bounds.  Over the certified modes instead of all
        # N, the checked modes do not move a bit on this grid; modes 19, 25
        # and 26 do at c = 25, xi = 1.5 (test_a_sum_depends_on_its_batch).
        basis = ops.basis(c)
        m = basis.n_certified
        series = boundary_ratios(basis, xi, method="series")
        assert series.shape == (CHECKED_MODES,)
        assert np.array_equal(series, u_series_many(c, -basis.chi[:CHECKED_MODES], xi, tol=_SERIES_TOL)[0])
        certified, _, tail, cancel = u_series_many(c, -basis.chi[:m], xi, tol=_SERIES_TOL)
        all_modes = u_series_many(c, -basis.chi, xi, tol=_SERIES_TOL)[0]
        assert np.array_equal(certified[:CHECKED_MODES], all_modes[:CHECKED_MODES])
        assert np.all(np.abs(certified - all_modes[:m]) <= tail + cancel)

    def test_two_stops_differ_within_both_bounds(self, ops):
        # At c = 4, xi = 1.95 mode 2 of the nine-mode sum and of the
        # certified-mode sum differ by one ulp (2.2e-16 at 1.0075), more than
        # the extended-precision sums' bounds (4.5e-17 for the nine-mode
        # call); the half ulp of rounding to double in each call's
        # cancellation bound covers it.
        basis = ops.basis(4.0)
        nine, _, nine_tail, nine_cancel = u_series_many(4.0, -basis.chi[:CHECKED_MODES], 1.95, tol=_SERIES_TOL)
        certified, _, tail, cancel = u_series_many(4.0, -basis.chi[: basis.n_certified], 1.95, tol=_SERIES_TOL)
        gap = abs(nine[2] - certified[2])
        assert gap == np.spacing(nine[2]) and 1.0 < nine[2] < 2.0
        assert gap <= nine_tail[2] + nine_cancel[2] + tail[2] + cancel[2]
        assert np.all(np.abs(nine - certified[:CHECKED_MODES]) <= nine_tail + nine_cancel + tail[:CHECKED_MODES] + cancel[:CHECKED_MODES])
        assert np.all(nine_cancel >= 0.5 * np.spacing(np.abs(nine)))

    def test_a_sum_depends_on_its_batch(self, ops):
        # u_series_many stops every point at one shared term, so at c = 25,
        # xi = 1.5 the sums over the certified modes and over all N differ
        # in the last bits of modes 19, 25 and 26, and nowhere else.
        basis = ops.basis(25.0)
        m = basis.n_certified
        certified = u_series_many(25.0, -basis.chi[:m], 1.5, tol=_SERIES_TOL)[0]
        all_modes = u_series_many(25.0, -basis.chi, 1.5, tol=_SERIES_TOL)[0]
        assert np.flatnonzero(certified != all_modes[:m]).tolist() == [19, 25, 26]

    @pytest.mark.parametrize("c", np.linspace(0.0, 26.0, 14))
    def test_the_identity_modes_alone_sum_to_the_same_bits(self, ops, c):
        # The sum over modes 0..8 stops before the one over every certified
        # mode.  The terms it skips are below _SERIES_TOL of each sum and on
        # this grid move no bit; from c = 27 with xi near 1.5 they move some
        # by 1 to 15 ulps, inside the 9-mode sum's tail and cancellation
        # bounds.
        basis = ops.basis(c)
        for xi in np.linspace(0.05, 1.5, 16):
            nine = boundary_ratios(basis, xi, method="series")
            certified = u_series_many(c, -basis.chi[: basis.n_certified], xi, tol=_SERIES_TOL)[0]
            assert np.array_equal(nine, certified[:CHECKED_MODES]), xi

    def test_n_modes_outside_the_certified_modes_is_refused(self, ops):
        # The series path sums the checked modes, which N = 16 does not certify.
        with pytest.raises(DomainError, match="N = 16 certifies 8 modes"):
            boundary_ratios(ops.basis(1.0, 16), 0.8, method="series")
        assert boundary_ratios(ops.basis(1.0, 18), 0.8, method="series").shape == (CHECKED_MODES,)

    @pytest.mark.parametrize("c", [4.0, 17.6658])
    def test_translation_suite_sums_the_identity_modes_only(self, monkeypatch, c):
        calls = []

        def counting(c, lambdas, xi, **kwargs):
            calls.append(np.size(lambdas))
            return u_series_many(c, lambdas, xi, **kwargs)

        monkeypatch.setattr(ucalc, "u_series_many", counting)
        SUITES["translation"](RunConfig(c=c))  # the suite itself, also past its stated range
        assert calls == [CHECKED_MODES] * 10

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
    """U(xi; T) as an operator, built from the boundary ratios in one line."""

    def test_identity_at_xi_zero(self, ops):
        basis = ops.basis(1.0, 64)
        ratios = boundary_ratios(basis, 0.0, method="series")
        assert np.array_equal(ratios, np.ones(CHECKED_MODES))

    def test_linearity(self, ops, rng):
        basis = ops.basis(1.0, 64)
        f = rng.standard_normal(64)
        g = rng.standard_normal(64)
        a, b = 0.7, -1.3
        lhs = u_apply(basis, 0.9, a * f + b * g)
        rhs = a * u_apply(basis, 0.9, f) + b * u_apply(basis, 0.9, g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_eigenmode_scaling(self, ops):
        # U(0.4; T) psi_2 = (psi_2(-0.6)/psi_2(-1)) psi_2.
        basis = ops.basis(1.0, 64)
        f = basis.psi_coeffs[:, 2].astype(float)
        out = u_apply(basis, 0.4, f)
        scale = pswf_eval(basis, 2, -0.6) / ratio_denominators(basis)[2]
        assert np.max(np.abs(out - scale * f)) <= 1e-10

    def test_reflection_via_spectral_path(self, ops, rng, reflect):
        basis = ops.basis(1.0, 64)
        f = rng.standard_normal(64)
        out = u_apply(basis, 2.0, f)
        mirrored = reflect(64).entries @ f
        assert np.max(np.abs(out - mirrored.real)) <= 1e-9

    def test_scales_by_the_spectral_ratios(self, ops, rng):
        # Mode n of U(0.9; T) f is mode n of f times the ratio, which the
        # series gives independently on the checked modes.
        basis = ops.basis(1.0, 64)
        f = rng.standard_normal(64)
        n = slice(CHECKED_MODES)
        out = (basis.psi_coeffs.T @ u_apply(basis, 0.9, f))[n]
        series = boundary_ratios(basis, 0.9, method="series")[n]
        assert np.max(np.abs(out - series * (basis.psi_coeffs.T @ f)[n])) <= 1e-10

    @pytest.mark.parametrize("xi", [-0.5, 2.0 + 1e-9])
    def test_rejects_xi_outside_closed_interval(self, ops, xi):
        basis = ops.basis(1.0, 64)
        with pytest.raises(DomainError):
            u_apply(basis, xi, np.ones(64))


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
    """U(y+1; lambda) solves [(1-y^2) d^2 - 2y d - c^2 y^2 - lambda] U = 0 on
    (-1, 1) with U = 1 at y = -1, which pins the series down as the boundary
    solution of the two-variable problem."""

    @staticmethod
    def residual(c, lam, y_grid, h=1e-3):
        # Fourth-order centred differences of the series: O(h^4) plus its tolerance.
        d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
        d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
        out = []
        for y in y_grid:
            xi = y + 1.0 + h * np.arange(-2, 3)
            f = np.array([u_series_many(c, [lam], x, tol=1e-13)[0][0] for x in xi])
            du, d2u = (d1 @ f) / h, (d2 @ f) / h**2
            out.append((1.0 - y * y) * d2u - 2.0 * y * du - (c * c * y * y + lam) * f[2])
        return np.array(out)

    def test_c_zero_exact_linear_solution(self):
        resid = self.residual(0.0, -2.0, [-0.5, 0.0, 0.5])
        assert np.max(np.abs(resid)) <= 1e-9

    def test_prolate_mode_solution(self, ops):
        basis = ops.basis(1.0, 64)
        resid = self.residual(1.0, -basis.chi[0], [-0.7, -0.3, 0.3, 0.7])
        assert np.max(np.abs(resid)) <= 1e-6
