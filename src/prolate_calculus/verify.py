"""Named verification suites behind the CLI.

Each suite builds the objects it needs from a RunConfig, measures a list of
checks and returns a VerificationReport.  Checks compare a measured value
against a tolerance with an explicit direction, so the JSON artifact is
self-describing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    bessel_i0_series,
    hermite_distance,
    small_c_diagonal_terms,
    small_c_operator,
    wkb_value,
)
from .errors import DomainError
from .legendre import CoeffVector, default_truncation
from .nystrom import nystrom_sinc_eigen
from .prolate import (
    assemble_heun_matrix,
    fourier_eigenvalue,
    fourier_rayleigh,
    solve_prolate,
)
from .transforms import (
    OperatorMatrix,
    commutator_report,
    finite_fourier_direct,
    fourier_weights,
    mode_integrals,
    reconstruct_fourier,
    reconstruct_sinc,
    reflect,
    sinc_kernel_direct,
    sinc_weights,
)
from .ucalc import boundary_ratios, u_operator_apply, u_series_scalar

SUITES = ("translation", "fourier", "sinc", "limits-small", "limits-large", "commutation")
# The fourier and sinc suites check the per-mode identity on modes 0..8,
# which must be certified (n < N // 2).
_IDENTITY_MODES = 9
# Gauss nodes of the xi rule behind the per-mode identity.
_IDENTITY_Q_XI = 64


@dataclass(frozen=True)
class RunConfig:
    """Parameters shared by every CLI command."""

    c: float = 1.0
    n_trunc: int = 0  # 0 = auto rule from the Legendre module
    tol: float | None = None  # override of the suite's headline tolerance
    variant: str = "folded"
    out: str | None = None
    fmt: str = "json"
    seed: int = 1234

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise DomainError(f"c must be finite and >= 0, got {self.c}")
        if self.n_trunc < 0:
            raise DomainError(f"n_trunc must be >= 0 (0 = auto), got {self.n_trunc}")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise DomainError(f"tolerances must be finite and positive, got {self.tol}")
        if self.fmt not in ("json", "csv"):
            raise DomainError(f"format must be json or csv, got {self.fmt!r}")
        if self.variant not in ("full", "folded"):
            raise DomainError(f"variant must be full or folded, got {self.variant!r}")

    @property
    def n_dim(self) -> int:
        return self.n_trunc if self.n_trunc > 0 else default_truncation(self.c)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    value: float
    tol: float
    direction: str = "le"  # measured <= tol ("le") or >= tol ("ge")

    @property
    def passed(self) -> bool:
        return self.value <= self.tol if self.direction == "le" else self.value >= self.tol

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        rel = "<=" if self.direction == "le" else ">="
        return f"[{mark}] {self.name}: {self.value:.6e} {rel} {self.tol:.6e}"


@dataclass
class VerificationReport:
    suite: str
    params: dict
    records: list[CheckRecord] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, name, value, tol, direction="le"):
        self.records.append(
            CheckRecord(name=name, value=float(value), tol=float(tol), direction=direction)
        )

    def summary_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        head = f"suite {self.suite}: {status} ({len(self.records)} checks, {self.wall_time_s:.2f}s)"
        return [head] + ["  " + r.line() for r in self.records]


def run_suite(suite: str, config: RunConfig) -> VerificationReport:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    runner = {
        "translation": _suite_translation,
        "fourier": _suite_fourier,
        "sinc": _suite_sinc,
        "limits-small": _suite_limits_small,
        "limits-large": _suite_limits_large,
        "commutation": _suite_commutation,
    }[suite]
    start = time.perf_counter()
    report = runner(config)
    report.wall_time_s = time.perf_counter() - start
    return report


def _report(suite, config, extra=None) -> VerificationReport:
    params = {"c": config.c, "N": config.n_dim, "seed": config.seed}
    if extra:
        params.update(extra)
    return VerificationReport(suite=suite, params=params, records=[])


def _suite_translation(config: RunConfig) -> VerificationReport:
    rep = _report("translation", config)
    tol = config.tol if config.tol is not None else (1e-10 if config.c == 0 else 1e-8)
    basis = solve_prolate(config.c, config.n_dim)
    rng = np.random.default_rng(config.seed)
    xis = rng.uniform(0.05, 1.5, size=10)
    worst = 0.0
    for xi in xis:
        series = boundary_ratios(basis, float(xi), method="series")
        spectral = boundary_ratios(basis, float(xi), method="spectral")
        worst = max(worst, float(np.max(np.abs(series - spectral)[:9])))
    rep.add("series-vs-spectral ratio, n<=8, 10 random xi", worst, tol)

    f = CoeffVector(coeffs=rng.standard_normal(basis.n_dim))
    g = CoeffVector(coeffs=rng.standard_normal(basis.n_dim))
    alpha, beta = rng.standard_normal(2)
    xi = float(rng.uniform(0.1, 1.5))
    lhs = u_operator_apply(
        basis, xi, CoeffVector(coeffs=alpha * f.coeffs + beta * g.coeffs)
    )
    rhs = alpha * u_operator_apply(basis, xi, f).coeffs + beta * u_operator_apply(
        basis, xi, g
    ).coeffs
    rep.add("linearity of U(xi;T)", np.max(np.abs(lhs.coeffs - rhs)), 1e-12)

    ident = u_operator_apply(basis, 0.0, f)
    rep.add("identity at xi = 0", np.max(np.abs(ident.coeffs - f.coeffs)), 0.0)
    return rep


def _identity_dim(config: RunConfig) -> int:
    """Basis size of a fourier/sinc run, refused before any work if too small."""
    n_dim = config.n_dim
    if n_dim // 2 < _IDENTITY_MODES:
        raise DomainError(
            f"N = {n_dim} certifies {n_dim // 2} modes; the per-mode identity "
            f"needs {_IDENTITY_MODES} (N >= {2 * _IDENTITY_MODES})"
        )
    return n_dim


def _suite_fourier(config: RunConfig) -> VerificationReport:
    rep = _report("fourier", config, {"variant": config.variant})
    tol = config.tol if config.tol is not None else 1e-7
    n_dim = _identity_dim(config)
    basis = solve_prolate(config.c, n_dim)
    direct = finite_fourier_direct(config.c, n_dim)
    recon = reconstruct_fourier(basis, config.variant)
    block = n_dim // 2
    rel = np.linalg.norm(
        (recon.entries - direct.entries)[:block, :block]
    ) / np.linalg.norm(direct.entries[:block, :block])
    rep.add(f"{config.variant} reconstruction vs direct (block {block})", rel, tol)

    measured = mode_integrals(basis, fourier_weights, config.variant, _IDENTITY_Q_XI)
    worst = max(
        abs(measured[n] - fourier_eigenvalue(basis, n)) for n in range(_IDENTITY_MODES)
    )
    rep.add("per-mode scalar identity, n<=8", worst, 1e-8)

    other = reconstruct_fourier(basis, "full" if config.variant == "folded" else "folded")
    diff = np.linalg.norm((recon.entries - other.entries)[:block, :block])
    rep.add("full vs folded variants", diff, tol)
    return rep


def _suite_sinc(config: RunConfig) -> VerificationReport:
    rep = _report("sinc", config, {"variant": config.variant})
    tol = config.tol if config.tol is not None else 1e-7
    n_dim = _identity_dim(config)
    basis = solve_prolate(config.c, n_dim)
    direct = sinc_kernel_direct(config.c, n_dim)
    recon = reconstruct_sinc(basis, config.variant)
    block = n_dim // 2
    rel = np.linalg.norm(
        (recon.entries - direct.entries)[:block, :block]
    ) / np.linalg.norm(direct.entries[:block, :block])
    rep.add(f"{config.variant} reconstruction vs direct (block {block})", rel, tol)

    measured = mode_integrals(basis, sinc_weights, config.variant, _IDENTITY_Q_XI)
    worst = max(abs(measured[n] - basis.mu(n)) for n in range(_IDENTITY_MODES))
    rep.add("per-mode scalar identity, n<=8", worst, 1e-8)

    fourier = finite_fourier_direct(config.c, n_dim)
    fact = np.linalg.norm(
        (config.c / (2 * np.pi)) * fourier.entries.conj().T @ fourier.entries
        - direct.entries
    )
    rep.add("factorization (c/2pi) F*F = Q", fact, 1e-9)

    mu = basis.mus[:_IDENTITY_MODES]
    rep.add("mu strictly decreasing", float(np.max(np.diff(mu))), 0.0)
    rep.add("mu inside (0, 1)", float(max(np.max(mu) - 1.0, -np.min(mu))), 0.0)
    return rep


def _suite_limits_small(config: RunConfig) -> VerificationReport:
    c = config.c if 0 < config.c <= 0.1 else 0.1
    rep = _report("limits-small", config, {"c_used": c})
    n_dim, k_max = 24, 30

    a_terms, b_terms = small_c_diagonal_terms(n_dim, k_max)
    rank_one = abs(a_terms[0] - 2.0) + float(np.max(np.abs(a_terms[1:])))
    rep.add("order-c^0 equals 2 x rank-one projector", rank_one, 1e-12)
    off_mode = abs(b_terms[0]) + float(np.max(np.abs(b_terms[2:])))
    rep.add("order-c^1 supported on mode 1 only", off_mode, 1e-12)

    errs = {}
    for cc in (c / 2, c):
        approx = small_c_operator(cc, n_dim, k_max)
        direct = finite_fourier_direct(cc, n_dim)
        errs[cc] = np.linalg.norm(approx.entries - direct.entries)
    ratio = errs[c / 2] / errs[c]
    rep.add("error ratio at c/2 vs c (target 1/4)", abs(ratio - 0.25), 0.08)

    approx = small_c_operator(1e-3, n_dim, k_max)
    direct = finite_fourier_direct(1e-3, n_dim)
    rep.add(
        "entrywise Taylor consistency at c = 1e-3",
        float(np.max(np.abs(approx.entries - direct.entries))),
        5e-6,
    )
    return rep


def _suite_limits_large(config: RunConfig) -> VerificationReport:
    if config.c < 4:
        raise DomainError("limits-large requires c >= 4")
    c = config.c
    rep = _report("limits-large", config, {"c_list": [c / 4, c / 2, c]})

    deltas = {}
    bases = {}
    for cc in (c / 4, c / 2, c):
        basis = solve_prolate(cc)
        bases[cc] = basis
        deltas[cc] = [abs(math.sqrt(cc / (2 * math.pi)) * basis.lam(n) - 1) for n in range(5)]
    worst_gap = max(
        max(deltas[c / 2][n] - deltas[c / 4][n], deltas[c][n] - deltas[c / 2][n])
        for n in range(5)
    )
    rep.add("sqrt(c/2pi) lambda_n -> 1 monotonically, n<=4", worst_gap, 0.0)

    basis = bases[c]
    phase = max(
        abs((np.angle(fourier_rayleigh(basis, n)) - math.pi * n / 2 + math.pi) % (2 * math.pi) - math.pi)
        for n in range(5)
    )
    rep.add("phase of <psi_n, F psi_n> vs pi n/2, n<=4", phase, 0.05)
    dist_here = hermite_distance(basis, 0)
    rep.add("hermite distance of dilated mode 0", dist_here, 0.05)
    rep.add(
        "hermite distance decreases from c/4",
        dist_here - hermite_distance(bases[c / 4], 0),
        0.0,
    )

    ny = nystrom_sinc_eigen(c / 2)
    rep.add(f"1 - mu_0({c / 2:g}) (Nystrom)", 1.0 - ny.mu[0], 1e-6)

    eps = 2.0
    series = u_series_scalar(c, -basis.chi[0], eps / (c * c), tol=1e-14).value
    rep.add(
        f"|U(eps/c^2) - I0(sqrt(2 eps))| at eps={eps:g}",
        abs(series - bessel_i0_series(math.sqrt(2 * eps))),
        0.05,
    )
    if c >= 10:
        eps_m = 30.0
        y_star = -1.0 + eps_m / (c * c)
        series_m = u_series_scalar(c, -basis.chi[0], y_star + 1.0, tol=1e-14).value
        wkb_m = wkb_value(c, -basis.chi[0], y_star)
        rep.add(
            f"WKB matching consistency at eps={eps_m:g}",
            abs(series_m - wkb_m) / abs(series_m),
            0.05,
        )
    return rep


def _suite_commutation(config: RunConfig) -> VerificationReport:
    rep = _report("commutation", config)
    tol = config.tol if config.tol is not None else 1e-8
    n_dim = config.n_dim
    block = n_dim // 2
    t_op = OperatorMatrix(
        dim=n_dim, entries=assemble_heun_matrix(config.c, n_dim).to_dense().astype(complex)
    )
    fourier = finite_fourier_direct(config.c, n_dim)
    sinc = sinc_kernel_direct(config.c, n_dim)
    refl = reflect(n_dim)
    rep.add("[T, F_c] relative commutator", commutator_report(t_op, fourier, block), tol)
    rep.add("[T, Q_c] relative commutator", commutator_report(t_op, sinc, block), tol)
    rep.add("[R, T] relative commutator", commutator_report(refl, t_op, block), 1e-12)
    return rep
