"""Named verification suites behind the CLI.

Each suite builds the objects it needs from a RunConfig, measures a list of
checks and returns a VerificationReport.  ``run_suite`` first refuses a c
outside the suite's stated range (``C_RANGES``, which also holds the ranges
of the ``pswf`` and ``nystrom`` commands), before any work.  Each check
passes when its measured value is at most its tolerance, so the JSON
artifact is self-describing.
A suite builds every operator it needs at one (c, N) in one pass per route
(``transforms.reconstructions``, ``transforms.direct_operators``), in that
order, so it meets every xi refusal of its reconstructions before any direct
quadrature, and each pass refuses in the order its operators are named.
Operators are compared on their real parity blocks
(``transforms.OperatorMatrix``): a Frobenius norm combines the blocks'
norms, and mode n, of parity n, is read off the block of its parity.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OutOfRangeError
from .legendre import CHECKED_MODES, MAX_C, MAX_NODES, default_truncation

# Relative error allowed to a reconstructed F_c or Q_c against direct quadrature.
_RECON_TOL = 1e-7


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one CLI command; fields it takes no flag for keep their defaults."""

    c: float = 1.0
    n_trunc: int = 0  # 0 = auto rule from the Legendre module
    variant: str = "folded"
    out: str | None = None
    fmt: str = "json"
    seed: int = 1234

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise DomainError(f"c must be finite and >= 0, got {self.c}")
        if self.n_trunc < 0:
            raise DomainError(f"n_trunc must be >= 0 (0 = auto), got {self.n_trunc}")
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

    @property
    def passed(self) -> bool:
        return self.value <= self.tol

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.value:.6e} <= {self.tol:.6e}"


@dataclass
class VerificationReport:
    suite: str
    params: dict
    records: list[CheckRecord] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, name, value, tol):
        self.records.append(CheckRecord(name=name, value=float(value), tol=float(tol)))

    def summary_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        head = f"suite {self.suite}: {status} ({len(self.records)} checks, {self.wall_time_s:.2f}s)"
        return [head] + ["  " + r.line() for r in self.records]


@dataclass(frozen=True)
class CRange:
    """The c a job runs at, low <= c <= high (low < c where ``low_open``),
    and why a c below or above it is refused."""

    low: float
    high: float
    above: str
    below: str = ""
    low_open: bool = False

    def __contains__(self, c: float) -> bool:
        return (self.low < c if self.low_open else self.low <= c) and c <= self.high

    def __str__(self) -> str:
        high = _bound(self.high)
        if self.low == 0 and not self.low_open:
            return f"c <= {high}"
        return f"{_bound(self.low)} {'<' if self.low_open else '<='} c <= {high}"

    def check(self, job: str, c: float) -> None:
        """Raise OutOfRangeError, naming ``job`` and the bound it passes, for a c outside."""
        if c in self:
            return
        if c > self.high:
            bound, why = f"c <= {_bound(self.high)}", self.above
        else:
            bound, why = f"c {'>' if self.low_open else '>='} {_bound(self.low)}", self.below
        raise OutOfRangeError(f"{job} runs at {bound}, got c = {c:g}; {why}")


def _bound(x: float) -> str:
    return f"{x:g}".replace("e-0", "e-")


_ENDPOINTS = "the range measured at the default truncation; past it, as psi_n(-1) falls like e^-c,"
# Each job's stated range of c, measured at the default truncation; a c
# outside it is refused before any work, whatever N.  The pswf and nystrom
# commands are checked in ``cli.main``, the suites in ``run_suite``.
C_RANGES: dict[str, CRange] = {
    "pswf": CRange(0, 20, f"{_ENDPOINTS} 1/|psi_n(-1)| nears its conditioning bound of 1e8"),
    "translation": CRange(0, 12, f"{_ENDPOINTS} the series and spectral ratios part by more than 1e-8"),
    "fourier": CRange(0, 18, f"{_ENDPOINTS} the xi integrals drift by more than 1e-9"),
    "sinc": CRange(0, 18, f"{_ENDPOINTS} mu_0 rounds to 1 and the xi integrals drift by more than 1e-9"),
    "limits-small": CRange(
        1e-6, 0.1,
        above="the range stated for the suite, inside the small-c expansion's own c <= 0.2",
        below="below 1e-6 the expansion error is at rounding level, so halving c cannot show its c^2 order",
    ),
    "limits-large": CRange(
        4, 2 * MAX_C,
        above=f"its Nystrom oracle runs at c/2, and the oracle's grid resolves c <= {MAX_C:g}",
        below="the suite compares the large-c limits at bandwidths c/4, c/2 and c, so c/4 must be at least 1",
    ),
    "commutation": CRange(0, 40, "the largest c measured at the default truncation"),
    "nystrom": CRange(
        0, MAX_C, f"its {MAX_NODES}-node grid loses digits of mu_n past c = 370",
        below="the sinc kernel vanishes at c = 0", low_open=True,
    ),
}


def run_suite(suite: str, config: RunConfig) -> VerificationReport:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    C_RANGES[suite].check(suite, config.c)
    start = time.perf_counter()
    report = SUITES[suite](config)
    report.wall_time_s = time.perf_counter() - start
    return report


def _report(suite, config, extra=None) -> VerificationReport:
    params = {"c": config.c, "N": config.n_dim}
    if extra:
        params.update(extra)
    return VerificationReport(suite=suite, params=params, records=[])


def _suite_translation(config: RunConfig) -> VerificationReport:
    if config.seed < 0:
        raise DomainError(f"seed must be >= 0, got {config.seed}")
    from .prolate import solve_prolate
    from .ucalc import boundary_ratios

    rep = _report("translation", config, {"seed": config.seed})
    tol = 1e-10 if config.c == 0 else 1e-8
    basis = solve_prolate(config.c, _identity_dim(config))
    rng = np.random.default_rng(config.seed)
    xis = rng.uniform(0.05, 1.5, size=10)
    worst = 0.0
    for xi in xis:
        series = boundary_ratios(basis, float(xi), method="series")
        spectral = boundary_ratios(basis, float(xi), method="spectral")[:CHECKED_MODES]
        worst = max(worst, float(np.max(np.abs(series - spectral))))
    rep.add("series-vs-spectral ratio, n<=8, 10 random xi", worst, tol)
    return rep


def _identity_dim(config: RunConfig) -> int:
    """Basis size of a run that checks modes n <= 8, refused before any work
    if those modes are not certified."""
    n_dim = config.n_dim
    if n_dim // 2 < CHECKED_MODES:
        raise DomainError(
            f"N = {n_dim} certifies {n_dim // 2} modes; the checks on modes "
            f"n <= {CHECKED_MODES - 1} need N >= {2 * CHECKED_MODES}"
        )
    return n_dim


def _suite_fourier(config: RunConfig) -> VerificationReport:
    """F_c reconstructed in the chosen variant against direct quadrature, on
    the checked modes, and against the other variant.  Both variants come
    from one pass before the direct F_c, so refusals come in the order the
    variant's xi quadrature, the other variant's, the direct F_c's."""
    from .prolate import solve_prolate
    from .transforms import finite_fourier_direct, reconstructions

    rep = _report("fourier", config, {"variant": config.variant})
    n_dim = _identity_dim(config)
    basis = solve_prolate(config.c, n_dim)
    other_variant = "full" if config.variant == "folded" else "folded"
    recon, other = reconstructions(basis, "Fc", (config.variant, other_variant))
    direct = finite_fourier_direct(config.c, n_dim)
    block = n_dim // 2
    rel = (recon - direct).leading(block).norm() / direct.leading(block).norm()
    rep.add(f"{config.variant} reconstruction vs direct (block {block})", rel, _RECON_TOL)

    # <psi_n, R psi_n> on the reconstruction R is its xi integral on mode n.
    n = np.arange(CHECKED_MODES)
    worst = np.max(np.abs(_mode_values(recon, basis.psi_coeffs[:, n]) - (1j) ** n * basis.lambdas[n]))
    rep.add("per-mode scalar identity, n<=8", worst, 1e-8)

    rep.add("full vs folded variants", (recon - other).leading(block).norm(), _RECON_TOL)
    return rep


def _mode_values(op, psi: np.ndarray) -> np.ndarray:
    """<psi_n, A psi_n> for each column psi_n of ``psi``, mode n of parity n,
    from the block of its parity."""
    values = np.empty(psi.shape[1], dtype=complex)
    for parity, block, phase in ((0, op.even, 1), (1, op.odd, op.odd_phase)):
        modes = psi[parity::2, parity::2]
        values[parity::2] = phase * np.einsum("ij,ij->j", modes, block @ modes)
    return values


def _suite_sinc(config: RunConfig) -> VerificationReport:
    """Q_c reconstructed against direct quadrature and on the checked modes,
    the factorization (c/2pi) F_c* F_c = Q_c and the order and range of mu_n.
    Direct Q_c and F_c come from one pass after the reconstruction, so
    refusals come in the order the reconstruction's xi quadrature, Q_c's
    quadrature, F_c's."""
    from .prolate import solve_prolate
    from .transforms import OperatorMatrix, direct_operators, reconstruct_sinc

    rep = _report("sinc", config, {"variant": config.variant})
    n_dim = _identity_dim(config)
    basis = solve_prolate(config.c, n_dim)
    recon = reconstruct_sinc(basis, config.variant)
    direct, fourier = direct_operators(config.c, n_dim, ("Qc", "Fc"))
    block = n_dim // 2
    # Q_0 = 0, and for c below ~1e-160 the norm of Q_c underflows to 0.
    reference = direct.leading(block).norm()
    if reference == 0:
        raise DomainError(f"Q_c has norm 0 at c = {config.c:g}; its relative error is undefined")
    rel = (recon - direct).leading(block).norm() / reference
    rep.add(f"{config.variant} reconstruction vs direct (block {block})", rel, _RECON_TOL)

    mu = basis.mus[:CHECKED_MODES]
    worst = np.max(np.abs(_mode_values(recon, basis.psi_coeffs[:, :CHECKED_MODES]) - mu))
    rep.add("per-mode scalar identity, n<=8", worst, 1e-8)

    # F_c is E on the even degrees and i O on the odd ones, so F_c* F_c is
    # E^T E and O^T O.
    scale = config.c / (2 * np.pi)
    pairs = ((fourier.even, direct.even), (fourier.odd, direct.odd))
    fact = OperatorMatrix(*(scale * f.T @ f - q for f, q in pairs)).norm()
    rep.add("factorization (c/2pi) F*F = Q", fact, 1e-9)

    rep.add("mu strictly decreasing", float(np.max(np.diff(mu))), 0.0)
    rep.add("mu inside (0, 1)", float(max(np.max(mu) - 1.0, -np.min(mu))), 0.0)
    return rep


def _suite_limits_small(config: RunConfig) -> VerificationReport:
    c = config.c
    from .asymptotics import small_c_operator
    from .transforms import finite_fourier_direct

    n_dim = 24
    rep = _report("limits-small", config, {"N": n_dim})

    errs = {}
    for cc in (c / 2, c):
        approx = small_c_operator(cc, n_dim)
        direct = finite_fourier_direct(cc, n_dim)
        errs[cc] = (approx - direct).norm()
    ratio = errs[c / 2] / errs[c]
    rep.add("error ratio at c/2 vs c (target 1/4)", abs(ratio - 0.25), 0.08)
    return rep


def _suite_limits_large(config: RunConfig) -> VerificationReport:
    """Large-c limits at c/4, c/2 and c, and the Nystrom oracle at c/2."""
    c = config.c
    from .asymptotics import bessel_limit_check, hermite_distance, oscillator_gaps, wkb_value
    from .nystrom import nystrom_sinc_eigen
    from .prolate import solve_prolate
    from .ucalc import u_series_scalar

    ny = nystrom_sinc_eigen(c / 2)
    c_list = [c / 4, c / 2, c]
    bases = {cc: solve_prolate(cc) for cc in c_list}
    rep = _report("limits-large", config, {"c_list": c_list, "N": bases[c].n_dim})
    quarter, half, full = (oscillator_gaps(bases[cc], 4) for cc in c_list)
    worst_gap = np.max(np.maximum(half - quarter, full - half))
    rep.add("sqrt(c/2pi) lambda_n -> 1 monotonically, n<=4", worst_gap, 0.0)

    basis = bases[c]
    dist_here = hermite_distance(basis, 0)
    rep.add("hermite distance of dilated mode 0", dist_here, 0.05)
    rep.add(
        "hermite distance decreases from c/4",
        dist_here - hermite_distance(bases[c / 4], 0),
        0.0,
    )

    rep.add(f"1 - mu_0({c / 2:g}) (Nystrom)", 1.0 - ny.mu[0], 1e-6)

    bessel = bessel_limit_check(c, 2.0, -basis.chi[0])
    rep.add("|U(eps/c^2) - I0(sqrt(2 eps))| at eps=2", bessel, 0.05)
    if c >= 10:
        eps_m = 30.0
        y_star = -1.0 + eps_m / (c * c)
        series_m = u_series_scalar(c, -basis.chi[0], y_star + 1.0)
        wkb_m = wkb_value(c, -basis.chi[0], y_star)
        rep.add(
            f"WKB matching consistency at eps={eps_m:g}",
            abs(series_m - wkb_m) / abs(series_m),
            0.05,
        )
    return rep


def _suite_commutation(config: RunConfig) -> VerificationReport:
    """[T, F_c] and [T, Q_c] on the leading block, block by block: T as its
    two tridiagonal parity blocks, and direct F_c and Q_c from one pass
    (F_c's quadrature checked first)."""
    from .prolate import assemble_heun_matrix, parity_block
    from .transforms import OperatorMatrix, commutator_report, direct_operators

    rep = _report("commutation", config)
    tol = 1e-8
    n_dim = config.n_dim
    block = n_dim // 2
    bands = assemble_heun_matrix(config.c, n_dim).bands
    t_op = OperatorMatrix(parity_block(bands, 0), parity_block(bands, 1))
    fourier, sinc = direct_operators(config.c, n_dim, ("Fc", "Qc"))
    rep.add("[T, F_c] relative commutator", commutator_report(t_op, fourier, block), tol)
    rep.add("[T, Q_c] relative commutator", commutator_report(t_op, sinc, block), tol)
    return rep


# Suite name -> runner, in the order the CLI lists them.
SUITES: dict[str, Callable[[RunConfig], VerificationReport]] = {
    "translation": _suite_translation,
    "fourier": _suite_fourier,
    "sinc": _suite_sinc,
    "limits-small": _suite_limits_small,
    "limits-large": _suite_limits_large,
    "commutation": _suite_commutation,
}
