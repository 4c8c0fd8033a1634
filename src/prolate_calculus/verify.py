"""Named verification suites behind the CLI, and the gate every job passes
before any work.

Each suite builds the objects it needs from a RunConfig, measures a list of
checks and returns a VerificationReport.  ``admit(job, config)`` makes every
refusal that needs no computed quantity, for each job (a suite, a CLI
command or an exported operator), in this order:
1. its largest dense arrays past ``MAX_ARRAY_BYTES`` (``_largest_array_bytes``);
2. a c outside its stated range, its row of ``C_RANGES``;
3. a negative translation seed;
4. a basis that certifies fewer than the checked modes n <= 8 (N < 18), for
   the translation, fourier and sinc suites.
``run_suite`` admits each suite and ``cli.main`` each other job, so the
library and the CLI refuse alike.  Refusals that need a computed quantity
(a psi_n(-1) that rounds to 0, an xi or quadrature drift, a zero reference
norm) stay with the code that computes it.  Each check passes when its
measured value is at most its tolerance, so the JSON artifact is
self-describing.
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
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OutOfRangeError
from .legendre import CHECKED_MODES, MAX_C, MAX_NODES, default_truncation

# Relative error allowed to a reconstructed F_c or Q_c against direct quadrature.
_RECON_TOL = 1e-7

OPERATOR_NAMES = ("T", "Fc", "Qc", "Fc-reconstructed", "Qc-reconstructed")
RECONSTRUCTED = ("Fc-reconstructed", "Qc-reconstructed")
# Largest dense arrays one run may allocate.  256 MiB holds the N x N
# eigenvectors up to N = 5792 (c = 2876 at the default N), the direct
# operators' complex kernels up to q = 4096 (c = 1349) and a reconstruction's
# Legendre table with its recurrence's coefficients up to c = 664 (an export;
# c = 470 for the fourier suite's two variants), far past every stated range;
# a run predicted to need more is refused before any work.
MAX_ARRAY_BYTES = 2**28


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
# Each job's stated range of c, measured at the default truncation (a
# reconstructed export's at its enlarged basis, ``_enlarged_dim``); ``admit``
# refuses a c outside it before any work, whatever N.
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
# A reconstructed export runs where the fourier and sinc suites, which check
# its reconstruction, do, for the fourier row's reason.  Measured on c = 0.25,
# 0.5, ..., 40 at the default N, each operator and variant exits 0 up to c =
# 18 (Fc folded is refused as xi-quadrature-unresolved at 16.75 and 17.5, as
# the fourier suite is), and from 18.5 some pair is refused as
# xi-quadrature-unresolved.
C_RANGES.update(dict.fromkeys(RECONSTRUCTED, C_RANGES["fourier"]))
# Jobs whose checks read modes n <= 8, refused before any work where N
# certifies fewer.
_CHECKED_MODE_JOBS = ("translation", "fourier", "sinc")


def admit(job: str, config: RunConfig) -> None:
    """Refuse ``job`` at ``config`` before any work, in the order the module
    docstring gives: the array size and the stated range raise
    OutOfRangeError, the seed and the checked modes DomainError."""
    predicted = _largest_array_bytes(job, config)
    if predicted > MAX_ARRAY_BYTES:
        # An int division raises where its quotient passes the largest
        # float; such a size reads inf.
        gib = predicted / 2**30 if predicted >> 30 <= sys.float_info.max else math.inf
        raise OutOfRangeError(
            f"{job} at c = {config.c:g} would allocate a {gib:.3g} GiB "
            f"array, past the {MAX_ARRAY_BYTES / 2**20:g} MiB limit"
        )
    if job in C_RANGES:
        C_RANGES[job].check(job, config.c)
    if job == "translation" and config.seed < 0:
        raise DomainError(f"seed must be >= 0, got {config.seed}")
    if job in _CHECKED_MODE_JOBS and config.n_dim // 2 < CHECKED_MODES:
        raise DomainError(
            f"N = {config.n_dim} certifies {config.n_dim // 2} modes; the checks on modes "
            f"n <= {CHECKED_MODES - 1} need N >= {2 * CHECKED_MODES}"
        )


def _enlarged_dim(config: RunConfig) -> int:
    """Size of the internal basis a reconstructed operator is assembled on."""
    return max(config.n_dim + 24, default_truncation(config.c))


def _largest_array_bytes(job: str, config: RunConfig) -> int:
    """Bytes of the largest dense arrays that ``job`` (a command, a suite or
    an exported operator) holds at once, one of:
    - the N x N float64 eigenvectors of T (pswf, translation, and
      limits-large at the default N of c);
    - the direct operators' complex kernel exp(icyy') on the q nodes y >= 0
      of their fine rule, q = N + ceil(c) + 8, a q x q array (Fc, Qc and
      the commutation, fourier and sinc suites);
    - a reconstruction's Legendre table over every xi rule with the
      recurrence's coefficient array (``_xi_table_bytes``): the fourier and
      sinc suites are predicted at the larger of these and their kernel,
      and a reconstructed export at these alone, on its enlarged basis of
      size Ne.  No other array of a reconstruction has a row per mode and a
      column per node, and its Ne x Ne arrays are smaller.
    T is predicted at 16 N^2, four times its two real N/2 x N/2 parity
    blocks: the size of the complex N x N array it once was, kept so that no
    refusal moves.  nystrom works on at most ``MAX_NODES`` = 400 nodes (two
    200 x 200 parity blocks) and limits-small at a fixed size, both under
    1 MiB.  Only the jobs that run a transform import ``transforms``.
    """
    c, n = config.c, config.n_dim
    if job in ("nystrom", "limits-small"):
        return 0
    if job == "limits-large":
        return 8 * default_truncation(c) ** 2
    if job in RECONSTRUCTED:
        return _xi_table_bytes(c, _enlarged_dim(config), 1)
    if job in ("pswf", "translation"):
        return 8 * n * n
    if job == "T":
        return 16 * n * n
    from .transforms import _q_order

    kernel = 16 * _q_order(c, n) ** 2  # Fc, Qc and the commutation suite
    variants = {"fourier": 2, "sinc": 1}.get(job, 0)
    return max(kernel, _xi_table_bytes(c, n, variants))


def _xi_table_bytes(c: float, n_dim: int, variants: int) -> int:
    """Bytes of the Legendre table that ``variants`` reconstructions on a
    basis of n_dim modes share, with its recurrence's coefficient array: the
    rules of q_xi and 2 q_xi nodes of each variant, n_dim values a node in
    the table and 2 n_dim in the coefficients, 8 bytes each."""
    from .transforms import _default_q_xi

    return 24 * n_dim * 3 * _default_q_xi(c, n_dim) * variants


def run_suite(suite: str, config: RunConfig) -> VerificationReport:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    admit(suite, config)
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
    from .prolate import solve_prolate
    from .ucalc import boundary_ratios

    rep = _report("translation", config, {"seed": config.seed})
    tol = 1e-10 if config.c == 0 else 1e-8
    basis = solve_prolate(config.c, config.n_dim)
    rng = np.random.default_rng(config.seed)
    xis = rng.uniform(0.05, 1.5, size=10)
    worst = 0.0
    for xi in xis:
        series = boundary_ratios(basis, float(xi), method="series")
        spectral = boundary_ratios(basis, float(xi), method="spectral")[:CHECKED_MODES]
        worst = max(worst, float(np.max(np.abs(series - spectral))))
    rep.add("series-vs-spectral ratio, n<=8, 10 random xi", worst, tol)
    return rep


def _suite_fourier(config: RunConfig) -> VerificationReport:
    """F_c reconstructed in the chosen variant against direct quadrature, on
    the checked modes, and against the other variant.  Both variants come
    from one pass before the direct F_c, so refusals come in the order the
    variant's xi quadrature, the other variant's, the direct F_c's."""
    from .prolate import solve_prolate
    from .transforms import finite_fourier_direct, reconstructions

    rep = _report("fourier", config, {"variant": config.variant})
    n_dim = config.n_dim
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
    n_dim = config.n_dim
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
