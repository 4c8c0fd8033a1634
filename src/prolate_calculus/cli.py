"""Command-line front end.

Commands and the flags each one reads:
  pswf             eigenvalue/endpoint table for the prolate basis
                   --c --n-trunc --out --format
  verify           run one suite: translation, fourier, sinc, limits-small,
                   limits-large or commutation
                   --suite --c --n-trunc --variant --seed --out --format
  export-operator  write an operator matrix artifact
                   WHICH --c --n-trunc --variant --out --format
  nystrom          write the independent oracle's mu_n, chi_n for n <= 8, the
                   rows with mu_n >= 1e-10 (``legendre.MIN_MU``)
                   --c --out --format

The c each suite and the pswf and nystrom commands run at is stated once, in
``verify.C_RANGES`` (measured at the default truncation), and printed by
``verify --help``: a c outside it is refused (exit 2, ``error[out-of-range]``)
before any work, whatever N.  Inside its range limits-large still FAILs
at most c (ROADMAP item 4).  A run whose largest dense arrays would pass
``MAX_ARRAY_BYTES`` is refused (exit 2) before any work too, ahead of the
range.  The checked modes n <= 8 are ``legendre.CHECKED_MODES``, and the
Nystrom grid is decided in ``nystrom.nystrom_sinc_eigen``, which refuses a c
past ``legendre.MAX_C`` itself too.
``--variant`` selects the full or folded xi integral of the fourier and sinc
suites and of the two reconstructed operators; ``--seed`` draws the translation
suite's test points, and only its report records it.  Each check carries its
own fixed tolerance.  A flag left out takes its ``RunConfig`` default.

A command loads only the layers it runs: importing this module loads
``errors``, ``legendre`` and ``verify``, and each command imports the rest
where it calls them (the parser reads the Nystrom grid's constants for its
help from ``legendre``, and the transforms take the sinc kernel from
``prolate``), so only ``nystrom`` and the limits-large suite load the Nystrom
solver, ``pswf`` and ``nystrom`` never load the transforms, and ``pswf``
without ``--out`` never loads the writers.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time

import numpy as np

from .errors import OutOfRangeError, ProlateCalculusError
from .legendre import MAX_NODES, MIN_MU, RITZ_BUFFER, default_truncation
from .verify import C_RANGES, SUITES, RunConfig, VerificationReport, run_suite

OPERATOR_NAMES = ("T", "Fc", "Qc", "Fc-reconstructed", "Qc-reconstructed")
RECONSTRUCTED = ("Fc-reconstructed", "Qc-reconstructed")
# Largest dense arrays one run may allocate.  256 MiB holds the N x N
# eigenvectors up to N = 5792 (c = 2876 at the default N), the direct
# operators' complex kernels up to q = 4096 (c = 1349) and a reconstruction's
# Legendre table with its recurrence's coefficients up to c = 664 (an export;
# c = 470 for the fourier suite's two variants), far past every range the
# commands state; a run predicted to need more is refused before any work.
MAX_ARRAY_BYTES = 2**28

_FLAGS = {
    "--c": dict(type=float, help="bandwidth parameter"),
    "--n-trunc": dict(type=int, help="basis size (0 = auto)"),
    "--variant": dict(choices=("full", "folded")),
    "--out": dict(help="output file path"),
    "--format": dict(dest="fmt", choices=("json", "csv")),
    "--seed": dict(type=int),
}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolate-calculus",
        description="Spectral calculus for time-and-band limiting operators on [-1, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *names):
        for name in names:
            p.add_argument(name, default=argparse.SUPPRESS, **_FLAGS[name])

    p_pswf = sub.add_parser("pswf", help=f"write the eigenvalue table, at {C_RANGES['pswf']}")
    flags(p_pswf, "--c", "--n-trunc", "--out", "--format")

    p_verify = sub.add_parser("verify", help="run one verification suite")
    flags(p_verify, "--c", "--n-trunc", "--variant", "--out", "--format", "--seed")
    ranges = ", ".join(f"{suite} {C_RANGES[suite]}" for suite in SUITES)
    p_verify.add_argument(
        "--suite", choices=SUITES, required=True,
        help=f"runs at (measured at the default truncation; any other c is refused before any "
        f"work): {ranges}. limits-large passes only in a window (measured on c = 4, 4.25, ..., "
        "40: FAILs up to c = 31.25 and at 40, passes from 31.5 to 36.5 and at scattered c up to "
        "39.75), which says nothing about convergence, see ROADMAP item 4",
    )

    p_export = sub.add_parser("export-operator", help="write an operator matrix")
    p_export.add_argument("which", choices=OPERATOR_NAMES)
    flags(p_export, "--c", "--n-trunc", "--variant", "--out", "--format")

    p_ny = sub.add_parser(
        "nystrom",
        help="write oracle fixtures for mu_n, chi_n",
        description=f"Write mu_n and chi_n, n <= 8, from the Nystrom discretization of the sinc "
        f"kernel on min({MAX_NODES}, 2 N) Gauss nodes, N the default truncation of c: 128 at "
        f"c <= 12, {MAX_NODES} from c = 80. Runs at {C_RANGES['nystrom']}, refusing any other c. mu_n is "
        "within 5e-15 of the spectral mu_n up to c = 80 and 4.2e-14 up to 340 (1.2e-12 at 370). "
        "chi_n comes from a Rayleigh-Ritz step of T on the leading 2 ceil(c/pi) + "
        f"{RITZ_BUFFER} Nystrom eigenvectors: within 1.3e-13 of the spectral chi_n at c in "
        "[4, 20], 1.4e-12 up to 80, 2.5e-11 up to 340. Only the rows with mu_n >= "
        f"{MIN_MU:g} are written: below it chi_n is off (chi_8 by 8e-4 at c = 2), above it within "
        "3.3e-11 of the spectral chi_n at c in [0.25, 20]; a c that resolves no row is refused.",
    )
    flags(p_ny, "--c", "--out", "--format")
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS})


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
    1 MiB.
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


def cmd_pswf(config: RunConfig) -> VerificationReport:
    """Table of n, chi_n, lambda_n, mu_n, psi_n(+-1) plus basis invariants."""
    from .prolate import assemble_heun_matrix, solve_prolate

    start = time.perf_counter()
    basis = solve_prolate(config.c, config.n_dim)
    n_rows = basis.n_certified
    columns = {
        "n": np.arange(n_rows),
        "chi": basis.chi[:n_rows],
        "lambda": basis.lambdas,
        "mu": basis.mus,
        "psi_plus1": basis.endpoint_plus[:n_rows],
        "psi_minus1": (-1.0) ** np.arange(n_rows) * basis.endpoint_plus[:n_rows],
    }
    params = {"c": config.c, "N": basis.n_dim}
    report = VerificationReport(suite="pswf", params=params)
    matrix = assemble_heun_matrix(config.c, basis.n_dim)
    modes = basis.psi_coeffs[:, :n_rows]
    resid = matrix.matvec(modes) + basis.chi[:n_rows] * modes
    worst = 0.0
    for n in range(n_rows):
        worst = max(worst, np.linalg.norm(resid[:, n]) / (1.0 + basis.chi[n]))
    report.add("spectral residual / (1 + chi), n <= N/2", worst, 1e-10)
    smallest = float(np.min(np.abs(basis.endpoint_plus[:n_rows])))
    report.add(
        "conditioning max 1/|psi_n(-1)|, n < N/2",
        1.0 / smallest if smallest else math.inf,
        1e8,
    )
    report.add("mu strictly decreasing", float(np.max(np.diff(basis.mus))), 0.0)
    if config.out:
        from .serialize import dump_json, table_to_csv, table_to_dict

        if config.fmt == "json":
            dump_json(table_to_dict(columns, params), config.out)
        else:
            table_to_csv(columns, config.out)
    report.wall_time_s = time.perf_counter() - start
    return report


def build_operator(config: RunConfig, which: str) -> OperatorMatrix:
    from .prolate import assemble_heun_matrix, parity_block, solve_prolate
    from .transforms import (
        OperatorMatrix,
        finite_fourier_direct,
        reconstruct_fourier,
        reconstruct_sinc,
        sinc_kernel_direct,
    )

    n_dim = config.n_dim
    if which == "T":
        bands = assemble_heun_matrix(config.c, n_dim).bands
        return OperatorMatrix(parity_block(bands, 0), parity_block(bands, 1))
    if which == "Fc":
        return finite_fourier_direct(config.c, n_dim)
    if which == "Qc":
        return sinc_kernel_direct(config.c, n_dim)
    if which not in RECONSTRUCTED:
        raise ProlateCalculusError(f"unknown operator {which!r}")
    # Reconstructions are assembled on an enlarged internal basis and cut
    # back, so every exported entry is converged (mode tails are not).
    basis = solve_prolate(config.c, _enlarged_dim(config))
    build = reconstruct_fourier if which == "Fc-reconstructed" else reconstruct_sinc
    return build(basis, config.variant).leading(n_dim)


def cmd_export_operator(config: RunConfig, which: str) -> None:
    from .serialize import dump_json, operator_to_csv, operator_to_dict

    op = build_operator(config, which)
    params = {"c": config.c, "N": config.n_dim, "which": which}
    if which in RECONSTRUCTED:
        params["variant"] = config.variant
    if config.fmt == "json":
        dump_json(operator_to_dict(op, params), config.out)
    else:
        operator_to_csv(op, config.out)


def cmd_nystrom(config: RunConfig) -> None:
    from .nystrom import nystrom_chi, nystrom_sinc_eigen
    from .serialize import dump_json, table_to_csv, table_to_dict

    result = nystrom_sinc_eigen(config.c)
    rows = np.flatnonzero(result.mu >= MIN_MU)
    if not rows.size:
        raise OutOfRangeError(f"nystrom at c = {config.c:g} resolves no mode: mu_0 < {MIN_MU:g}")
    columns = {"n": rows, "mu": result.mu[rows], "chi": nystrom_chi(result)[rows]}
    params = {"c": config.c, "nodes": result.rule.nodes.size, "oracle": "nystrom"}
    if config.fmt == "json":
        dump_json(table_to_dict(columns, params), config.out)
    else:
        table_to_csv(columns, config.out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command in ("export-operator", "nystrom") and not config.out:
            raise ProlateCalculusError(f"{args.command} requires --out")
        job = vars(args).get("suite") or vars(args).get("which") or args.command
        predicted = _largest_array_bytes(job, config)
        if predicted > MAX_ARRAY_BYTES:
            # An int division raises where its quotient passes the largest
            # float; such a size reads inf.
            gib = predicted / 2**30 if predicted >> 30 <= sys.float_info.max else math.inf
            raise OutOfRangeError(
                f"{job} at c = {config.c:g} would allocate a {gib:.3g} GiB "
                f"array, past the {MAX_ARRAY_BYTES / 2**20:g} MiB limit"
            )
        if args.command in C_RANGES:  # pswf and nystrom; run_suite checks each suite
            C_RANGES[args.command].check(args.command, config.c)
        if args.command == "pswf":
            report = cmd_pswf(config)
        elif args.command == "verify":
            report = run_suite(args.suite, config)
            if config.out:
                from .serialize import dump_json, report_to_csv, report_to_dict

                if config.fmt == "json":
                    dump_json(report_to_dict(report), config.out)
                else:
                    report_to_csv(report, config.out)
        elif args.command == "export-operator":
            cmd_export_operator(config, args.which)
            print(f"wrote {args.which} (c={config.c}, N={config.n_dim}) to {config.out}")
            return 0
        elif args.command == "nystrom":
            cmd_nystrom(config)
            print(f"wrote nystrom fixtures (c={config.c}) to {config.out}")
            return 0
    except ProlateCalculusError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
