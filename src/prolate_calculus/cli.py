"""Command-line front end.

Commands:
  pswf             eigenvalue/endpoint table for the prolate basis
  verify           run one named verification suite
  export-operator  write an operator matrix artifact
  nystrom          regenerate the independent oracle fixtures for mu_n, chi_n

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import DomainError, ProlateCalculusError
from .legendre import default_truncation
from .nystrom import nystrom_chi, nystrom_sinc_eigen
from .prolate import solve_prolate, assemble_heun_matrix
from .serialize import (
    dump_json,
    operator_to_csv,
    operator_to_dict,
    report_to_csv,
    report_to_dict,
    table_to_csv,
    table_to_dict,
)
from .transforms import (
    OperatorMatrix,
    finite_fourier_direct,
    reconstruct_fourier,
    reconstruct_sinc,
    sinc_kernel_direct,
)
from .verify import SUITES, RunConfig, VerificationReport, run_suite

OPERATOR_NAMES = ("T", "Fc", "Qc", "Fc-reconstructed", "Qc-reconstructed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolate-calculus",
        description="Spectral calculus for time-and-band limiting operators on [-1, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--c", type=float, default=1.0, help="bandwidth parameter")
        p.add_argument("--n-trunc", type=int, default=0, help="basis size (0 = auto)")
        p.add_argument("--tol", type=float, default=None, help="headline tolerance override")
        p.add_argument("--variant", choices=("full", "folded"), default="folded")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=1234)

    p_pswf = sub.add_parser("pswf", help="write the eigenvalue table")
    common(p_pswf)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    common(p_verify)
    p_verify.add_argument("--suite", choices=SUITES, required=True)

    p_export = sub.add_parser("export-operator", help="write an operator matrix")
    p_export.add_argument("which", choices=OPERATOR_NAMES)
    common(p_export)

    p_ny = sub.add_parser(
        "nystrom",
        help="write oracle fixtures for mu_n, chi_n",
        description="Write mu_n and chi_n from the Nystrom discretization of the sinc "
        "kernel. chi_n is a Rayleigh quotient of T on the Nystrom eigenvectors, which "
        "are ill-conditioned where the mu_n cluster: at c = 20, n = 0, 1 it is 1.7e-3 "
        "off the spectral chi.",
    )
    common(p_ny)
    p_ny.add_argument("--n-modes", type=int, default=9)
    p_ny.add_argument("--n-nodes", type=int, default=400)
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(
        c=args.c,
        n_trunc=args.n_trunc,
        tol=args.tol,
        variant=args.variant,
        out=args.out,
        fmt=args.fmt,
        seed=args.seed,
    )


def cmd_pswf(config: RunConfig) -> VerificationReport:
    """Table of n, chi_n, lambda_n, mu_n, psi_n(+-1) plus basis invariants."""
    basis = solve_prolate(config.c, config.n_dim)
    n_rows = basis.n_certified
    columns = {
        "n": np.arange(n_rows),
        "chi": basis.chi[:n_rows],
        "lambda": basis.lambdas,
        "mu": basis.mus,
        "psi_plus1": basis.endpoint_plus[:n_rows],
        "psi_minus1": basis.endpoint_minus[:n_rows],
    }
    report = VerificationReport(
        suite="pswf", params={"c": config.c, "N": basis.n_dim}, records=[]
    )
    matrix = assemble_heun_matrix(config.c, basis.n_dim)
    worst = 0.0
    for n in range(n_rows):
        v = basis.psi_coeffs[:, n]
        resid = np.linalg.norm(matrix.matvec(v) + basis.chi[n] * v)
        worst = max(worst, resid / (1.0 + basis.chi[n]))
    report.add("spectral residual / (1 + chi), n <= N/2", worst, 1e-10)
    parity = max(
        float(np.max(np.abs(basis.psi_coeffs[(np.arange(basis.n_dim) + n) % 2 == 1, n])))
        for n in range(n_rows)
    )
    report.add("off-parity Legendre coefficients", parity, 1e-12)
    report.add("chi strictly increasing", -float(np.min(np.diff(basis.chi))), 0.0)
    report.add(
        "psi_n(-1) bounded away from zero",
        float(np.min(np.abs(basis.endpoint_minus[:n_rows]))),
        1e-8,
        direction="ge",
    )
    mu = columns["mu"]
    lam = columns["lambda"]
    report.add(
        "mu_n = c/(2 pi) lambda_n^2",
        float(np.max(np.abs(mu - config.c / (2 * np.pi) * lam**2))),
        1e-10,
    )
    report.add("lambda_n > 0, n < N/2", float(np.min(lam)), 0.0, direction="ge")
    report.add("mu strictly decreasing", float(np.max(np.diff(mu))), 0.0)
    if config.out:
        params = {"c": config.c, "N": basis.n_dim}
        if config.fmt == "json":
            dump_json(table_to_dict(columns, params), config.out)
        else:
            table_to_csv(columns, config.out)
    return report


def build_operator(config: RunConfig, which: str) -> OperatorMatrix:
    n_dim = config.n_dim
    if which == "T":
        dense = assemble_heun_matrix(config.c, n_dim).to_dense()
        return OperatorMatrix(dim=n_dim, entries=dense.astype(complex))
    if which == "Fc":
        return finite_fourier_direct(config.c, n_dim)
    if which == "Qc":
        return sinc_kernel_direct(config.c, n_dim)
    if which not in ("Fc-reconstructed", "Qc-reconstructed"):
        raise ProlateCalculusError(f"unknown operator {which!r}")
    # Reconstructions are assembled on an enlarged internal basis and cut
    # back, so every exported entry is converged (mode tails are not).
    basis = solve_prolate(config.c, max(n_dim + 24, default_truncation(config.c)))
    if which == "Fc-reconstructed":
        full = reconstruct_fourier(basis, config.variant)
    else:
        full = reconstruct_sinc(basis, config.variant)
    return OperatorMatrix(dim=n_dim, entries=full.entries[:n_dim, :n_dim].copy())


def cmd_export_operator(config: RunConfig, which: str) -> None:
    op = build_operator(config, which)
    if not config.out:
        raise ProlateCalculusError("export-operator requires --out")
    params = {"c": config.c, "N": config.n_dim, "which": which, "variant": config.variant}
    if config.fmt == "json":
        dump_json(operator_to_dict(op, params), config.out)
    else:
        operator_to_csv(op, config.out)


def cmd_nystrom(config: RunConfig, n_modes: int, n_nodes: int) -> None:
    # nystrom_chi projects onto n_nodes // 2 Legendre degrees and needs >= 4.
    if n_nodes < 8 or not 1 <= n_modes <= n_nodes:
        raise DomainError(f"need 1 <= n_modes <= n_nodes and n_nodes >= 8, got {n_modes}, {n_nodes}")
    result = nystrom_sinc_eigen(config.c, n_nodes=n_nodes, n_modes=n_modes)
    columns = {
        "n": np.arange(n_modes),
        "mu": result.mu,
        "chi": np.array([nystrom_chi(result, n) for n in range(n_modes)]),
    }
    if not config.out:
        raise ProlateCalculusError("nystrom requires --out")
    params = {"c": config.c, "nodes": n_nodes, "oracle": "nystrom"}
    if config.fmt == "json":
        dump_json(table_to_dict(columns, params), config.out)
    else:
        table_to_csv(columns, config.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "pswf":
            report = cmd_pswf(config)
        elif args.command == "verify":
            report = run_suite(args.suite, config)
            if config.out:
                if config.fmt == "json":
                    dump_json(report_to_dict(report), config.out)
                else:
                    report_to_csv(report, config.out)
        elif args.command == "export-operator":
            cmd_export_operator(config, args.which)
            print(f"wrote {args.which} (c={config.c}, N={config.n_dim}) to {config.out}")
            return 0
        elif args.command == "nystrom":
            cmd_nystrom(config, args.n_modes, args.n_nodes)
            print(f"wrote nystrom fixtures (c={config.c}) to {config.out}")
            return 0
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
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
