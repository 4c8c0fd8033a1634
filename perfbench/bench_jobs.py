"""Seeded job lists of the three workloads, and the checks on their outputs.

A job is one argv for ``prolate_calculus.cli.main``.  The bandwidths c are
drawn from the seed in fixed strata (see ``_draw``): each seed runs
different inputs, while the work of each job, which depends on c, stays
close to the same from seed to seed.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

# Headline tolerance of the fourier and sinc suites; a reconstructed
# operator export is held to the same bound against direct quadrature.
RECON_TOL = 1e-7
# Direct operators are exported with every digit (JSON floats, CSV %.17g),
# so the file must give back the matrix the program computes.
EXPORT_TOL = 1e-14
# mu_n lies in (0, 1); rounding may put the leading value one ulp past 1.
MU_SLACK = 1e-12
# Largest move of a drawn c from its stratum's centre, in stratum widths.
JITTER = 0.25


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    # Output file the job writes, and the check run on it after the first
    # pass.  A check returns (name, value, tol) records, each passing when
    # value <= tol, and raises ValueError or KeyError on a malformed file.
    out: Path | None = None
    check: Callable[[Path], list] | None = None


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, Path], list[Job]]
    # Strict: every job must exit 0.  Otherwise every outcome is recorded as
    # it is, and only a verdict that contradicts its own check records fails.
    strict: bool


def _fmt(c: float) -> str:
    return f"{c:.4f}"


def _draw(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n bandwidths on [lo, hi], the k-th in the k-th of n equal strata.

    Each lies within a quarter of the stratum's width of its centre, so a
    job's c, and with it the job's cost, moves only a little with the seed.
    """
    width = (hi - lo) / n
    return [float(_fmt(lo + (k + 0.5 + rng.uniform(-JITTER, JITTER)) * width)) for k in range(n)]


def _export(which: str, c: float, fmt: str, out: Path, variant: str | None = None) -> Job:
    argv = ("export-operator", which, "--c", _fmt(c), "--format", fmt, "--out", str(out))
    if variant is not None:
        argv += ("--variant", variant)
    return Job(argv, out, partial(check_operator, which=which, c=c, fmt=fmt))


def recon_jobs(seed: int, out_dir: Path) -> list[Job]:
    """The fourier and sinc suites, and the Fc and Qc reconstructed exports
    in both variants, at c in [0.5, 12].

    The seed picks the fourier suite's variant and the sinc suite takes the
    other one.  Six jobs keep a pass short enough to repeat about ten times
    in a run, and the median job is always one of the four exports.
    """
    rng = random.Random(seed)
    first, other = ("folded", "full") if rng.random() < 0.5 else ("full", "folded")
    jobs = []
    for (suite, variant), c in zip((("fourier", first), ("sinc", other)), _draw(rng, 0.5, 12.0, 2)):
        jobs.append(Job(("verify", "--suite", suite, "--variant", variant, "--c", _fmt(c))))
    exports = [(w, v) for w in ("Fc-reconstructed", "Qc-reconstructed") for v in ("folded", "full")]
    for (which, variant), c in zip(exports, _draw(rng, 0.5, 12.0, 4)):
        jobs.append(_export(which, c, "json", out_dir / f"job{len(jobs):02d}.json", variant))
    return jobs


def spectra_jobs(seed: int, out_dir: Path) -> list[Job]:
    """Eigenvalue tables, the Nystrom oracle, the commutation and small-c
    suites, and direct operator exports in JSON and CSV: no ratio work.

    32 short jobs, so that the median job is set by many samples rather
    than by the c of one or two jobs.
    """
    rng = random.Random(seed)
    jobs = []

    def out(fmt):
        return out_dir / f"job{len(jobs):02d}.{fmt}"

    for c, fmt in zip(_draw(rng, 0.5, 20.0, 8), (None, None, "json", "csv") * 2):
        if fmt is None:
            jobs.append(Job(("pswf", "--c", _fmt(c))))
        else:
            path = out(fmt)
            argv = ("pswf", "--c", _fmt(c), "--format", fmt, "--out", str(path))
            jobs.append(Job(argv, path, partial(check_table, kind="pswf", fmt=fmt)))
    for c, fmt in zip(_draw(rng, 2.0, 20.0, 4), ("json", "csv") * 2):
        path = out(fmt)
        argv = ("nystrom", "--c", _fmt(c), "--format", fmt, "--out", str(path))
        jobs.append(Job(argv, path, partial(check_table, kind="nystrom", fmt=fmt)))
    for c in _draw(rng, 0.5, 20.0, 4):
        jobs.append(Job(("verify", "--suite", "commutation", "--c", _fmt(c))))
    for c in _draw(rng, 0.01, 0.1, 4):
        jobs.append(Job(("verify", "--suite", "limits-small", "--c", _fmt(c))))
    for which in ("T", "Fc", "Qc"):
        for c, fmt in zip(_draw(rng, 0.5, 20.0, 4), ("json", "csv") * 2):
            jobs.append(_export(which, c, fmt, out(fmt)))
    return jobs


def range_edge_jobs(seed: int, out_dir: Path) -> list[Job]:
    """Inputs at and past the edge of the valid c range, and malformed argv.

    Several of these FAIL, are refused, or end in a traceback today; they
    are kept so that a change to any of those outcomes shows.
    """
    rng = random.Random(seed)
    jobs = []
    for c in _draw(rng, 5.0, 20.0, 4):
        cli_seed = str(rng.randrange(1_000_000))
        jobs.append(Job(("verify", "--suite", "translation", "--c", _fmt(c), "--seed", cli_seed)))
    for c in _draw(rng, 5.0, 20.0, 2):
        jobs.append(Job(("verify", "--suite", "limits-large", "--c", _fmt(c))))
    for suite in ("fourier", "sinc"):
        for c in ("15", "20"):
            jobs.append(Job(("verify", "--suite", suite, "--c", c)))
    for c in _draw(rng, 22.0, 30.0, 2):
        jobs.append(Job(("pswf", "--c", _fmt(c))))
    jobs.append(Job(("pswf", "--c", "nan")))
    jobs.append(Job(("verify", "--suite", "translation", "--c", "inf")))
    jobs.append(Job(("verify", "--suite", "fourier", "--n-trunc", "10")))
    return jobs


WORKLOADS = {
    "recon": Workload(recon_jobs, strict=True),
    "spectra": Workload(spectra_jobs, strict=True),
    "range-edge": Workload(range_edge_jobs, strict=False),
}


def _load_operator(path: Path, fmt: str) -> np.ndarray:
    if fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        dim = int(payload["params"]["dim"])
        pairs = np.array(payload["data"], dtype=float).reshape(dim * dim, 2)
    else:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["row", "col", "re", "im"]:
            raise ValueError(f"unexpected CSV header {rows[0]}")
        body = np.array(rows[1:], dtype=float)
        dim = int(round(np.sqrt(body.shape[0])))
        index = np.indices((dim, dim)).reshape(2, -1).T
        if body.shape[0] != dim * dim or not np.array_equal(body[:, :2], index):
            raise ValueError("CSV rows are not the row-major entries of a square matrix")
        pairs = body[:, 2:]
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(dim, dim)


def check_operator(path: Path, which: str, c: float, fmt: str) -> list[tuple[str, float, float]]:
    """Compare an exported operator with the direct matrix at the same c."""
    from prolate_calculus.legendre import default_truncation
    from prolate_calculus.prolate import assemble_heun_matrix
    from prolate_calculus.transforms import finite_fourier_direct, sinc_kernel_direct

    entries = _load_operator(path, fmt)
    n_dim = default_truncation(c)
    if entries.shape != (n_dim, n_dim):
        raise ValueError(f"operator shape {entries.shape}, expected N={n_dim}")
    if which == "T":
        ref = assemble_heun_matrix(c, n_dim).to_dense()
    elif which.startswith("Fc"):
        ref = finite_fourier_direct(c, n_dim).entries
    else:
        ref = sinc_kernel_direct(c, n_dim).entries
    rel = float(np.linalg.norm(entries - ref) / np.linalg.norm(ref))
    if which.endswith("-reconstructed"):
        return [(f"export reconstruction vs direct (N={n_dim})", rel, RECON_TOL)]
    return [("export equals direct", rel, EXPORT_TOL)]


def _load_table(path: Path, fmt: str) -> dict[str, np.ndarray]:
    if fmt == "json":
        data = json.loads(path.read_text(encoding="utf-8"))["data"]
        return {name: np.array(values, dtype=float) for name, values in data.items()}
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    columns = np.array(rows[1:], dtype=float).T
    return dict(zip(rows[0], columns))


def check_table(path: Path, kind: str, fmt: str) -> list[tuple[str, float, float]]:
    """Structural checks of a pswf or nystrom table written by the CLI."""
    cols = _load_table(path, fmt)
    n, chi, mu = cols["n"], cols["chi"], cols["mu"]
    records = [
        ("row index is 0..k-1", float(np.sum(n != np.arange(n.size))), 0.0),
        ("non-finite values", float(sum(np.sum(~np.isfinite(v)) for v in cols.values())), 0.0),
        ("chi strictly increasing", -float(np.min(np.diff(chi))), 0.0),
        ("mu inside [0, 1]", float(max(np.max(mu) - 1.0, -np.min(mu))), MU_SLACK),
    ]
    if kind == "nystrom":
        records.append(("mu non-increasing", float(np.max(np.diff(mu))), MU_SLACK))
    return records
