"""Print a digest of what ``prolate_calculus.cli.main`` does on a fixed grid of argvs.

One line per argv: the exit code, then the sha256 of stdout (with the wall
time of a suite's summary line stripped), of stderr and of the file the run
wrote ("-" when it wrote none), then the argv.  A run that ends in an
uncaught exception gives the exception's type in place of the exit code,
and its type and message are hashed with stderr, so the digest goes on to
the next argv.  A ``RuntimeWarning`` in a run (numpy's overflow and
invalid-value warnings) is raised as an error, so it shows as that argv's
exception.  The output path is replaced by ``OUT`` before hashing, so
two checkouts give equal lines exactly when they behave the same.  Below
each line come the run's check records: for a written JSON report, one line
per check as ``name repr(value) tol passed``; otherwise the check lines the
run printed.  Below a ``nystrom`` line come
max|mu - spectral mu| and max|chi - spectral chi| over the written rows
(n <= 8), against ``solve_prolate(c)``, so a diff that moves a table's bytes
also shows whether its values moved toward the spectral ones.  Below an
``export-operator`` line come max|E - E^T| over the written entries E and,
for a reconstructed operator, its relative Frobenius distance
|E - D|_F / |D|_F to the direct operator D of the same c and size, so a diff
that moves an operator file's bytes also shows whether the entries moved by
more than rounding.  Run it against each checkout and diff the outputs:

    PYTHONPATH=<checkout>/src python tests/argv_digest.py > digest.txt

Pytest does not collect this file.  Every argv runs in this one process, in
the order printed, so repeated runs also cover the cached quadrature rules.

With ``--series`` it prints instead one line per c in SERIES_C: c, then the
sha256 of the ``float.hex`` values of ``boundary_ratios(..., method="series")``
(the nine checked modes, which the translation suite compares) at each xi of
SERIES_XI, together with the terms used, tail and cancellation bounds of the
same nine-mode ``u_series_many`` sum, and then the sha256 of
``u_series_scalar`` of mode 0 at the limits-large suite's points
xi = 2/c^2 and 30/c^2 (c > 0).  A refusal is hashed as its error class and
message.  Diffing it between two checkouts shows whether a change to the
series kernel moved a bit or a stop term:

    PYTHONPATH=<checkout>/src python tests/argv_digest.py --series > series.txt

With ``--ranges`` it prints the range scan instead: one line per job and
variant of RANGE_JOBS, run at each c of RANGE_C = 0.25, 0.5, ..., 40 (with
``--out``, like the digest), giving the c where each outcome holds, in runs
of equal outcomes: the exit code, and for a refusal its error kind.  Diffing
it between two checkouts shows every c whose outcome moved:

    PYTHONPATH=<checkout>/src python tests/argv_digest.py --ranges > ranges.txt
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from prolate_calculus import (
    ProlateCalculusError,
    boundary_ratios,
    cli,
    finite_fourier_direct,
    sinc_kernel_direct,
    solve_prolate,
    u_series_scalar,
)
from prolate_calculus.legendre import CHECKED_MODES
from prolate_calculus.ucalc import _SERIES_TOL, u_series_many

# N = default_truncation(c) is 64 up to c = 12, then 65 at 12.3, 71 at 15.5 and
# 80 at 20: odd parity blocks and fractional c, like the benchmark's draws.
C_GRID = ("0.5", "4", "10", "12", "12.3", "15.5", "20")
# The translation suite at the benchmark's range-edge draws of c (seed 1),
# each with three seeds, and past its stated range: where the series has the
# most terms, and from c = 450, where some psi_n(-1) rounds to 0 and the
# series sums pass the double range.
TRANSLATION_C = ("6.1894", "11.2764", "14.8696", "17.6658")
TRANSLATION_SEEDS = ("1", "2", "3")
TRANSLATION_C_LARGE = ("25", "30", "34.5", "450", "500", "700")
# The series grid: c = 0, 0.5, ..., 40 and xi = 0.05, 0.06, ..., 1.5.
SERIES_C = tuple(i / 2 for i in range(81))
SERIES_XI = tuple(i / 100 for i in range(5, 151))
# The range scan's grid and its jobs, each with the argv before --c.
RANGE_C = tuple(i / 4 for i in range(1, 161))
RANGE_JOBS = {
    "pswf": ("pswf",),
    "nystrom": ("nystrom",),
    **{
        suite: ("verify", "--suite", suite)
        for suite in ("translation", "limits-small", "limits-large", "commutation")
    },
    **{
        f"{suite} {variant}": ("verify", "--suite", suite, "--variant", variant)
        for suite in ("fourier", "sinc")
        for variant in ("folded", "full")
    },
    **{
        f"{which} {variant}": ("export-operator", which, "--variant", variant)
        for which in ("Fc-reconstructed", "Qc-reconstructed")
        for variant in ("folded", "full")
    },
}
_ERROR_KIND = re.compile(r"error\[([^]]+)\]")
OPERATORS = ("T", "Fc", "Qc", "Fc-reconstructed", "Qc-reconstructed")
FORMATS = ("json", "csv")
_WALL_TIME = re.compile(r"(checks, )[0-9.]+s\)")


def argv_grid():
    """254 argvs (31 per value of C_GRID, and 37 more), each written with
    ``--out``, ``--format`` json unless given.  Three run the translation
    suite at c = 450, 500 and 700, past its stated range.  Two run just
    past the Nystrom oracle's c <= 340: nystrom at c = 341, and limits-large
    at c = 700, whose oracle runs at c/2 = 350.  Eight more take a finite c
    or N whose predicted array size, basis size 2c + 40 or xi rule
    16 + 4c overflows a float.  The next two ask for the pswf table at
    c = 40, past its stated range, where psi_0(+-1) rounds to 0.  The last
    three take a c whose square in T's matrix overflows a float, with an
    explicit N small enough for every other size to fit; the pswf and
    translation ones are refused by their stated ranges first."""
    for c in C_GRID:
        for which in OPERATORS:
            for variant in ("folded", "full"):
                for fmt in FORMATS:
                    yield ("export-operator", which, "--c", c, "--variant", variant, "--format", fmt)
        for command in ("pswf", "nystrom"):
            for fmt in FORMATS:
                yield (command, "--c", c, "--format", fmt)
        for suite in ("translation", "commutation", "limits-large"):
            yield ("verify", "--suite", suite, "--c", c)
        for suite in ("fourier", "sinc"):
            for variant in ("folded", "full"):
                yield ("verify", "--suite", suite, "--c", c, "--variant", variant)
    for c in ("0.01", "0.1"):
        yield ("verify", "--suite", "limits-small", "--c", c)
    yield ("verify", "--suite", "fourier", "--n-trunc", "10")
    yield ("verify", "--suite", "translation", "--c", "25", "--n-trunc", "30")
    for c in TRANSLATION_C:
        for seed in TRANSLATION_SEEDS:
            yield ("verify", "--suite", "translation", "--c", c, "--seed", seed)
    for c in TRANSLATION_C_LARGE:
        yield ("verify", "--suite", "translation", "--c", c)
    yield ("nystrom", "--c", "341")
    yield ("verify", "--suite", "limits-large", "--c", "700")
    yield ("pswf", "--c", "1e158")
    yield ("pswf", "--n-trunc", "1" + "0" * 160)
    yield ("export-operator", "Fc-reconstructed", "--c", "1e300")
    yield ("verify", "--suite", "limits-large", "--c", "1e200")
    yield ("verify", "--suite", "limits-small", "--c", "1e308")
    yield ("nystrom", "--c", "1e308")
    yield ("pswf", "--c", "1e308")
    yield ("verify", "--suite", "fourier", "--c", "5e307", "--n-trunc", "64")
    for fmt in FORMATS:
        yield ("pswf", "--c", "40", "--format", fmt)
    yield ("export-operator", "T", "--c", "1e200", "--n-trunc", "8")
    yield ("pswf", "--c", "1e200", "--n-trunc", "64")
    yield ("verify", "--suite", "translation", "--c", "1e200", "--n-trunc", "64")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(argv, work: Path):
    """Run ``argv`` with ``--out`` in ``work``; return the exit code (or the
    exception's type), stdout and stderr with the path read as ``OUT``, and
    the output path."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    out = work / f"out.{fmt}"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # usage errors
            code = exc.code
        except Exception as exc:  # a traceback
            code = type(exc).__name__
            print(f"{code}: {exc}", file=sys.stderr)
    return code, *(s.getvalue().replace(str(out), "OUT") for s in (stdout, stderr)), out


def range_scan(job: str, work: Path) -> str:
    runs = []  # [first c, last c, outcome]
    for c in RANGE_C:
        code, _, stderr, _ = _run([*RANGE_JOBS[job], "--c", f"{c:g}"], work)
        kind = _ERROR_KIND.match(stderr)
        outcome = f"{code} {kind[1]}" if kind else str(code)
        if runs and runs[-1][2] == outcome:
            runs[-1][1] = c
        else:
            runs.append([c, c, outcome])
    return f"{job}: " + ", ".join(
        f"{lo:g} {outcome}" if lo == hi else f"{lo:g}-{hi:g} {outcome}" for lo, hi, outcome in runs
    )


def digest(argv, work: Path) -> str:
    code, *texts, out = _run(argv, work)
    fmt = out.suffix[1:]
    texts[0] = _WALL_TIME.sub(r"\1<wall>)", texts[0])
    written = _sha(out.read_bytes()) if out.exists() else "-"
    lines = [" ".join([str(code), *(_sha(t.encode()) for t in texts), written, *argv])]
    records = _records(out, fmt, texts[0])
    if argv[0] == "nystrom" and out.exists():
        records += _spectral_distances(out, fmt, float(argv[argv.index("--c") + 1]))
    if argv[0] == "export-operator" and out.exists():
        records += _operator_distances(out, fmt, argv[1], argv[argv.index("--c") + 1])
    return "\n".join(lines + [f"  {record}" for record in records])


def _operator_distances(out: Path, fmt: str, which: str, c: str) -> list[str]:
    if fmt == "json":
        pairs = json.loads(out.read_text(encoding="utf-8"))["data"]
    else:
        with out.open(newline="", encoding="utf-8") as fh:
            pairs = [row[2:] for row in list(csv.reader(fh))[1:]]
    entries = np.array(pairs, dtype=float).view(complex)
    entries = entries.reshape(math.isqrt(entries.size), -1)
    lines = [f"max|E - E^T| {float(np.max(np.abs(entries - entries.T)))!r}"]
    if which.endswith("-reconstructed"):
        direct = which.removesuffix("-reconstructed")
        lines.append(f"|E - {direct}|_F / |{direct}|_F {_relative_distance(entries, direct, c, len(entries))}")
    return lines


@functools.cache
def _direct_operator(which: str, c: str, n_dim: int) -> np.ndarray:
    build = finite_fourier_direct if which == "Fc" else sinc_kernel_direct
    return build(float(c), n_dim).entries


def _relative_distance(entries: np.ndarray, which: str, c: str, n_dim: int) -> str:
    try:
        direct = _direct_operator(which, c, n_dim)
    except ProlateCalculusError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(float(np.linalg.norm(entries - direct) / np.linalg.norm(direct)))


def _spectral_distances(out: Path, fmt: str, c: float) -> list[str]:
    if fmt == "json":
        data = json.loads(out.read_text(encoding="utf-8"))["data"]
    else:
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        data = dict(zip(rows[0], zip(*rows[1:])))
    basis = solve_prolate(c)
    lines = []
    for name, spectral in (("mu", basis.mus), ("chi", basis.chi)):
        values = np.array(data[name], dtype=float)
        distance = float(np.max(np.abs(values - spectral[: values.size])))
        lines.append(f"max|{name} - spectral {name}|, n<={values.size - 1} {distance!r}")
    return lines


def _records(out: Path, fmt: str, stdout: str) -> list[str]:
    if fmt == "json" and out.exists():
        payload = json.loads(out.read_text(encoding="utf-8"))
        if payload["kind"] == "report":
            return [
                f"{check['name']} {check['value']!r} {check['tol']!r} {check['passed']}"
                for check in payload["data"]["checks"]
            ]
    return [line.strip() for line in stdout.splitlines() if line.startswith("  [")]


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(values))


def series_digest(c: float) -> str:
    basis = solve_prolate(c)
    lines = []
    for xi in SERIES_XI:
        try:
            values = boundary_ratios(basis, xi, method="series")
            _, terms_used, tail, cancel = u_series_many(c, -basis.chi[:CHECKED_MODES], xi, tol=_SERIES_TOL)
            lines.append(f"{_hex(values)} {terms_used} {_hex(tail)} {_hex(cancel)}")
        except ProlateCalculusError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    scalars = []
    for eps in (2.0, 30.0) if c > 0 else ():
        try:
            scalars.append(_hex(u_series_scalar(c, -basis.chi[0], eps / (c * c))))
        except ProlateCalculusError as exc:
            scalars.append(f"{type(exc).__name__}: {exc}")
    return f"{c!r} {_sha(chr(10).join(lines).encode())} {_sha(chr(10).join(scalars).encode())}"


def main() -> int:
    if sys.argv[1:] == ["--series"]:
        for c in SERIES_C:
            print(series_digest(c), flush=True)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["--ranges"]:
            for job in RANGE_JOBS:
                print(range_scan(job, Path(tmp)), flush=True)
            return 0
        for argv in argv_grid():
            print(digest(argv, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
