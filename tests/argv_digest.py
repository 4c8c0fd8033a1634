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
SERIES_XI, a refusal hashed as its error class and message.  Diffing it
between two checkouts shows whether a change to the series kernel moved a
bit:

    PYTHONPATH=<checkout>/src python tests/argv_digest.py --series > series.txt
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
)

# N = default_truncation(c) is 64 up to c = 12, then 65 at 12.3, 71 at 15.5 and
# 80 at 20: odd parity blocks and fractional c, like the benchmark's draws.
C_GRID = ("0.5", "4", "10", "12", "12.3", "15.5", "20")
# The translation suite at the benchmark's range-edge draws of c (seed 1),
# each with three seeds, and past its stated range, where the series has the
# most terms.
TRANSLATION_C = ("6.1894", "11.2764", "14.8696", "17.6658")
TRANSLATION_SEEDS = ("1", "2", "3")
TRANSLATION_C_LARGE = ("25", "30", "34.5")
# The series grid: c = 0, 0.5, ..., 40 and xi = 0.05, 0.06, ..., 1.5.
SERIES_C = tuple(i / 2 for i in range(81))
SERIES_XI = tuple(i / 100 for i in range(5, 151))
OPERATORS = ("T", "Fc", "Qc", "Fc-reconstructed", "Qc-reconstructed")
FORMATS = ("json", "csv")
_WALL_TIME = re.compile(r"(checks, )[0-9.]+s\)")


def argv_grid():
    """251 argvs (31 per value of C_GRID, and 34 more), each written with
    ``--out``, ``--format`` json unless given.  Two run just past the
    Nystrom oracle's c <= 340: nystrom at c = 341, and limits-large at
    c = 700, whose oracle runs at c/2 = 350.  Eight more take a finite c
    or N whose predicted array size, basis size 2c + 40 or xi rule
    16 + 4c overflows a float.  The next two write the pswf table at
    c = 40, where psi_0(+-1) rounds to 0.  The last three take a c whose
    square in T's matrix overflows a float, with an explicit N small
    enough for every other size to fit."""
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


def digest(argv, work: Path) -> str:
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
    texts = [s.getvalue().replace(str(out), "OUT") for s in (stdout, stderr)]
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


def series_digest(c: float) -> str:
    basis = solve_prolate(c)
    lines = []
    for xi in SERIES_XI:
        try:
            values = boundary_ratios(basis, xi, method="series")
            lines.append(" ".join(float(v).hex() for v in values))
        except ProlateCalculusError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return f"{c!r} {_sha(chr(10).join(lines).encode())}"


def main() -> int:
    if sys.argv[1:] == ["--series"]:
        for c in SERIES_C:
            print(series_digest(c), flush=True)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in argv_grid():
            print(digest(argv, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
