"""Print a digest of what ``prolate_calculus.cli.main`` does on a fixed grid of argvs.

One line per argv: the exit code, then the sha256 of stdout (with the wall
time of a suite's summary line stripped), of stderr and of the file the run
wrote ("-" when it wrote none), then the argv.  The output path is replaced
by ``OUT`` before hashing, so two checkouts give equal lines exactly when
they behave the same.  Below each line come the run's check records: for a
written JSON report, one line per check as ``name repr(value) tol passed``;
otherwise the check lines the run printed.  Below a ``nystrom`` line come
max|mu - spectral mu| and max|chi - spectral chi| over the written rows
(n <= 8), against ``solve_prolate(c)``, so a diff that moves a table's bytes
also shows whether its values moved toward the spectral ones.  Run it against
each checkout and diff the outputs:

    PYTHONPATH=<checkout>/src python tests/argv_digest.py > digest.txt

Pytest does not collect this file.  Every argv runs in this one process, in
the order printed, so repeated runs also cover the cached quadrature rules.

With ``--series`` it prints instead one line per c in SERIES_C: c, then the
sha256 of the ``float.hex`` values of ``boundary_ratios(..., method="series",
n_modes=9)`` (the modes the translation suite compares) at each xi of
SERIES_XI, a refusal hashed as its error class and message.  Diffing it
between two checkouts shows whether a change to the series kernel moved a
bit:

    PYTHONPATH=<checkout>/src python tests/argv_digest.py --series > series.txt
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from prolate_calculus import ProlateCalculusError, boundary_ratios, cli, solve_prolate

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
SERIES_MODES = 9
OPERATORS = ("T", "Fc", "Qc", "Fc-reconstructed", "Qc-reconstructed")
FORMATS = ("json", "csv")
_WALL_TIME = re.compile(r"(checks, )[0-9.]+s\)")


def argv_grid():
    """236 argvs (31 per value of C_GRID, and 19 more), each written with
    ``--out``, ``--format`` json unless given."""
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest(argv, work: Path) -> str:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    out = work / f"out.{fmt}"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # usage errors
            code = exc.code
    texts = [s.getvalue().replace(str(out), "OUT") for s in (stdout, stderr)]
    texts[0] = _WALL_TIME.sub(r"\1<wall>)", texts[0])
    written = _sha(out.read_bytes()) if out.exists() else "-"
    lines = [" ".join([str(code), *(_sha(t.encode()) for t in texts), written, *argv])]
    records = _records(out, fmt, texts[0])
    if argv[0] == "nystrom" and out.exists():
        records += _spectral_distances(out, fmt, float(argv[argv.index("--c") + 1]))
    return "\n".join(lines + [f"  {record}" for record in records])


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
            values = boundary_ratios(basis, xi, method="series", n_modes=SERIES_MODES)
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
