"""Time what a user waits for: one fresh ``prolate-calculus`` process per command.

For each argv of a fixed list (every command and every suite, with and
without ``--out``), fresh interpreters run ``prolate_calculus.cli.main(argv)``
in turn with fresh interpreters that only ``import numpy``, the reference.
The first row imports the CLI and runs nothing, as the benchmark's
``setup_s`` does.  One line per argv: the median wall time, that median
scaled by the reference (times ``REFERENCE_IMPORT_S`` over the median of the
reference runs taken in turn with it), the exit code, the argv and the
package modules the run loaded.  Run it against each checkout and compare:

    PYTHONPATH=<checkout>/src python tests/cold_start.py [--samples 15]

Pytest does not collect this file.  Each argv has one untimed run first,
which also writes the bytecode cache unless ``PYTHONDONTWRITEBYTECODE`` is
set; the header says which.  The timed runs go round the list once per
sample, so a slow spell of the machine falls on every argv alike.  BLAS runs
on one thread in every child.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# A fresh interpreter importing only numpy, and the time its median is scaled to.
REFERENCE = "import numpy"
REFERENCE_IMPORT_S = 0.14
# Imports the CLI, runs the argv if one is given, and prints the package
# modules it loaded as stderr's last line.
RUN_MAIN = """import sys
import prolate_calculus.cli
code = prolate_calculus.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(*sorted(m for m in sys.modules if m.split(".")[0] == "prolate_calculus"), file=sys.stderr)
sys.exit(code)
"""
SUITES = (
    ("translation", "4"),
    ("fourier", "4"),
    ("sinc", "4"),
    ("commutation", "4"),
    ("limits-small", "0.05"),
    ("limits-large", "8"),
)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def argv_list():
    """17 argvs: the bare import, then each command and suite; ``OUT`` marks
    the output path.  export-operator and nystrom require ``--out``."""
    yield ()
    yield ("pswf", "--c", "4")
    yield ("pswf", "--c", "4", "--out", "OUT")
    yield ("export-operator", "Fc", "--c", "4", "--out", "OUT")
    yield ("nystrom", "--c", "4", "--out", "OUT")
    for suite, c in SUITES:
        yield ("verify", "--suite", suite, "--c", c)
        yield ("verify", "--suite", suite, "--c", c, "--out", "OUT")


def child(code: str, argv, env) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    return perf_counter() - start, proc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=15, help="timed runs per argv (default 15)")
    args = parser.parse_args(argv)
    env = dict(os.environ, **dict.fromkeys(BLAS_VARS, "1"))
    _, where = child("import prolate_calculus; print(prolate_calculus.__file__)", [], env)
    print(f"# python {sys.version.split()[0]}, package {where.stdout.strip()}, {args.samples} samples per argv, "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    print("# median_s scaled_s exit argv [package modules]")
    with tempfile.TemporaryDirectory() as tmp:
        runs = [[str(Path(tmp) / f"out{i}.json") if arg == "OUT" else arg for arg in run]
                for i, run in enumerate(argv_list())]
        firsts = [child(RUN_MAIN, run, env)[1] for run in runs]
        for run, first in zip(runs, firsts):
            if first.returncode not in (0, 1) or not first.stderr.strip():
                raise SystemExit(f"{' '.join(run)} failed:\n{first.stderr}")
        times = [[] for _ in runs]
        reference = [[] for _ in runs]
        for _ in range(args.samples):
            for i, run in enumerate(runs):
                times[i].append(child(RUN_MAIN, run, env)[0])
                reference[i].append(child(REFERENCE, [], env)[0])
    for run, first, t, ref in zip(argv_list(), firsts, times, reference):
        median = statistics.median(t)
        scaled = median * REFERENCE_IMPORT_S / statistics.median(ref)
        modules = first.stderr.strip().splitlines()[-1].split()
        short = " ".join("__init__" if m == "prolate_calculus" else m.split(".", 1)[1] for m in modules)
        print(f"{median:.4f} {scaled:.4f} {first.returncode} {' '.join(run) or '(import only)'} [{short}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
