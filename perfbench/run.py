"""Benchmark of the prolate-calculus command line.

Run from the repository root:

    python3 perfbench/run.py --workload recon --seed 1 --seconds 36 --trace 0

One process calls ``prolate_calculus.cli.main(argv)`` for each job of the
workload's seeded job list, one job after another (a closed loop with a
single caller), and repeats the list while another pass fits in
``--seconds``.  The set-up measurement and one untimed warm-up job come
before the loop.  Between jobs a fixed reference kernel is timed, and the
timings are scaled by it, so that they read about the same whether other
tenants slow the machine or not (see ``Reference``).

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json untraced.
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics; the tracer wraps the package's functions from outside.

Output: the environment, each job of the first pass with its outcome, exit
code and check records, every metric by name with its unit, and as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 when every job met its workload's gate, 1 when one
did not, 2 when the program or BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SPEC = ROOT / "BENCHMARK.json"

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
COLD_IMPORT = "import prolate_calculus.cli"
# A fresh interpreter importing only numpy, which no change to the program
# changes, and its median time to which set-up is scaled.
REFERENCE_IMPORT = "import numpy"
REFERENCE_IMPORT_S = 0.14
SETUP_SAMPLES = 9
# Mean time of one reference_kernel sample to which timings are scaled, and
# how often one is taken between jobs.
REFERENCE_S = 0.004
REFERENCE_EVERY_S = 0.1
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 60
WARMUP_ARGV = ("pswf", "--c", "1")

CHECK_LINE = re.compile(r"^\s*\[(pass|FAIL)\] (.*): (\S+) (<=|>=) (\S+)$")
# The suite header carries the suite's own wall time, the one part of the
# output that differs between two runs of the same job.
HEADER_TIME = re.compile(r", [0-9.]+s\)$", re.MULTILINE)


class Unavailable(Exception):
    """The program or the benchmark definition is missing."""


@dataclass
class JobRun:
    seconds: float
    code: int | None  # None when main() raised
    stdout: str
    stderr: str
    error: str | None = None
    scaled: float = math.nan  # seconds scaled by the adjacent reference samples

    @property
    def outcome(self) -> str:
        if self.error is not None or self.code not in (0, 1, 2):
            return "traceback"
        return ("pass", "fail", "refused")[self.code]

    def records(self) -> list[tuple[str, float, float, str, bool]]:
        """Check records printed by the CLI: (name, value, tol, relation, passed)."""
        out = []
        for line in self.stdout.splitlines():
            m = CHECK_LINE.match(line)
            if m:
                out.append((m[2], float(m[3]), float(m[5]), m[4], m[1] == "pass"))
        return out

    def signature(self) -> tuple:
        return (self.outcome, self.code, HEADER_TIME.sub(")", self.stdout), self.stderr, self.error)


def run_job(cli, argv) -> JobRun:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 2
    except Exception as exc:  # an uncaught error is an outcome to record
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return JobRun(seconds, code, out.getvalue(), err.getvalue(), error)


def gate_ok(run: JobRun, strict: bool) -> bool:
    """Strict workloads need exit 0.  Elsewhere the verdict must agree with
    the records it prints, and a refusal must say why."""
    if strict:
        return run.outcome == "pass"
    passed = [r[4] for r in run.records()]
    if run.outcome == "pass":
        return all(passed)
    if run.outcome == "fail":
        return bool(passed) and not all(passed)
    if run.outcome == "refused":
        return "error" in run.stderr
    return True


@dataclass
class Ledger:
    """Outcomes of every job run, checked against the first pass."""

    jobs: list
    strict: bool
    first: list = field(default_factory=list)
    output_records: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def run_pass(self, cli, reference: Reference) -> tuple[float, list[JobRun]]:
        """One pass over the jobs, with reference samples between them.  Each
        job's ``scaled`` time uses the samples just before and after it."""
        runs = []
        before = reference.sample()[-1]
        for job in self.jobs:
            run = run_job(cli, job.argv)
            after = reference.after(run.seconds)
            run.scaled = run.seconds * 2 * REFERENCE_S / (before + after[0])
            before = after[-1]
            runs.append(run)
        self._check(runs)
        return sum(run.seconds for run in runs), runs

    def _check(self, runs):
        first_pass = not self.first
        for i, (job, run) in enumerate(zip(self.jobs, runs)):
            self.attempted += 1
            problem = None
            if not gate_ok(run, self.strict):
                problem = f"outcome {run.outcome} (exit {run.code}) breaks the gate"
            elif not first_pass and run.signature() != self.first[i].signature():
                problem = "output differs from the first pass"
            elif job.out is not None and run.code == 0:
                digest = hashlib.sha256(job.out.read_bytes()).hexdigest()
                if first_pass:
                    self.hashes[i] = digest
                    problem = self._check_output(i, job)
                elif digest != self.hashes[i]:
                    problem = "output file differs from the first pass"
            if problem:
                self.failed += 1
                self.failures.append(f"job {i}: {problem}: {' '.join(job.argv)}")
        if first_pass:
            self.first = runs

    def _check_output(self, i, job) -> str | None:
        try:
            records = job.check(job.out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.output_records[i] = []
            return f"unreadable output ({type(exc).__name__}: {exc})"
        self.output_records[i] = records
        bad = [name for name, value, tol in records if not value <= tol]
        return f"output check failed: {', '.join(bad)}" if bad else None

    def all_records(self, i) -> list[tuple[str, float, float, str, bool]]:
        extra = [(n, v, t, "<=", v <= t) for n, v, t in self.output_records.get(i, [])]
        return self.first[i].records() + extra


def reference_kernel():
    """A fixed piece of work of the same kinds as the program's: short numpy
    ufunc calls on small arrays inside a Python loop, plain Python
    arithmetic, and a small symmetric eigensolve.  It lives here, so no
    change to the program changes it."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 24)
    total = np.zeros_like(x)
    peak = np.zeros_like(x)
    run = np.zeros(x.size, dtype=int)
    for k in range(1, 600):
        term = x * (0.5 / k)
        total += term
        np.maximum(peak, np.abs(term), out=peak)
        run = np.where(np.abs(term) <= 1e-12 * np.abs(total), run + 1, 0)
    acc = 0
    for i in range(8000):
        acc += i % 7
    a = np.add.outer(x, x) + np.eye(x.size)
    np.linalg.eigh(a)
    return acc


class Reference:
    """Timed samples of ``reference_kernel``, taken between jobs.

    Other tenants of the machine slow it by up to 2x, in spells that last
    from a fraction of a second to minutes.  The kernel slows with the
    program, so a time scaled by ``REFERENCE_S`` over the samples taken
    around it reads about the same in a slow spell as in a calm one.
    After a job of t seconds come max(1, t / ``REFERENCE_EVERY_S``)
    samples, so the samples of a run weigh each spell by its share of the
    timed work.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> list[float]:
        taken = []
        for _ in range(count):
            start = perf_counter()
            reference_kernel()
            taken.append(perf_counter() - start)
        self.samples += taken
        return taken

    def after(self, seconds: float) -> list[float]:
        return self.sample(max(1, int(seconds / REFERENCE_EVERY_S)))

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def scaled(self, seconds: float) -> float:
        """``seconds`` scaled by the mean of all samples."""
        return seconds * REFERENCE_S / self.mean_s()


def child_python(*args, code: str = COLD_IMPORT) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise Unavailable(f"fresh interpreter failed to run {code!r}: {proc.stderr.strip()}")
    return proc


def cold_start_s() -> tuple[float, float, float]:
    """Median wall time of a fresh interpreter importing the CLI (after one
    untimed run that writes the bytecode cache), the median time of a fresh
    interpreter importing numpy, run in turn with it, and the first scaled
    by ``REFERENCE_IMPORT_S`` over the second.

    Start-up and imports do not slow with ``reference_kernel``, but they
    slow with another interpreter's start-up and imports."""
    child_python()
    child_python(code=REFERENCE_IMPORT)
    cli_s, numpy_s = [], []
    for _ in range(SETUP_SAMPLES):
        for code, samples in ((COLD_IMPORT, cli_s), (REFERENCE_IMPORT, numpy_s)):
            start = perf_counter()
            child_python(code=code)
            samples.append(perf_counter() - start)
    cli_med, numpy_med = statistics.median(cli_s), statistics.median(numpy_s)
    return cli_med, numpy_med, cli_med * REFERENCE_IMPORT_S / numpy_med


def importtime_tree(text: str) -> dict[str, float]:
    """Cumulative seconds of numpy, scipy and prolate_calculus from
    ``-X importtime`` output, summed over each package's outermost imports."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = dict.fromkeys(("numpy", "scipy", "prolate_calculus"), 0.0)
    stack = []  # (depth, top-level package) of the enclosing imports
    for depth, name, seconds in reversed(rows):  # parents precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and (not stack or stack[-1][1] != top):
            totals[top] += seconds
        stack.append((depth, top))
    return totals


def import_times() -> dict[str, tuple[float, str]]:
    samples = [importtime_tree(child_python("-X", "importtime").stderr) for _ in range(IMPORTTIME_SAMPLES)]
    return {
        f"import.{pkg}_s": (statistics.median(s[pkg] for s in samples), "s")
        for pkg in ("numpy", "scipy", "prolate_calculus")
    }


def load_program():
    if not (SRC / "prolate_calculus" / "cli.py").is_file():
        raise Unavailable(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import prolate_calculus.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise Unavailable(f"imported {cli.__file__}, not the checkout's source")
    return cli


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def outcome_metrics(ledger: Ledger, runs_all: list[list[JobRun]]) -> dict[str, tuple[float, str]]:
    runs = [run for pass_runs in runs_all for run in pass_runs]
    fails = sum(run.code != 0 for run in runs)
    errors = sum(run.outcome == "traceback" for run in runs)
    recon = [
        rec[1]
        for i in range(len(ledger.jobs))
        for rec in ledger.all_records(i)
        if "reconstruction vs direct" in rec[0]
    ]
    # 0 when the workload runs no reconstruction.
    recon_log = math.log10(max(recon)) if recon and max(recon) > 0 else 0.0
    return {
        "fail_ratio": (fails / len(runs), "ratio"),
        "error_ratio": (errors / len(runs), "ratio"),
        "recon_err_log10": (recon_log, "log10"),
    }


def mean_per_job(passes, attr: str = "seconds") -> list[float]:
    """Each job's mean time over the passes, raw or locally ``scaled``."""
    return [statistics.fmean(times) for times in zip(*([getattr(run, attr) for run in runs] for _, runs in passes))]


def print_jobs(ledger: Ledger, per_job: list[float]):
    for i, (job, run) in enumerate(zip(ledger.jobs, ledger.first)):
        print(f"job {i:2d} {run.outcome:9s} exit={run.code} mean {per_job[i]:.4f}s  {' '.join(job.argv)}")
        for name, value, tol, rel, passed in ledger.all_records(i):
            print(f"    [{'pass' if passed else 'FAIL'}] {name}: value={value!r} {rel} tol={tol!r}")
        if run.error or run.stderr.strip():
            print(f"    {run.error or run.stderr.strip().splitlines()[-1]}")
    for line in ledger.failures:
        print(f"gate: {line}")


def measure(args) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8")) if SPEC.is_file() else None
    if spec is None:
        raise Unavailable(f"no {SPEC.name}")
    cli = load_program()

    import prolate_calculus
    from prolate_calculus.verify import SUITES

    import bench_jobs
    import bench_trace

    out_dir = WORK / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = bench_jobs.WORKLOADS[args.workload]
    ledger = Ledger(workload.make(args.seed, out_dir), workload.strict)
    print("env " + json.dumps(environment(args), sort_keys=True))

    if args.trace:
        metrics = import_times()
    else:
        cli_s, numpy_s, setup_s = cold_start_s()
        print(f"setup: median cold import {cli_s:.4f}s, numpy alone {numpy_s:.4f}s, scaled {setup_s:.4f}s")
        metrics = {"setup_s": (setup_s, "s")}
    run_job(cli, WARMUP_ARGV)
    reference_kernel()
    deadline = perf_counter() + args.seconds

    tracer = bench_trace.Tracer(prolate_calculus) if args.trace else None
    plain, traced, layers, shares = [], [], [], []
    ref_plain, ref_traced = Reference(), Reference()
    # With tracing, untraced and traced passes alternate, so both see the
    # same mix of the machine's fast and slow spells.
    while True:
        if tracer is not None and len(traced) < len(plain):
            with tracer:
                wall, runs = ledger.run_pass(cli, ref_traced)
            traced.append((wall, runs))
            layers.append(bench_trace.layer_metrics(tracer.spans, SUITES))
            shares.append(bench_trace.self_share(tracer.spans, wall))
            table = bench_trace.function_table(tracer.spans)
        else:
            plain.append(ledger.run_pass(cli, ref_plain))
        walls = [wall for wall, _ in plain + traced]
        if (tracer is None or traced) and perf_counter() + statistics.median(walls) > deadline:
            break

    per_job = mean_per_job(plain)
    metrics["sweep_s"] = (ref_plain.scaled(sum(per_job)), "s")
    metrics["job_p50_s"] = (statistics.median(mean_per_job(plain, "scaled")), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    if tracer is not None:
        for name, (_, unit) in layers[0].items():
            metrics[name] = (min(layer[name][0] for layer in layers), unit)
        metrics["trace.sweep_s"] = (ref_traced.scaled(sum(mean_per_job(traced))), "s")
        metrics["trace.overhead_s"] = (metrics["trace.sweep_s"][0] - metrics["sweep_s"][0], "s")
        metrics["trace.self_share"] = (statistics.median(shares), "ratio")
        metrics["reference.sample_s"] = (ref_plain.mean_s(), "s")
    metrics.update(outcome_metrics(ledger, [runs for _, runs in plain + traced]))

    print_jobs(ledger, per_job)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced, of {len(ledger.jobs)} jobs each")
    print("untraced pass walls: " + " ".join(f"{wall:.4f}" for wall, _ in plain))
    print(f"reference: {len(ref_plain.samples)} samples, mean {ref_plain.mean_s():.5f}s, scale {REFERENCE_S / ref_plain.mean_s():.4f}")
    if traced:
        print("self time by function, last traced pass (calls, inclusive s, self s):")
        for name, (calls, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2])[:20]:
            print(f"    {name:40s} {calls:8d} {incl:10.4f} {self_s:10.4f}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value!r} {unit}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit}, BENCHMARK.json says {entry['unit']}")
        reported[entry["name"]] = {"value": value, "unit": unit}
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": reported}))
    return 0 if correct else 1


def main(argv=None) -> int:
    # Pinned before numpy loads its BLAS, here and in every child process.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import bench_jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(bench_jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return measure(args)
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
