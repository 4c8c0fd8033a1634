"""Smoke tests of the benchmark at a tiny size.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import bench_jobs  # noqa: E402
import bench_trace  # noqa: E402
import run as bench_run  # noqa: E402

import prolate_calculus  # noqa: E402
import prolate_calculus.cli as cli  # noqa: E402
import prolate_calculus.ucalc as ucalc  # noqa: E402
from prolate_calculus.verify import SUITES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _argvs(name, seed, tmp_path):
    return [job.argv for job in bench_jobs.WORKLOADS[name].make(seed, tmp_path)]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_job_list_follows_the_seed(name, tmp_path):
    assert _argvs(name, 3, tmp_path) == _argvs(name, 3, tmp_path)
    assert _argvs(name, 3, tmp_path) != _argvs(name, 4, tmp_path)


def test_recon_bandwidths_stay_in_range(tmp_path):
    for seed in range(20):
        for argv in _argvs("recon", seed, tmp_path):
            c = float(argv[argv.index("--c") + 1])
            assert 0.5 <= c <= 12.0


def test_tracer_records_spans_and_restores_bindings():
    original = ucalc.boundary_ratios
    tracer = bench_trace.Tracer(prolate_calculus)
    with tracer:
        wrapped = ucalc.boundary_ratios
        assert wrapped is not original
        assert prolate_calculus.transforms.boundary_ratios is wrapped
        assert prolate_calculus.boundary_ratios is wrapped
        job = bench_run.run_job(cli, ("verify", "--suite", "translation", "--c", "1"))
    assert ucalc.boundary_ratios is original
    assert prolate_calculus.transforms.boundary_ratios is original
    assert prolate_calculus.boundary_ratios is original
    assert job.outcome == "pass"

    roots = [span for span in tracer.spans if span.parent is None]
    assert [span.name for span in roots] == ["cli.main"]
    table = bench_trace.function_table(tracer.spans)
    assert all(self_s >= 0 for _, _, self_s in table.values())
    assert sum(self_s for _, _, self_s in table.values()) == pytest.approx(roots[0].seconds)

    metrics = bench_trace.layer_metrics(tracer.spans, SUITES)
    assert metrics["cli.main.calls"] == (1, "count")
    assert metrics["ucalc.boundary_ratios.series.calls"][0] == 10
    assert metrics["ucalc.boundary_ratios.spectral.calls"][0] == 10
    assert metrics["ucalc.u_series_many.terms"][0] > 0
    assert metrics["verify.run_suite.translation.s"][0] > 0
    assert metrics["verify.run_suite.fourier.s"][0] == 0


def test_importtime_totals_take_outermost_imports():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:        70 |        120 |   scipy",
            "import time:        30 |         30 |   scipy.linalg",
            "import time:        10 |        460 | prolate_calculus",
            "import time:         5 |          5 | prolate_calculus.cli",
        ]
    )
    totals = bench_run.importtime_tree(text)
    assert totals == pytest.approx({"numpy": 300e-6, "scipy": 150e-6, "prolate_calculus": 465e-6})


def test_gate_accepts_only_consistent_verdicts():
    fail_line = "suite x: FAIL (1 checks, 0.01s)\n  [FAIL] a: 2.000000e+00 <= 1.000000e+00\n"
    pass_line = "suite x: PASS (1 checks, 0.01s)\n  [pass] a: 1.000000e+00 <= 2.000000e+00\n"
    assert bench_run.gate_ok(bench_run.JobRun(0.1, 1, fail_line, ""), strict=False)
    assert not bench_run.gate_ok(bench_run.JobRun(0.1, 1, fail_line, ""), strict=True)
    assert not bench_run.gate_ok(bench_run.JobRun(0.1, 1, pass_line, ""), strict=False)
    assert not bench_run.gate_ok(bench_run.JobRun(0.1, 0, fail_line, ""), strict=False)
    assert bench_run.gate_ok(bench_run.JobRun(0.1, 2, "", "error[domain]: c < 0\n"), strict=False)
    assert bench_run.gate_ok(bench_run.JobRun(0.1, None, "", "", "ValueError: x"), strict=False)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectra", "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 16
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recon", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_reference_samples_scale_each_job_run():
    ledger = bench_run.Ledger([bench_jobs.Job(("verify", "--suite", "translation", "--c", "1"))], strict=True)
    reference = bench_run.Reference()
    wall, runs = ledger.run_pass(cli, reference)
    assert ledger.failed == 0
    assert len(reference.samples) >= 2  # before and after the job
    assert 0 < runs[0].scaled < 10 * wall
    assert reference.scaled(wall) == pytest.approx(wall * bench_run.REFERENCE_S / reference.mean_s())
