"""End-to-end CLI checks, through subprocess and in process, including artifact round-trips."""

import argparse
import ast
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from prolate_calculus import (
    OutOfRangeError,
    RunConfig,
    asymptotics,
    cli,
    legendre,
    nystrom,
    prolate,
    run_suite,
    solve_prolate,
    transforms,
    ucalc,
    verify,
)
from prolate_calculus.asymptotics import _small_c_terms
from prolate_calculus.legendre import MAX_C, MIN_MU, _build_rule
from prolate_calculus.nystrom import nystrom_chi, nystrom_sinc_eigen
from prolate_calculus.verify import C_RANGES, SUITES, VerificationReport


# The child interpreter imports the package from the same path as this one.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "prolate_calculus.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def _load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# A finite c or N whose predicted array size, basis size, xi rule or c^2 in
# T's matrix overflows a float.
OVERFLOWING_ARGVS = (
    ("pswf", "--c", "1e158"),
    ("pswf", "--n-trunc", "1" + "0" * 160),
    ("export-operator", "Fc-reconstructed", "--c", "1e300", "--out", "unused.json"),
    ("verify", "--suite", "limits-large", "--c", "1e200"),
    ("verify", "--suite", "limits-small", "--c", "1e308"),
    ("nystrom", "--c", "1e308", "--out", "unused.json"),
    ("pswf", "--c", "1e308"),
    ("verify", "--suite", "fourier", "--c", "5e307", "--n-trunc", "64"),
    ("export-operator", "T", "--c", "1e200", "--n-trunc", "8", "--out", "t.json"),
    ("pswf", "--c", "1e200", "--n-trunc", "64"),
    ("verify", "--suite", "translation", "--c", "1e200", "--n-trunc", "64"),
)


class TestExitCodes:
    def test_passing_suite_exits_zero(self):
        proc = run_cli("verify", "--suite", "commutation", "--c", "2")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_failing_check_exits_one(self, monkeypatch, capsys, tmp_path):
        def one_failing_record(config):
            report = VerificationReport(suite="commutation", params={"c": config.c})
            report.add("always above its tolerance", 1.0, 0.5)
            return report

        monkeypatch.setitem(SUITES, "commutation", one_failing_record)
        out = tmp_path / "r.json"
        assert cli.main(["verify", "--suite", "commutation", "--c", "2", "--out", str(out)]) == 1
        assert "[FAIL] always above its tolerance" in capsys.readouterr().out
        assert _load_json(out)["data"]["passed"] is False

    def test_usage_error_exits_two(self):
        proc = run_cli("verify", "--suite", "bogus")
        assert proc.returncode == 2

    def test_io_error_exits_two(self, tmp_path):
        proc = run_cli("export-operator", "T", "--c", "1", "--n-trunc", "8")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("pswf", "--c", "nan"),
            ("verify", "--suite", "translation", "--c", "inf"),
            ("pswf", "--n-trunc", "-5"),
            ("verify", "--suite", "fourier", "--n-trunc", "10"),
            ("verify", "--suite", "sinc", "--n-trunc", "17"),
            ("verify", "--suite", "translation", "--c", "1", "--n-trunc", "4"),
            ("verify", "--suite", "translation", "--c", "1", "--n-trunc", "8"),
            ("verify", "--suite", "translation", "--c", "1", "--n-trunc", "12"),
            ("nystrom", "--c", "0", "--out", "unused.json"),
            ("nystrom", "--c", "-1", "--out", "unused.json"),
            ("nystrom", "--c", "nan", "--out", "unused.json"),
            ("nystrom", "--c", "1e300", "--out", "unused.csv", "--format", "csv"),
            ("nystrom", "--c", "400", "--out", "unused.json"),
            *OVERFLOWING_ARGVS,
        ],
    )
    def test_invalid_input_exits_two(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert "error[" in captured.err
        assert captured.out == ""
        assert not any(tmp_path.iterdir())
        if argv in OVERFLOWING_ARGVS:
            assert "error[out-of-range]" in captured.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", ["0", "1e-200"])
    @pytest.mark.parametrize("suite", ["sinc", "commutation"])
    def test_zero_reference_norm_exits_two(self, suite, c, capsys):
        # Q_0 = 0, and at c = 1e-200 the norm of Q_c underflows to 0: a
        # relative error against it is 0/0, refused instead of a NaN record.
        assert cli.main(["verify", "--suite", suite, "--c", c]) == 2
        assert "error[domain]" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "build, variant",
        [(transforms.reconstruct_fourier, "folded"), (transforms.reconstruct_sinc, "full")],
        ids=["Fc-folded", "Qc-full"],
    )
    def test_a_reconstruction_refuses_a_zero_endpoint_value(self, build, variant):
        # An export's enlarged basis at c = 45 (N = 154) loses psi_2(-1).  The
        # reconstructions' mode integrals are refused, by the spectral ratios'
        # one owner, instead of carried into NaN entries; the CLI refuses
        # this c by the exports' stated range first.
        config = RunConfig(c=45.0)
        basis = solve_prolate(config.c, verify._enlarged_dim(config))
        with pytest.raises(OutOfRangeError) as refused:
            build(basis, variant)
        assert str(refused.value) == (
            "psi_2(-1) rounds to 0 at c = 45; the spectral ratios psi_n(-1 + xi) / psi_n(-1) are not representable"
        )

    @pytest.mark.parametrize("c", ["18.25", "45"])
    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("which", verify.RECONSTRUCTED)
    def test_a_reconstructed_export_past_its_range_is_refused_before_any_eigensolve(
        self, which, variant, c, monkeypatch, capsys, tmp_path
    ):
        # From c = 18.5 some pair is refused as xi-quadrature-unresolved, and
        # at c = 45 a psi_n(-1) rounds to 0; the stated range refuses them
        # first (the contract checks the c between).
        def no_work(*args, **kwargs):
            raise AssertionError("solve_prolate ran past the stated range")

        monkeypatch.setattr(prolate, "solve_prolate", no_work)
        out = tmp_path / "out.json"
        assert cli.main(["export-operator", which, "--variant", variant, "--c", c, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error[out-of-range]: {which} runs at c <= 18, got c = {c}; ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "fourier", "--c", "40"),
            ("verify", "--suite", "fourier", "--variant", "full", "--c", "40"),
            ("verify", "--suite", "sinc", "--c", "40"),
            ("verify", "--suite", "sinc", "--variant", "full", "--c", "40"),
            ("verify", "--suite", "translation", "--c", "40"),
            ("verify", "--suite", "translation", "--c", "450"),
            ("verify", "--suite", "translation", "--c", "500"),
            ("verify", "--suite", "translation", "--c", "700"),
        ],
    )
    def test_a_suite_past_its_range_is_refused_before_any_eigensolve(self, argv, monkeypatch, capsys,
                                                                      tmp_path):
        # Some psi_n(-1) rounds to 0 at these c, and from c = 450 the series
        # sums pass the double range; the stated range refuses them first.
        def no_work(*args, **kwargs):
            raise AssertionError("solve_prolate ran past the stated range")

        monkeypatch.setattr(prolate, "solve_prolate", no_work)
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        suite, c = argv[2], argv[-1]
        high = {"translation": 12, "fourier": 18, "sinc": 18}[suite]
        assert captured.err.startswith(f"error[out-of-range]: {suite} runs at c <= {high}, got c = {c}; ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c, n", [(40.0, 0), (450.0, 1), (500.0, 3), (700.0, 34)])
    def test_ratio_denominators_refuse_a_zero_endpoint_value(self, c, n):
        # Some psi_n(-1) rounds to exactly 0.0 at these c (at the default
        # N): the spectral ratios are refused, by one owner, instead of
        # carried into NaN values.
        message = (
            f"psi_{n}(-1) rounds to 0 at c = {c:g}; the spectral ratios "
            "psi_n(-1 + xi) / psi_n(-1) are not representable"
        )
        with pytest.raises(OutOfRangeError) as refused:
            ucalc.boundary_ratios(solve_prolate(c), 0.5)
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (("pswf", "--c", "1e100", "--n-trunc", "64"), "pswf runs at c <= 20, got c = 1e+100; "),
            (("pswf", "--c", "25", "--n-trunc", "30"), "pswf runs at c <= 20, got c = 25; "),
            (("verify", "--suite", "translation", "--c", "40", "--n-trunc", "40"),
             "translation runs at c <= 12, got c = 40; "),
        ],
    )
    def test_an_explicit_n_does_not_lift_the_stated_range(self, argv, refusal, monkeypatch, capsys):
        # Refused by c alone: an eigensolve at these (c, N) would end in an
        # error that blames the eigensolver or the sign convention instead.
        def no_work(*args, **kwargs):
            raise AssertionError("solve_prolate ran past the stated range")

        monkeypatch.setattr(prolate, "solve_prolate", no_work)
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error[out-of-range]: {refusal}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, module, stage",
        [
            (("export-operator", "T", "--c", "2"), cli, "build_operator"),
            (("export-operator", "Fc-reconstructed", "--c", "40"), cli, "build_operator"),
            (("nystrom", "--c", "2"), nystrom, "nystrom_sinc_eigen"),
        ],
        ids=["export-T", "export-unresolvable-c", "nystrom"],
    )
    def test_missing_out_is_refused_before_any_work(self, argv, module, stage, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{stage} ran before --out was checked")

        monkeypatch.setattr(module, stage, refuse)
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error[error]: {argv[0]} requires --out\n"
        assert captured.out == ""

    def test_default_nystrom_writes_the_modes_it_resolves(self, tmp_path):
        # At c = 1, mu_5 = 9.5e-11 is the first below MIN_MU = 1e-10.
        out = tmp_path / "ny.json"
        assert cli.main(["nystrom", "--out", str(out)]) == 0
        payload = _load_json(out)
        assert payload["params"] == {"c": 1.0, "nodes": 128, "oracle": "nystrom"}
        assert payload["data"]["n"] == list(range(5))

    @pytest.mark.parametrize("c, rows", [("0.25", 4), ("0.5", 4), ("1", 5), ("2", 7), ("20", 9)])
    def test_nystrom_writes_only_the_rows_whose_mu_is_resolved(self, c, rows, tmp_path, capsys):
        # Each written chi_n is within 1e-8 of the spectral chi_n; below
        # c = 20 the Nystrom chi_n of the dropped rows are not (up to 6.3e2
        # off at c = 0.5, 7.9e-4 at c = 2).
        out = tmp_path / "ny.json"
        assert cli.main(["nystrom", "--c", c, "--out", str(out)]) == 0
        capsys.readouterr()
        data = _load_json(out)["data"]
        result = nystrom_sinc_eigen(float(c))
        assert data["n"] == list(range(rows)) == np.flatnonzero(result.mu >= MIN_MU).tolist()
        assert data["mu"] == result.mu[:rows].tolist()
        spectral = solve_prolate(float(c)).chi[:9]
        assert np.max(np.abs(np.array(data["chi"]) - spectral[:rows])) <= 1e-8
        if rows < 9:
            assert np.max(np.abs(nystrom_chi(result) - spectral)) > 1e-8

    def test_nystrom_refuses_a_c_that_resolves_no_mode(self, tmp_path, capsys):
        out = tmp_path / "ny.json"
        assert cli.main(["nystrom", "--c", "1e-11", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error[out-of-range]: nystrom at c = 1e-11 resolves no mode: mu_0 < 1e-10\n"
        assert captured.out == ""
        assert not out.exists()

    def test_nystrom_refuses_a_c_above_its_grid_before_any_work(self, monkeypatch, capsys, tmp_path):
        def no_work(*args, **kwargs):
            raise AssertionError("the Nystrom grid was built above the limit")

        monkeypatch.setattr(nystrom, "gauss_legendre_rule", no_work)
        out = tmp_path / "ny.json"
        c = repr(float(np.nextafter(MAX_C, np.inf)))
        assert cli.main(["nystrom", "--c", c, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error[out-of-range]: nystrom runs at c <= {MAX_C:g}, got c = ")
        assert captured.out == ""
        assert not out.exists()
        # The command's refusal (the range table's) and the oracle's own
        # input check give one text.
        with pytest.raises(OutOfRangeError) as oracle:
            nystrom_sinc_eigen(float(c))
        assert captured.err == f"error[out-of-range]: {oracle.value}\n"

    def test_limits_large_refuses_a_c_past_its_nystrom_oracle_before_any_eigensolve(self, monkeypatch, capsys):
        # The suite refuses c > 2 MAX_C itself, naming the c it was given and
        # its own bound, before the Nystrom oracle or any eigensolve runs.
        class Started(Exception):
            pass

        def no_work(*args, **kwargs):
            raise Started

        monkeypatch.setattr(prolate, "solve_prolate", no_work)
        monkeypatch.setattr(nystrom, "nystrom_sinc_eigen", no_work)
        for c in (700.0, 2 * float(np.nextafter(MAX_C, np.inf))):
            assert cli.main(["verify", "--suite", "limits-large", "--c", repr(c)]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"error[out-of-range]: limits-large runs at c <= 680, got c = {c:g}; its Nystrom "
                "oracle runs at c/2, and the oracle's grid resolves c <= 340\n"
            )
            assert captured.out == ""
        # At c = 2 MAX_C the suite starts its work.
        with pytest.raises(Started):
            cli.main(["verify", "--suite", "limits-large", "--c", repr(2 * MAX_C)])

    def test_nystrom_at_its_limit_matches_the_spectral_mu(self, tmp_path, capsys):
        out = tmp_path / "ny.json"
        assert cli.main(["nystrom", "--c", repr(MAX_C), "--out", str(out)]) == 0
        capsys.readouterr()
        mu = np.array(_load_json(out)["data"]["mu"])
        assert mu.shape == (9,)
        assert np.max(np.abs(mu - solve_prolate(MAX_C).mus[:9])) <= 1e-12


def test_main_builds_the_parser_once(monkeypatch, capsys):
    # Only the top-level parser adds subparsers, once per build.
    real = argparse.ArgumentParser.add_subparsers
    built = []

    def counting(self, **kwargs):
        built.append(self.prog)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert cli.main(["verify", "--suite", "commutation", "--c", "1"]) == 0
    capsys.readouterr()
    assert built == ["prolate-calculus"]


def _loaded_after(code, *args):
    """Modules a fresh interpreter holds after running ``code`` with ``args``
    as ``sys.argv[1:]``: the last line it prints."""
    probe = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_scipy():
    loaded = _loaded_after("import prolate_calculus.cli")
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    layers = {f"prolate_calculus.{m}" for m in ("asymptotics", "nystrom", "prolate", "transforms", "ucalc", "serialize")}
    assert not loaded & (layers | {"fractions", "json", "csv"})


# Package modules that importing the CLI loads, and those each command adds.
CLI_MODULES = {"__init__", "errors", "legendre", "verify", "cli"}


@pytest.mark.parametrize(
    "argv, added",
    [
        (("pswf", "--c", "4"), {"prolate"}),
        (("pswf", "--c", "4", "--out", "F"), {"prolate", "serialize"}),
        (("verify", "--suite", "translation", "--c", "4"), {"prolate", "ucalc"}),
        (("nystrom", "--c", "4", "--out", "F"), {"nystrom", "prolate", "serialize"}),
        (("export-operator", "T", "--c", "4", "--out", "F"), {"prolate", "serialize", "transforms", "ucalc"}),
        (("verify", "--suite", "fourier", "--c", "4"), {"prolate", "transforms", "ucalc"}),
        (("verify", "--suite", "limits-small", "--c", "0.05"), {"asymptotics", "prolate", "transforms", "ucalc"}),
    ],
    ids=["pswf", "pswf-out", "verify-translation", "nystrom-out", "export-T-out", "verify-fourier", "verify-limits-small"],
)
def test_each_command_loads_only_the_layers_it_runs(argv, added, tmp_path):
    # The parser's nystrom help reads the grid constants from legendre and
    # the transforms take the sinc kernel from prolate, so only a command
    # that runs nystrom loads it.
    argv = [str(tmp_path / "out.json") if arg == "F" else arg for arg in argv]
    loaded = _loaded_after("from prolate_calculus.cli import main\nassert main(sys.argv[1:]) == 0", *argv)
    package = {
        "__init__" if m == "prolate_calculus" else m.removeprefix("prolate_calculus.")
        for m in loaded
        if m.split(".")[0] == "prolate_calculus"
    }
    assert package == CLI_MODULES | added
    # np.unique, for one, imports numpy.ma (about 1 MB resident) on first use.
    assert "numpy.ma" not in loaded


class TestSuiteSmoke:
    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("suite", ["fourier", "sinc"])
    def test_reconstruction_suite_passes(self, suite, variant, capsys):
        argv = ["verify", "--suite", suite, "--c", "4", "--variant", variant]
        assert cli.main(argv) == 0
        assert f"suite {suite}: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("suite", ["fourier", "sinc"])
    def test_per_mode_identity_catches_a_wrong_eigenvalue(self, suite, variant, monkeypatch):
        # lambda_3 off by 1e-6 relative, mu_3 recomputed from it: the
        # reconstruction does not read lambda_n, so only this record moves.
        real_solve = prolate.solve_prolate

        def wrong_lambda_3(c, n_dim=None):
            basis = real_solve(c, n_dim)
            lambdas = basis.lambdas.copy()
            lambdas[3] *= 1 + 1e-6
            return dataclasses.replace(basis, lambdas=lambdas, mus=c / (2 * np.pi) * lambdas**2)

        monkeypatch.setattr(prolate, "solve_prolate", wrong_lambda_3)
        report = run_suite(suite, RunConfig(c=4.0, variant=variant))
        failed = [r.name for r in report.records if not r.passed]
        assert failed == ["per-mode scalar identity, n<=8"]

    def test_limits_small_passes(self, capsys):
        assert cli.main(["verify", "--suite", "limits-small", "--c", "0.05"]) == 0
        assert "suite limits-small: PASS" in capsys.readouterr().out

    def test_limits_large_completes(self, tmp_path):
        # Only that the suite runs to a report: its verdict at c = 8 is a
        # known FAIL of fixed large-c thresholds.
        out = tmp_path / "large.json"
        assert cli.main(["verify", "--suite", "limits-large", "--c", "8", "--out", str(out)]) in (0, 1)
        checks = _load_json(out)["data"]["checks"]
        assert len(checks) >= 5
        assert all(math.isfinite(check["value"]) for check in checks)


@pytest.mark.parametrize(
    "argv, n_used",
    [
        (("limits-small", "--c", "0.05"), 24),
        (("limits-small", "--c", "0.05", "--n-trunc", "100"), 24),
        (("limits-large", "--c", "8", "--n-trunc", "30"), 64),
    ],
)
def test_limits_reports_record_the_n_they_compute_on(argv, n_used, monkeypatch, tmp_path, capsys):
    # Both suites fix their own basis size: limits-small a 24-mode Legendre
    # block, limits-large the default truncation at the largest c.
    used = []
    real_fourier, real_solve = transforms.finite_fourier_direct, prolate.solve_prolate

    def fourier_spy(c, n_dim):
        used.append((c, n_dim))
        return real_fourier(c, n_dim)

    def solve_spy(c, n_dim=None):
        basis = real_solve(c, n_dim)
        used.append((c, basis.n_dim))
        return basis

    monkeypatch.setattr(transforms, "finite_fourier_direct", fourier_spy)
    monkeypatch.setattr(prolate, "solve_prolate", solve_spy)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", *argv, "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    c = float(argv[2])
    assert {n for cc, n in used if cc == c} == {n_used}
    assert _load_json(out)["params"]["N"] == n_used


@pytest.mark.parametrize(
    "c, bound", [("0", ">= 1e-6"), ("4e-7", ">= 1e-6"), ("0.2", "<= 0.1"), ("1", "<= 0.1"), ("40", "<= 0.1")]
)
def test_limits_small_refuses_a_c_outside_its_range(c, bound, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("limits-small computed before refusing")

    monkeypatch.setattr(asymptotics, "small_c_operator", no_work)
    monkeypatch.setattr(transforms, "finite_fourier_direct", no_work)
    assert cli.main(["verify", "--suite", "limits-small", "--c", c]) == 2
    captured = capsys.readouterr()
    refusal = f"error[out-of-range]: limits-small runs at c {bound}, got c = {float(c):g}; "
    assert captured.err.startswith(refusal)
    assert captured.out == ""


@pytest.mark.parametrize("c", ["0", "3.99"])
def test_limits_large_refuses_a_c_below_its_range(c, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("limits-large computed before refusing")

    monkeypatch.setattr(prolate, "solve_prolate", no_work)
    assert cli.main(["verify", "--suite", "limits-large", "--c", c]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error[out-of-range]: limits-large runs at c >= 4, got c = {float(c):g}; the suite "
        "compares the large-c limits at bandwidths c/4, c/2 and c, so c/4 must be at least 1\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv", [("verify", "--suite", "limits-large", "--c", "1e5"), ("pswf", "--c", "1e5")]
)
def test_a_run_past_the_array_limit_is_refused_before_any_work(argv, monkeypatch, capsys, tmp_path):
    # solve_prolate(25000) would ask for an 18.7 GiB array; the prediction
    # refuses the run before any eigensolve.
    def no_work(*args):
        raise AssertionError("solve_prolate ran past the array limit")

    monkeypatch.setattr(prolate, "solve_prolate", no_work)
    out = tmp_path / "r.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[out-of-range]: ")
    assert f"past the {verify.MAX_ARRAY_BYTES / 2**20:g} MiB limit" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("suite", ["translation", "fourier", "sinc", "commutation"])
def test_run_suite_refuses_a_run_past_the_array_limit_as_the_cli_does(suite, monkeypatch, capsys):
    # The library passes the gate the CLI does: no eigensolve or direct
    # quadrature starts, and no numpy MemoryError escapes untyped.
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the array limit")

    monkeypatch.setattr(prolate, "solve_prolate", no_work)
    monkeypatch.setattr(transforms, "direct_operators", no_work)
    with pytest.raises(OutOfRangeError) as refused:
        run_suite(suite, RunConfig(c=1.0, n_trunc=10**6))
    assert str(refused.value).endswith("array, past the 256 MiB limit")
    assert cli.main(["verify", "--suite", suite, "--c", "1", "--n-trunc", str(10**6)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error[out-of-range]: {refused.value}\n"
    assert captured.out == ""


def test_cli_makes_no_refusal_of_its_own():
    # The size, range, seed and checked-mode refusals live in verify.admit.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    refusals = {"check", "MAX_ARRAY_BYTES", "CHECKED_MODES", "_largest_array_bytes", "seed"}
    assert not read & refusals
    assert "admit" in read


# One argv of each command, suite and operator, and the job it is admitted as.
_ADMITTED = [
    (("pswf",), "pswf"),
    (("nystrom", "--out", "F"), "nystrom"),
    *((("verify", "--suite", suite), suite) for suite in SUITES),
    *((("export-operator", which, "--out", "F"), which) for which in verify.OPERATOR_NAMES),
]


@pytest.mark.parametrize("argv, job", _ADMITTED, ids=[job for _, job in _ADMITTED])
def test_main_admits_every_job_once_before_any_work(argv, job, monkeypatch, capsys, tmp_path):
    admitted = []

    def spy(job, config):
        admitted.append((job, config.c))
        raise OutOfRangeError("refused by the gate")

    monkeypatch.setattr(verify, "admit", spy)
    monkeypatch.setattr(cli, "admit", spy)
    out = tmp_path / "out.json"
    argv = [str(out) if arg == "F" else arg for arg in argv]
    assert cli.main([*argv, "--c", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error[out-of-range]: refused by the gate\n"
    assert captured.out == ""
    assert admitted == [(job, 2.0)]
    assert not out.exists()


@pytest.mark.parametrize("job", C_RANGES)
def test_every_stated_range_fits_the_array_limit(job):
    assert verify._largest_array_bytes(job, RunConfig(c=C_RANGES[job].high)) <= verify.MAX_ARRAY_BYTES


@pytest.mark.parametrize("which", verify.OPERATOR_NAMES)
def test_every_operator_fits_the_array_limit_at_the_nystrom_range(which):
    # T, Fc and Qc state no range; every operator fits up to the oracle's c <= 340.
    assert verify._largest_array_bytes(which, RunConfig(c=MAX_C)) <= verify.MAX_ARRAY_BYTES


def _recorded_tables(monkeypatch, on_table=None):
    """Patch every layer's legendre_table to record 24 bytes a value of each
    table it returns: the table's 8 and its recurrence's coefficients' 16."""
    tables = []

    def recorded(n_max, x):
        table = legendre.legendre_table(n_max, x)
        tables.append(24 * table.size)
        if on_table is not None:
            on_table()
        return table

    for module in (prolate, transforms, ucalc):
        monkeypatch.setattr(module, "legendre_table", recorded)
    return tables


@pytest.mark.parametrize("which", verify.RECONSTRUCTED)
@pytest.mark.parametrize("c", [0.5, 7.0, 12.0])
def test_the_array_prediction_bounds_a_reconstructed_export(which, c, monkeypatch):
    # The prediction is the Legendre table over every xi rule, with its
    # recurrence's coefficients.  Every table the export builds fits in it,
    # and from the table on the build never holds a (modes x q_xi) array
    # more: no ratio table and no complex copy of one.
    config = RunConfig(c=c)
    predicted = verify._largest_array_bytes(which, config)
    n_dim = verify._enlarged_dim(config)
    ratio_table = 8 * n_dim * transforms._default_q_xi(c, n_dim)
    held = []

    def from_here():
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()

    tables = _recorded_tables(monkeypatch, from_here)
    tracemalloc.start()
    try:
        cli.build_operator(config, which)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables and sum(tables) <= predicted
    assert len(held) == 1 and peak - held[0] < ratio_table


@pytest.mark.parametrize("suite", ["fourier", "sinc"])
@pytest.mark.parametrize("c", [0.5, 7.0, 12.0])
def test_the_array_prediction_bounds_a_suites_tables(suite, c, monkeypatch):
    # The suites reconstruct on their own basis (the fourier suite both
    # variants, from one table) and build the direct operators.
    config = RunConfig(c=c)
    tables = _recorded_tables(monkeypatch)
    run_suite(suite, config)
    assert len(tables) == 2 and max(tables) <= verify._largest_array_bytes(suite, config)


@pytest.mark.parametrize("c", ["1e-6", "0.05", "0.1"])
def test_limits_small_runs_at_the_c_it_is_given(c, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", "limits-small", "--c", c, "--out", str(out)]) == 0
    assert "suite limits-small: PASS" in capsys.readouterr().out
    assert _load_json(out)["params"] == {"c": float(c), "N": 24}


@pytest.mark.parametrize("suite", list(SUITES))
def test_reports_record_the_seed_only_where_it_is_read(suite, tmp_path, capsys):
    c = {"limits-small": "0.05", "limits-large": "4"}.get(suite, "1")
    out = tmp_path / "r.json"
    argv = ["verify", "--suite", suite, "--c", c, "--seed", "7", "--out", str(out)]
    assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    params = _load_json(out)["params"]
    if suite == "translation":
        assert params["seed"] == 7
    else:
        assert "seed" not in params


@pytest.mark.parametrize("which", verify.OPERATOR_NAMES)
def test_export_records_the_variant_only_where_it_is_read(which, tmp_path, capsys):
    out = tmp_path / "op.json"
    argv = ["export-operator", which, "--c", "1", "--n-trunc", "8", "--variant", "full"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    params = _load_json(out)["params"]
    if which.endswith("-reconstructed"):
        assert params["variant"] == "full"
    else:
        assert "variant" not in params


def test_suite_registry_feeds_the_parser():
    assert list(SUITES) == [
        "translation", "fourier", "sinc", "limits-small", "limits-large", "commutation"
    ]
    parser = cli.build_parser()
    for name in SUITES:
        assert parser.parse_args(["verify", "--suite", name]).suite == name


_BESSEL = "|U(eps/c^2) - I0(sqrt(2 eps))| at eps=2"
_WKB = "WKB matching consistency at eps=30"
# Values of the records that sum the translation series, exactly as each
# record holds them (repr round-trips a float64).  A change to the series or
# its callers that moves one bit fails here.  Recorded on x86-64 with numpy
# 2.4 and its bundled OpenBLAS; another LAPACK build may move the last bits.
# The series is summed in np.longdouble, so the pins hold only for the
# format they were recorded in: 80-bit x87 extended precision, a 64-bit
# significand (finfo nmant 63, eps 2**-63 = 1.08e-19).  Where longdouble is
# IEEE quad (aarch64 Linux) or double, the records differ in their last bits.
_X87_LONGDOUBLE = (63, 2.0**-63)
_SERIES_CHECK_VALUES = {
    ("translation", 4.0): {"series-vs-spectral ratio, n<=8, 10 random xi": 1.865174681370263e-14},
    ("translation", 10.0): {"series-vs-spectral ratio, n<=8, 10 random xi": 4.622506821760908e-10},
    ("translation", 15.0): {"series-vs-spectral ratio, n<=8, 10 random xi": 6.6716165747493505e-06},
    ("limits-large", 10.0): {_BESSEL: 0.1531171755856069, _WKB: 0.0009896568372241095},
    ("limits-large", 17.0): {_BESSEL: 0.09146145381876147, _WKB: 0.018177485101639534},
}


@pytest.mark.skipif(
    (np.finfo(np.longdouble).nmant, float(np.finfo(np.longdouble).eps)) != _X87_LONGDOUBLE,
    reason="series pins are recorded for the 80-bit x87 longdouble",
)
@pytest.mark.parametrize("suite, c", sorted(_SERIES_CHECK_VALUES))
def test_series_check_values_are_pinned(suite, c):
    # The suite itself, so that a c past its stated range still pins the series.
    report = SUITES[suite](RunConfig(c=c, seed=1234))
    expected = _SERIES_CHECK_VALUES[suite, c]
    values = {r.name: r.value for r in report.records if r.name in expected}
    assert values == expected


def test_limits_large_report_does_not_depend_on_blas_threads(tmp_path):
    # The Nystrom record "1 - mu_0(c/2)" comes from two half-size eigh's;
    # a full 400 x 400 eigh moved its last bits with the OpenBLAS thread
    # count.  On a one-core machine both runs use one thread.
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"limits-large-{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "prolate_calculus.cli", "verify", "--suite", "limits-large",
             "--c", "10", "--out", str(out)],
            capture_output=True, text=True, env=dict(CHILD_ENV, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode in (0, 1), proc.stderr
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize("c", ["10", "20"])
def test_nystrom_table_does_not_depend_on_blas_threads(c, tmp_path):
    # The table comes from two parity-block eigh's, a QR and a small eigh of
    # T per block; none may move a written bit with the OpenBLAS thread count.
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"nystrom-{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "prolate_calculus.cli", "nystrom", "--c", c, "--out", str(out)],
            capture_output=True, text=True, env=dict(CHILD_ENV, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1


class TestPswfCommand:
    def test_writes_table_and_passes(self, tmp_path):
        out = tmp_path / "pswf.json"
        proc = run_cli("pswf", "--c", "1", "--out", str(out))
        assert proc.returncode == 0
        payload = _load_json(out)
        assert payload["kind"] == "table"
        data = payload["data"]
        assert data["chi"][0] == pytest.approx(0.319, abs=1e-3)
        assert all(a < b for a, b in zip(data["chi"], data["chi"][1:]))
        np.testing.assert_allclose(
            np.array(data["chi"][:5]),
            np.array([n * (n + 1) for n in range(5)]),
            atol=0.6,
        )

    def test_c_zero_chi_column(self, tmp_path):
        out = tmp_path / "pswf0.csv"
        proc = run_cli("pswf", "--c", "0", "--out", str(out), "--format", "csv")
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        chi_col = header.index("chi")
        chi = [float(line.split(",")[chi_col]) for line in lines[1:6]]
        np.testing.assert_allclose(chi, [0, 2, 6, 12, 20], atol=1e-12)

    @pytest.mark.parametrize("c, passed", [(20.0, True), (22.0, False)])
    def test_conditioning_is_the_largest_inverse_endpoint(self, c, passed):
        report = cli.cmd_pswf(RunConfig(c=c))
        (record,) = [r for r in report.records if r.name.startswith("conditioning")]
        basis = solve_prolate(c)
        assert record.value == 1.0 / np.min(np.abs(basis.endpoint_plus[: basis.n_certified]))
        assert record.passed is passed

    def test_conditioning_reads_inf_where_an_endpoint_is_zero(self):
        # Some psi_n(+-1) is exactly 0 at c = 40.  Warnings are errors here,
        # so the record is computed without a numpy division warning.
        basis = solve_prolate(40.0)
        assert np.min(np.abs(basis.endpoint_plus[: basis.n_certified])) == 0
        report = cli.cmd_pswf(RunConfig(c=40.0))
        (record,) = [r for r in report.records if r.name.startswith("conditioning")]
        assert record.value == math.inf
        assert not record.passed

    def test_summary_reports_the_run_time(self):
        report = cli.cmd_pswf(RunConfig(c=4.0))
        assert report.wall_time_s > 0
        assert all(" <= " in line for line in report.summary_lines()[1:])

    def test_mu_column_matches_nystrom_fixture(self, tmp_path):
        table_out = tmp_path / "pswf.json"
        fixture_out = tmp_path / "ny.json"
        assert run_cli("pswf", "--c", "1", "--out", str(table_out)).returncode == 0
        assert run_cli("nystrom", "--c", "1", "--out", str(fixture_out)).returncode == 0
        mu_spectral = _load_json(table_out)["data"]["mu"]
        mu_oracle = _load_json(fixture_out)["data"]["mu"]
        for a, b in zip(mu_spectral[:9], mu_oracle[:9]):
            assert abs(a - b) <= 1e-8


class TestExportOperator:
    def test_roundtrip_and_determinism(self, tmp_path):
        # Every operator at N = 24, the reconstructed ones cut from their
        # enlarged N + 24 basis: the file holds 24 x 24 entries, and two runs
        # write the same bytes.
        for which in verify.OPERATOR_NAMES:
            for fmt in ("json", "csv"):
                out1, out2 = tmp_path / f"{which}-1.{fmt}", tmp_path / f"{which}-2.{fmt}"
                args = ("export-operator", which, "--c", "1", "--n-trunc", "24", "--format", fmt)
                assert run_cli(*args, "--out", str(out1)).returncode == 0
                assert run_cli(*args, "--out", str(out2)).returncode == 0
                assert out1.read_bytes() == out2.read_bytes()
                if fmt == "json":
                    payload = _load_json(out1)
                    assert payload["params"]["dim"] == 24
                    assert len(payload["data"]) == 576
                else:
                    lines = out1.read_text(encoding="utf-8").splitlines()
                    assert len(lines) == 577
                    assert lines[-1].startswith("23,23,")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "which, variant",
        [pytest.param(which, None, id=which) for which in ("Fc", "Qc")]
        + [
            pytest.param(which, variant, id=f"{which}-{variant}")
            for which in ("Fc-reconstructed", "Qc-reconstructed")
            for variant in ("folded", "full")
        ],
    )
    def test_exported_operators_symmetric_in_file(self, which, variant, fmt, tmp_path):
        # F_c and Q_c are functions of the self-adjoint T, so their real
        # Legendre-basis matrices are symmetric: the file holds each entry's
        # mirror bit for bit.
        out = tmp_path / f"op.{fmt}"
        argv = ["export-operator", which, "--c", "1", "--n-trunc", "16", "--format", fmt, "--out", str(out)]
        assert cli.main(argv + (["--variant", variant] if variant else [])) == 0
        entries = _read_operator_json(out) if fmt == "json" else _read_operator_csv(out, 16)
        assert entries.shape == (16, 16)
        assert np.array_equal(entries, entries.T)

    def test_reconstructed_fc_writes_one_value_per_mirror_pair(self, tmp_path):
        # Each variant assembles F_c per parity block, so the file holds the
        # 2 x 32 x 33 / 2 = 1056 mirror pairs of the two blocks at N = 64 as
        # its only nonzero values; rounding noise in the full variant's
        # zero entries would double that.
        for variant in ("folded", "full"):
            out = tmp_path / f"{variant}.json"
            assert cli.main(["export-operator", "Fc-reconstructed", "--c", "4", "--variant", variant,
                             "--out", str(out)]) == 0
            entries = _read_operator_json(out)
            values = np.concatenate([entries.real.ravel(), entries.imag.ravel()])
            assert np.unique(values[values != 0]).size == 1056, variant

    def test_direct_vs_reconstructed_fourier(self, tmp_path):
        direct_out = tmp_path / "fc.json"
        recon_out = tmp_path / "fcr.json"
        run_cli("export-operator", "Fc", "--c", "1", "--n-trunc", "24", "--out", str(direct_out))
        run_cli(
            "export-operator",
            "Fc-reconstructed",
            "--c",
            "1",
            "--n-trunc",
            "24",
            "--out",
            str(recon_out),
        )
        direct = _read_operator_json(direct_out)
        recon = _read_operator_json(recon_out)
        assert np.max(np.abs(direct - recon)) <= 1e-7

    def test_csv_export(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = run_cli(
            "export-operator", "T", "--c", "2", "--n-trunc", "8",
            "--out", str(out), "--format", "csv",
        )
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == "row,col,re,im"


# Each verify suite at a c it runs at, and each exported operator in both
# formats (the reconstructed ones in both variants), with its exit code.
_BLOCK_ONLY_RUNS = [
    *[(("verify", "--suite", suite, "--c", {"limits-small": "0.05", "limits-large": "4"}.get(suite, "1")),
       1 if suite == "limits-large" else 0) for suite in SUITES],
    *[(("export-operator", which, "--c", "1", "--variant", variant, "--format", fmt), 0)
      for which in verify.OPERATOR_NAMES for variant in ("folded", "full") for fmt in ("json", "csv")
      if variant == "folded" or which in verify.RECONSTRUCTED],
]


def test_no_command_reads_the_assembled_matrix(monkeypatch, tmp_path):
    # The library works on parity blocks only: with OperatorMatrix.entries
    # raising, every run ends with its usual exit code, output and file.
    def outcomes():
        results = []
        for argv, _ in _BLOCK_ONLY_RUNS:
            out = tmp_path / "out"
            out.unlink(missing_ok=True)
            code, stdout, stderr = _main_in_process([*argv, "--out", str(out)])
            stdout = re.sub(r"checks, [0-9.]+s\)", "checks)", stdout)
            results.append((code, stdout, stderr, out.read_bytes()))
        return results

    usual = outcomes()
    assert [code for code, *_ in usual] == [code for _, code in _BLOCK_ONLY_RUNS]

    def assembled(op):
        raise AssertionError("the library read OperatorMatrix.entries")

    monkeypatch.setattr(transforms.OperatorMatrix, "entries", property(assembled))
    assert outcomes() == usual


def _read_operator_json(path):
    """The entries of an operator file, read bit-exactly: its (re, im) pairs
    viewed as complex, not summed as re + 1j*im, which turns (-0.0, 0.0) into
    0.0 and an infinite imaginary part into a NaN real part."""
    payload = _load_json(path)
    dim = payload["params"]["dim"]
    return np.array(payload["data"], dtype=float).view(complex).reshape(dim, dim)


def _read_operator_csv(path, dim):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "col", "re", "im"]
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [(i, j) for i in range(dim) for j in range(dim)]
    parts = np.array([[float(r[2]), float(r[3])] for r in rows[1:]])
    return parts.view(complex).reshape(dim, dim)


def _main_in_process(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, every warning raised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _assert_outcome(code, stdout, stderr, out, fmt):
    """Exit 0 or 1 with a written file that loads, or a typed refusal (2)."""
    assert code in (0, 1, 2)
    if code == 2:
        assert stderr.startswith("error[")
        assert stdout == ""
        return
    if out is None:
        return
    if fmt == "json":
        assert _load_json(out)["kind"] in ("table", "report")
    else:
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2
        assert all(len(row) == len(rows[0]) for row in rows)


_FUZZ = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_C = st.floats(0.0, 45.0)
_N_TRUNC = st.one_of(st.just(0), st.integers(4, 80))
_FORMATS = st.sampled_from(("json", "csv"))
_VARIANTS = st.sampled_from(("folded", "full"))


def _out_path(tmp_path, name, fmt, write):
    """A fresh output path for one example, or None to run without --out."""
    if not write:
        return None
    out = tmp_path / f"{name}.{fmt}"
    out.unlink(missing_ok=True)
    return out


@settings(_FUZZ, max_examples=40)
@given(
    which=st.sampled_from(verify.OPERATOR_NAMES),
    c=st.floats(0.0, 25.0),
    n_trunc=st.one_of(st.just(0), st.integers(4, 48)),
    fmt=_FORMATS,
    variant=_VARIANTS,
)
def test_export_operator_fuzz_writes_what_it_builds(which, c, n_trunc, fmt, variant, tmp_path):
    """In process: exit 0 or a typed refusal (2), and on 0 a file that reads
    back bit-exactly to the operator ``build_operator`` gives."""
    out = _out_path(tmp_path, "op", fmt, True)
    argv = ["export-operator", which, "--c", repr(c), "--n-trunc", str(n_trunc),
            "--format", fmt, "--variant", variant, "--out", str(out)]
    code, _, stderr = _main_in_process(argv)
    assert code in (0, 2)
    if code == 2:
        assert stderr.startswith("error[")
        assert not out.exists()
        return
    assert stderr == ""
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    expected = cli.build_operator(config, which).entries
    if fmt == "json":
        written = _read_operator_json(out)
    else:
        written = _read_operator_csv(out, config.n_dim)
    assert written.shape == expected.shape
    assert written.tobytes() == np.ascontiguousarray(expected, dtype=complex).tobytes()


@settings(_FUZZ, max_examples=40)
@given(c=_C, n_trunc=_N_TRUNC, fmt=_FORMATS, write=st.booleans())
def test_pswf_fuzz_exits_with_a_verdict_or_a_refusal(c, n_trunc, fmt, write, tmp_path):
    out = _out_path(tmp_path, "pswf", fmt, write)
    argv = ["pswf", "--c", repr(c), "--n-trunc", str(n_trunc), "--format", fmt]
    if out is not None:
        argv += ["--out", str(out)]
    _assert_outcome(*_main_in_process(argv), out, fmt)


@settings(_FUZZ, max_examples=40)
@given(c=st.one_of(_C, st.floats(300.0, 400.0)), fmt=_FORMATS)
def test_nystrom_fuzz_exits_with_a_table_or_a_refusal(c, fmt, tmp_path):
    out = _out_path(tmp_path, "ny", fmt, True)
    argv = ["nystrom", "--c", repr(c), "--format", fmt, "--out", str(out)]
    _assert_outcome(*_main_in_process(argv), out, fmt)


@settings(_FUZZ, max_examples=80)
@given(
    suite=st.sampled_from(list(SUITES)),
    c=_C,
    n_trunc=_N_TRUNC,
    variant=_VARIANTS,
    seed=st.integers(-2, 2**32),
    fmt=_FORMATS,
    write=st.booleans(),
)
@example(suite="translation", c=0.0, n_trunc=0, variant="folded", seed=-1, fmt="json", write=False)
def test_verify_fuzz_exits_with_a_verdict_or_a_refusal(suite, c, n_trunc, variant, seed, fmt,
                                                       write, tmp_path):
    out = _out_path(tmp_path, "report", fmt, write)
    argv = ["verify", "--suite", suite, "--c", repr(c), "--n-trunc", str(n_trunc),
            "--variant", variant, "--seed", str(seed), "--format", fmt]
    if out is not None:
        argv += ["--out", str(out)]
    _assert_outcome(*_main_in_process(argv), out, fmt)


class TestVerifyArtifacts:
    def test_report_json_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ("verify", "--suite", "translation", "--c", "1", "--seed", "7")
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = _load_json(out1)
        assert payload["kind"] == "report"
        assert payload["data"]["passed"] is True

    def test_seed_changes_draws_not_verdict(self, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert run_cli(
            "verify", "--suite", "translation", "--c", "1", "--seed", "1", "--out", str(out1)
        ).returncode == 0
        assert run_cli(
            "verify", "--suite", "translation", "--c", "1", "--seed", "2", "--out", str(out2)
        ).returncode == 0
        assert _load_json(out1)["data"]["passed"] is True
        assert _load_json(out2)["data"]["passed"] is True

    def test_report_csv_matches_json(self, tmp_path, capsys):
        argv = ["verify", "--suite", "translation", "--c", "1", "--seed", "7"]
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert cli.main([*argv, "--format", "csv", "--out", str(csv_out)]) == 0
        assert cli.main([*argv, "--out", str(json_out)]) == 0
        with csv_out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "value", "tol", "passed"]
        checks = _load_json(json_out)["data"]["checks"]
        assert len(rows) == len(checks) + 1
        for row, check in zip(rows[1:], checks):
            assert row[0] == check["name"]
            assert float(row[1]) == check["value"]
            assert float(row[2]) == check["tol"]
            assert int(row[3]) == int(check["passed"])


@pytest.mark.parametrize(
    "argv, suffix",
    [
        (("pswf", "--c", "3"), ".json"),
        (("export-operator", "Fc", "--c", "3", "--n-trunc", "24"), ".json"),
        (("export-operator", "Fc", "--c", "3", "--n-trunc", "24", "--format", "csv"), ".csv"),
        (("export-operator", "Qc", "--c", "3", "--n-trunc", "24"), ".json"),
        (("export-operator", "Qc", "--c", "3", "--n-trunc", "24", "--format", "csv"), ".csv"),
        (("export-operator", "Fc-reconstructed", "--c", "3", "--n-trunc", "24"), ".json"),
        (("export-operator", "Fc-reconstructed", "--c", "3", "--n-trunc", "24", "--format", "csv"), ".csv"),
        (("nystrom", "--c", "3"), ".json"),
        (("verify", "--suite", "limits-small", "--c", "0.05"), ".json"),
        (("verify", "--suite", "limits-large", "--c", "8"), ".json"),
        (("verify", "--suite", "commutation", "--c", "3"), ".json"),
    ],
)
def test_cached_tables_keep_repeated_runs_byte_identical(argv, suffix, tmp_path, capsys):
    # The first run builds the quadrature rules and the small-c table, the
    # second reuses them; the files must not tell the two apart.
    _build_rule.cache_clear()
    _small_c_terms.cache_clear()
    outs = [tmp_path / f"run{i}{suffix}" for i in range(2)]
    codes = [cli.main([*argv, "--out", str(out)]) for out in outs]
    capsys.readouterr()
    assert codes[0] == codes[1]
    assert codes[0] in (0, 1)
    assert outs[0].read_bytes() == outs[1].read_bytes()
