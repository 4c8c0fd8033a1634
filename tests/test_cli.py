"""End-to-end CLI checks through subprocess, including artifact round-trips."""

import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from prolate_calculus import RunConfig, cli, run_suite
from prolate_calculus.asymptotics import _small_c_terms
from prolate_calculus.legendre import _build_rule
from prolate_calculus.serialize import load_json, operator_from_dict
from prolate_calculus.verify import SUITES


# The child interpreter imports the package from the same path as this one.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "prolate_calculus.cli", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


class TestExitCodes:
    def test_passing_suite_exits_zero(self):
        proc = run_cli("verify", "--suite", "commutation", "--c", "2")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_failing_check_exits_one(self):
        proc = run_cli("verify", "--suite", "commutation", "--c", "2", "--tol", "1e-20")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

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
            ("verify", "--suite", "commutation", "--tol", "nan"),
            ("pswf", "--tol", "inf"),
            ("pswf", "--n-trunc", "-5"),
            ("verify", "--suite", "fourier", "--n-trunc", "10"),
            ("verify", "--suite", "sinc", "--n-trunc", "17"),
            ("verify", "--suite", "translation", "--c", "1", "--n-trunc", "4"),
            ("verify", "--suite", "translation", "--c", "1", "--n-trunc", "8"),
            ("verify", "--suite", "translation", "--c", "1", "--n-trunc", "12"),
            ("nystrom", "--n-modes", "500", "--n-nodes", "400", "--out", "unused.json"),
            ("nystrom", "--n-nodes", "1", "--out", "unused.json"),
            ("nystrom", "--n-nodes", "7", "--n-modes", "7", "--out", "unused.json"),
            ("nystrom", "--n-modes", "-1", "--out", "unused.csv", "--format", "csv"),
            ("nystrom", "--n-modes", "0", "--out", "unused.json"),
        ],
    )
    def test_invalid_input_exits_two(self, argv, capsys):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert "error[" in captured.err
        assert captured.out == ""

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
        "argv",
        [
            ("--suite", "fourier"),
            ("--suite", "fourier", "--variant", "full"),
            ("--suite", "sinc"),
            ("--suite", "sinc", "--variant", "full"),
            ("--suite", "translation"),
        ],
    )
    def test_zero_endpoint_value_exits_two(self, argv, capsys):
        # psi_0(-1) rounds to exactly 0.0 at c = 40: the spectral ratios are
        # refused instead of carried into NaN records.
        assert cli.main(["verify", *argv, "--c", "40"]) == 2
        captured = capsys.readouterr()
        assert "error[out-of-range]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, stage",
        [
            (("export-operator", "T", "--c", "2"), "build_operator"),
            (("export-operator", "Fc-reconstructed", "--c", "40"), "build_operator"),
            (("nystrom", "--c", "2"), "nystrom_sinc_eigen"),
        ],
        ids=["export-T", "export-unresolvable-c", "nystrom"],
    )
    def test_missing_out_is_refused_before_any_work(self, argv, stage, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{stage} ran before --out was checked")

        monkeypatch.setattr(cli, stage, refuse)
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error[error]: {argv[0]} requires --out\n"
        assert captured.out == ""

    def test_smallest_sizes_nystrom_accepts(self, tmp_path):
        out = tmp_path / "ny.json"
        assert cli.main(["nystrom", "--n-nodes", "8", "--n-modes", "8", "--out", str(out)]) == 0
        assert load_json(out)["data"]["n"] == list(range(8))


def test_cli_import_loads_no_scipy():
    probe = "import sys, prolate_calculus.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSuiteSmoke:
    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("suite", ["fourier", "sinc"])
    def test_reconstruction_suite_passes(self, suite, variant, capsys):
        argv = ["verify", "--suite", suite, "--c", "4", "--variant", variant]
        assert cli.main(argv) == 0
        assert f"suite {suite}: PASS" in capsys.readouterr().out

    def test_limits_small_passes(self, capsys):
        assert cli.main(["verify", "--suite", "limits-small", "--c", "0.05"]) == 0
        assert "suite limits-small: PASS" in capsys.readouterr().out

    def test_limits_large_completes(self, tmp_path):
        # Only that the suite runs to a report: its verdict at c = 8 is a
        # known FAIL of fixed large-c thresholds.
        out = tmp_path / "large.json"
        assert cli.main(["verify", "--suite", "limits-large", "--c", "8", "--out", str(out)]) in (0, 1)
        checks = load_json(out)["data"]["checks"]
        assert len(checks) >= 6
        assert all(math.isfinite(check["value"]) for check in checks)


def test_suite_registry_feeds_the_parser():
    assert list(SUITES) == [
        "translation", "fourier", "sinc", "limits-small", "limits-large", "commutation"
    ]
    parser = cli.build_parser()
    for name in SUITES:
        assert parser.parse_args(["verify", "--suite", name]).suite == name


def test_translation_linearity_is_relative_to_the_result():
    # At c = 13.75 the applied coefficients grow like 1/|psi_n(-1)|, and the
    # absolute linearity defect exceeded 1e-12 here; relative to max|U f| it
    # stays at rounding level.
    report = run_suite("translation", RunConfig(c=13.75))
    record = next(r for r in report.records if r.name.startswith("linearity"))
    assert record.tol == 1e-13
    assert record.passed


class TestPswfCommand:
    def test_writes_table_and_passes(self, tmp_path):
        out = tmp_path / "pswf.json"
        proc = run_cli("pswf", "--c", "1", "--out", str(out))
        assert proc.returncode == 0
        payload = load_json(out)
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

    def test_mu_column_matches_nystrom_fixture(self, tmp_path):
        table_out = tmp_path / "pswf.json"
        fixture_out = tmp_path / "ny.json"
        assert run_cli("pswf", "--c", "1", "--out", str(table_out)).returncode == 0
        assert run_cli("nystrom", "--c", "1", "--out", str(fixture_out)).returncode == 0
        mu_spectral = load_json(table_out)["data"]["mu"]
        mu_oracle = load_json(fixture_out)["data"]["mu"]
        for a, b in zip(mu_spectral[:9], mu_oracle[:9]):
            assert abs(a - b) <= 1e-8


class TestExportOperator:
    def test_roundtrip_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "q1.json", tmp_path / "q2.json"
        args = ("export-operator", "Qc", "--c", "1", "--n-trunc", "24")
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        op = operator_from_dict(load_json(out1))
        assert op.dim == 24

    def test_exported_qc_symmetric_in_file(self, tmp_path):
        out = tmp_path / "qc.json"
        run_cli("export-operator", "Qc", "--c", "1", "--n-trunc", "16", "--out", str(out))
        entries = operator_from_dict(load_json(out)).entries
        assert np.max(np.abs(entries - entries.T)) <= 1e-12

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
        direct = operator_from_dict(load_json(direct_out)).entries
        recon = operator_from_dict(load_json(recon_out)).entries
        assert np.max(np.abs(direct - recon)) <= 1e-7

    def test_csv_export(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = run_cli(
            "export-operator", "T", "--c", "2", "--n-trunc", "8",
            "--out", str(out), "--format", "csv",
        )
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == "row,col,re,im"


class TestVerifyArtifacts:
    def test_report_json_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ("verify", "--suite", "translation", "--c", "1", "--seed", "7")
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = load_json(out1)
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
        assert load_json(out1)["data"]["passed"] is True
        assert load_json(out2)["data"]["passed"] is True

    def test_report_csv_matches_json(self, tmp_path, capsys):
        argv = ["verify", "--suite", "translation", "--c", "1", "--seed", "7"]
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert cli.main([*argv, "--format", "csv", "--out", str(csv_out)]) == 0
        assert cli.main([*argv, "--out", str(json_out)]) == 0
        with csv_out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "value", "tol", "passed"]
        checks = load_json(json_out)["data"]["checks"]
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
        (("nystrom", "--c", "3", "--n-nodes", "96"), ".json"),
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
