"""End-to-end CLI checks through subprocess, including artifact round-trips."""

import subprocess
import sys

import numpy as np
import pytest

from prolate_calculus import cli
from prolate_calculus.serialize import load_json, operator_from_dict


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "prolate_calculus.cli", *args],
        capture_output=True,
        text=True,
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
        ],
    )
    def test_invalid_input_exits_two(self, argv, capsys):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert "error[" in captured.err
        assert captured.out == ""


def test_cli_import_loads_no_scipy():
    probe = "import sys, prolate_calculus.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSuiteSmoke:
    @pytest.mark.parametrize("variant", ["folded", "full"])
    @pytest.mark.parametrize("suite", ["fourier", "sinc"])
    def test_reconstruction_suite_passes(self, suite, variant, capsys):
        argv = ["verify", "--suite", suite, "--c", "4", "--variant", variant]
        assert cli.main(argv) == 0
        assert f"suite {suite}: PASS" in capsys.readouterr().out


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
