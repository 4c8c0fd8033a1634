import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from prolate_calculus import DomainError, OperatorMatrix, default_truncation, heun_operator
from prolate_calculus.serialize import (
    _BLOCK_ROWS,
    SCHEMA,
    dump_json,
    load_json,
    operator_from_dict,
    operator_to_csv,
    operator_to_dict,
    table_to_csv,
    table_to_dict,
)


@pytest.fixture
def random_operator(rng):
    entries = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return OperatorMatrix(dim=6, entries=entries)


class TestOperatorRoundtrip:
    def test_bit_exact_roundtrip(self, random_operator, tmp_path):
        path = tmp_path / "op.json"
        dump_json(operator_to_dict(random_operator, {"c": 1.0}), path)
        loaded = operator_from_dict(load_json(path))
        assert np.array_equal(loaded.entries, random_operator.entries)

    def test_byte_identical_dumps(self, random_operator, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(operator_to_dict(random_operator, {"c": 1.0}), p1)
        dump_json(operator_to_dict(random_operator, {"c": 1.0}), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_fields(self, random_operator):
        payload = operator_to_dict(random_operator, {"c": 2.0})
        assert payload["schema"] == "prolate-calculus/v1"
        assert payload["kind"] == "operator"
        assert payload["params"]["dim"] == 6
        assert len(payload["data"]) == 36

    def test_rejects_bad_payloads(self, random_operator):
        payload = operator_to_dict(random_operator, {})
        with pytest.raises(DomainError):
            operator_from_dict(dict(payload, schema="nope/v0"))
        with pytest.raises(DomainError):
            operator_from_dict(dict(payload, kind="table"))
        bad = dict(payload, data=payload["data"][:-1])
        with pytest.raises(DomainError):
            operator_from_dict(bad)

    @pytest.mark.parametrize(
        "change",
        [
            {"data": [[1.0, 2.0]] * 35 + [[3.0]]},  # ragged
            {"data": [["a", "b"]] * 36},  # non-numeric
            {"data": [[{}, 0.0]] * 36},  # not a number type
            {"params": {"c": 1.0}},  # no dim
            {"params": {"dim": -6}},
        ],
        ids=["ragged", "non-numeric", "object", "no-dim", "negative-dim"],
    )
    def test_malformed_payloads_raise_domain_error(self, random_operator, change):
        payload = dict(operator_to_dict(random_operator, {}), **change)
        with pytest.raises(DomainError):
            operator_from_dict(payload)

    def test_csv_roundtrip_exact(self, random_operator, tmp_path):
        path = tmp_path / "op.csv"
        operator_to_csv(random_operator, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "row,col,re,im"
        rebuilt = np.zeros((6, 6), dtype=complex)
        for line in rows[1:]:
            i, j, re, im = line.split(",")
            rebuilt[int(i), int(j)] = float(re) + 1j * float(im)
        # 17 significant digits give exact float round-trips.
        assert np.array_equal(rebuilt, random_operator.entries)


class TestTables:
    def test_csv_header_and_values(self, tmp_path):
        path = tmp_path / "t.csv"
        table_to_csv({"n": np.array([0, 1]), "chi": np.array([0.25, 2.5])}, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,chi"
        assert lines[1] == "0,0.25"

    def test_json_is_valid_and_sorted(self, tmp_path):
        path = tmp_path / "t.json"
        dump_json(table_to_dict({"mu": np.array([0.5])}, {"c": 1.0}), path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "table"


# The writers as they were before the operator body was formatted from the
# array: the byte-identity oracle for ``dump_json`` and ``operator_to_csv``.
def _oracle_json(op, params):
    payload = {
        "schema": SCHEMA,
        "kind": "operator",
        "params": dict(params, dim=op.dim),
        "data": [[float(z.real), float(z.imag)] for z in op.entries.ravel(order="C")],
    }
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _oracle_csv(op):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["row", "col", "re", "im"])
    for i in range(op.dim):
        for j in range(op.dim):
            z = op.entries[i, j]
            writer.writerow([i, j, "%.17g" % z.real, "%.17g" % z.imag])
    return buf.getvalue().encode()


_EDGE_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324,
    1e-5, 1e-4, 9.999999999999999e15, 1e16, -1e16,
]
_entries = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


def _operator(re, im):
    # Set the parts directly: re + 1j*im would turn inf into NaN and -0.0 into 0.0.
    entries = np.empty(re.shape, dtype=complex)
    entries.real, entries.imag = re, im
    return OperatorMatrix(dim=re.shape[0], entries=entries)


@st.composite
def _operators(draw):
    dim = draw(st.integers(1, 9))
    parts = np.array(draw(st.lists(_entries, min_size=2 * dim * dim, max_size=2 * dim * dim)))
    re, im = parts.reshape(2, dim, dim)
    if draw(st.booleans()):
        im = np.zeros_like(re)  # a real matrix cast to complex, as export-operator T writes
    return _operator(re, im)


_SPECIAL_OP = _operator(
    np.array(_EDGE_FLOATS + [2.5, -1.0, 3.0, 0.1]).reshape(4, 4),
    np.array(_EDGE_FLOATS[::-1] + [7.0, -0.0, 1e300, -1e-300]).reshape(4, 4),
)

# More entries than one write block holds, with edge values on both sides of
# the block boundary.
_rng = np.random.default_rng(7)
_TWO_BLOCK_OP = _operator(_rng.standard_normal((25, 25)), _rng.standard_normal((25, 25)) * 1e-17)
_TWO_BLOCK_OP.entries.ravel()[[0, 511, 512, 624]] = [
    complex(-0.0, 1e16), float("nan"), complex(5e-324, -np.inf), np.inf,
]


class TestByteLayout:
    """``dump_json`` and ``operator_to_csv`` write the frozen byte layout."""

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @example(op=_SPECIAL_OP, c=1.0)
    @example(op=_TWO_BLOCK_OP, c=0.5)
    @given(op=_operators(), c=st.floats(allow_nan=False))
    def test_operator_files_match_oracle(self, op, c, tmp_path):
        params = {"c": c, "N": op.dim, "which": "T", "variant": "folded"}
        json_path, csv_path = tmp_path / "op.json", tmp_path / "op.csv"
        dump_json(operator_to_dict(op, params), json_path)
        operator_to_csv(op, csv_path)
        assert json_path.read_bytes() == _oracle_json(op, params)
        assert csv_path.read_bytes() == _oracle_csv(op)
        loaded = operator_from_dict(load_json(json_path)).entries
        nan = np.isnan(op.entries.view(float))
        assert np.array_equal(np.isnan(loaded.view(float)), nan)
        assert loaded.view(float)[~nan].tobytes() == op.entries.view(float)[~nan].tobytes()

    @pytest.mark.parametrize("which", ["T", "Fc", "Qc"])
    def test_exported_operators_at_a_real_size_match_oracle(self, which, ops, tmp_path):
        # N = 75 at c = 17.27: 5625 entries in 11 write blocks, all but the
        # first starting inside a row.
        c = 17.27
        n_dim = default_truncation(c)
        starts = range(0, n_dim * n_dim, _BLOCK_ROWS)
        assert n_dim == 75 and len(starts) == 11
        assert sum(start % n_dim != 0 for start in starts) == 10
        op = {"T": heun_operator, "Fc": ops.fourier, "Qc": ops.sinc}[which](c, n_dim)
        params = {"c": c, "N": n_dim, "which": which}
        json_path, csv_path = tmp_path / "op.json", tmp_path / "op.csv"
        dump_json(operator_to_dict(op, params), json_path)
        operator_to_csv(op, csv_path)
        assert json_path.read_bytes() == _oracle_json(op, params)
        assert csv_path.read_bytes() == _oracle_csv(op)

    def test_special_operator_tokens(self, tmp_path):
        path = tmp_path / "op.json"
        dump_json(operator_to_dict(_SPECIAL_OP, {}), path)
        text = path.read_text()
        for token in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1e-05", "0.0001", "1e+16"):
            assert f"   {token}," in text or f"   {token}\n" in text
        operator_to_csv(_SPECIAL_OP, path)
        assert path.read_bytes().count(b"\r\n") == 17
