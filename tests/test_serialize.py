import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from prolate_calculus import OperatorMatrix, assemble_heun_matrix, default_truncation, serialize
from prolate_calculus.prolate import parity_block
from prolate_calculus.serialize import (
    _CHUNK_ROWS,
    SCHEMA,
    dump_json,
    operator_to_csv,
    operator_to_dict,
    table_to_csv,
    table_to_dict,
)


@pytest.fixture
def random_operator(rng):
    return OperatorMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)), 1j)


def _reread(path):
    """The entries of an operator file: its (re, im) pairs viewed as complex,
    which keeps -0.0 and infinite parts that re + 1j*im would change."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    dim = payload["params"]["dim"]
    return np.array(payload["data"], dtype=float).view(complex).reshape(dim, dim)


class TestOperatorRoundtrip:
    def test_bit_exact_roundtrip(self, random_operator, tmp_path):
        path = tmp_path / "op.json"
        dump_json(operator_to_dict(random_operator, {"c": 1.0}), path)
        assert np.array_equal(_reread(path), random_operator.entries)

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
        assert payload["data"] is random_operator

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
# array: the byte-identity oracle for ``dump_json`` and ``operator_to_csv``,
# writing from the complex matrix the blocks assemble to.
def _oracle_json(op, params):
    payload = {
        "schema": SCHEMA,
        "kind": "operator",
        "params": dict(params, dim=len(op.entries)),
        "data": [[float(z.real), float(z.imag)] for z in op.entries.ravel(order="C")],
    }
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _oracle_csv(op):
    entries = op.entries
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["row", "col", "re", "im"])
    for i in range(len(entries)):
        for j in range(len(entries)):
            z = entries[i, j]
            writer.writerow([i, j, "%.17g" % z.real, "%.17g" % z.imag])
    return buf.getvalue().encode()


_EDGE_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324,
    1e-5, 1e-4, 9.999999999999999e15, 1e16, -1e16,
]
_entries = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


def _mirrored(block):
    """The block with each entry below the diagonal a copy of its mirror."""
    below = np.tril_indices(block.shape[-1], -1)
    block[below[0], below[1]] = block[below[1], below[0]]
    return block


@st.composite
def _operators(draw):
    """Parity-block operators of dimension 1 to 9, of either odd phase, with
    edge values anywhere in the blocks."""
    dim = draw(st.integers(1, 9))
    blocks = []
    for size in ((dim + 1) // 2, dim // 2):
        values = draw(st.lists(_entries, min_size=size * size, max_size=size * size))
        blocks.append(np.array(values, dtype=float).reshape(size, size))
    if draw(st.booleans()):  # symmetric, as every exported operator is
        blocks = [_mirrored(block) for block in blocks]
    return OperatorMatrix(*blocks, draw(st.sampled_from([1, 1j])))


_SPECIAL_OP = OperatorMatrix(
    np.array(_EDGE_FLOATS[:9]).reshape(3, 3),
    np.array(_EDGE_FLOATS[9:] + [2.5, -1.0, 3.0, 0.1, 7.0, 1e300]).reshape(3, 3),
    1j,
)

# Two write chunks of rows, with edge values on both sides of the chunk
# boundary: row 15 (odd block row 7) ends the first and row 16 (even block
# row 8) starts the second.
_rng = np.random.default_rng(7)
_TWO_CHUNK_OP = OperatorMatrix(_rng.standard_normal((16, 16)), _rng.standard_normal((16, 16)) * 1e-17, 1j)
_TWO_CHUNK_OP.even[[0, 8, 15], [0, 0, 15]] = [-0.0, 5e-324, np.inf]
_TWO_CHUNK_OP.odd[[7, 15], [15, 15]] = [float("nan"), -np.inf]

# Symmetric, with each value on several entries of both blocks.
_REPEATED_OP = OperatorMatrix(
    _mirrored(np.resize([0.1, -2.5, 1e300, 0.1, 5e-324, -0.0], (3, 3))),
    _mirrored(np.resize([3.0, 0.0, 0.1, -2.5, float("inf")], (3, 3))),
)
# Mirror pairs equal but for the sign of a zero ...
_SIGNED_ZERO_OP = OperatorMatrix(np.array([[1.0, 0.0], [-0.0, 1.0]]), np.array([[-0.0, 2.0], [2.0, 0.0]]), 1j)
# ... or NaNs with different payloads (and signs).
_NAN_PAYLOAD_OP = OperatorMatrix(
    np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000002, 0x7FF8000000000000],
             dtype=np.uint64).view(float).reshape(2, 2),
    np.array([[0xFFF8000000000003]], dtype=np.uint64).view(float),
)


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
    @example(op=_TWO_CHUNK_OP, c=0.5)
    @example(op=_REPEATED_OP, c=2.0)
    @example(op=_SIGNED_ZERO_OP, c=3.0)
    @example(op=_NAN_PAYLOAD_OP, c=4.0)
    @given(op=_operators(), c=st.floats(allow_nan=False))
    def test_operator_files_match_oracle(self, op, c, tmp_path):
        params = {"c": c, "N": op.n_dim, "which": "T", "variant": "folded"}
        json_path, csv_path = tmp_path / "op.json", tmp_path / "op.csv"
        dump_json(operator_to_dict(op, params), json_path)
        operator_to_csv(op, csv_path)
        assert json_path.read_bytes() == _oracle_json(op, params)
        assert csv_path.read_bytes() == _oracle_csv(op)
        # Every part the blocks do not set re-reads as +0.0.
        expected = op.entries.view(float)
        loaded = _reread(json_path).view(float)
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(loaded), nan)
        assert loaded[~nan].tobytes() == expected[~nan].tobytes()

    @pytest.mark.parametrize("which", ["T", "Fc", "Qc"])
    def test_exported_operators_at_a_real_size_match_oracle(self, which, ops, tmp_path):
        # N = 75 at c = 17.27: 75 rows in 5 write chunks, the last of an odd
        # number of rows.
        c = 17.27
        n_dim = default_truncation(c)
        starts = range(0, n_dim, _CHUNK_ROWS)
        assert n_dim == 75 and len(starts) == 5
        assert (n_dim - starts[-1]) % 2 == 1
        if which == "T":
            bands = assemble_heun_matrix(c, n_dim).bands
            op = OperatorMatrix(parity_block(bands, 0), parity_block(bands, 1))
        else:
            op = {"Fc": ops.fourier, "Qc": ops.sinc}[which](c, n_dim)
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
        assert path.read_bytes().count(b"\r\n") == 37

    @pytest.mark.parametrize("phase", [1, 1j])
    @pytest.mark.parametrize("dim", [0, *(2 * _CHUNK_ROWS + k for k in (-1, 0, 1, 2))])
    def test_chunk_boundaries_at_odd_and_even_dimensions(self, dim, phase, tmp_path):
        # Edge values on the last row of each chunk, the first row of the
        # next and the last row of the matrix, in both blocks; and a matrix
        # with no rows.
        rng = np.random.default_rng(dim)
        even, odd = (dim + 1) // 2, dim // 2
        op = OperatorMatrix(rng.standard_normal((even, even)), rng.standard_normal((odd, odd)), phase)
        edges = [(_CHUNK_ROWS - 1, -0.0), (_CHUNK_ROWS, float("nan")), (2 * _CHUNK_ROWS - 1, 5e-324),
                 (2 * _CHUNK_ROWS, -np.inf), (dim - 1, 1e16)]
        for row, value in edges:
            if 0 <= row < dim:
                block = op.odd if row % 2 else op.even
                block[row // 2, [0, -1]] = value
        params = {"c": 1.0, "N": dim}
        json_path, csv_path = tmp_path / "op.json", tmp_path / "op.csv"
        dump_json(operator_to_dict(op, params), json_path)
        operator_to_csv(op, csv_path)
        assert json_path.read_bytes() == _oracle_json(op, params)
        assert csv_path.read_bytes() == _oracle_csv(op)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_large_write_holds_one_chunk_not_the_file(self, fmt, ops, tmp_path, monkeypatch):
        # A direct F_c at c = 10, N = 200: 40000 entries, 1.3 MB in JSON and
        # 0.9 MB in CSV.  Its writer's peak with the default chunk is below
        # its peak with the whole matrix as one chunk by more than the file.
        op = ops.fourier(10.0, 200)
        path = tmp_path / f"op.{fmt}"

        def write():
            if fmt == "json":
                dump_json(operator_to_dict(op, {"c": 10.0}), path)
            else:
                operator_to_csv(op, path)

        def peak():
            write()  # imports and caches settle outside the traced write
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        chunked = peak()
        monkeypatch.setattr(serialize, "_CHUNK_ROWS", op.n_dim)
        whole = peak()
        assert chunked + path.stat().st_size < whole


# The table writers as they were before the columns were formatted as arrays:
# the byte-identity oracle for ``dump_json`` and ``table_to_csv``.
def _oracle_scalar(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _oracle_table_json(columns, params):
    data = {name: [_oracle_scalar(v) for v in values] for name, values in columns.items()}
    payload = {"schema": SCHEMA, "kind": "table", "params": dict(params), "data": data}
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _oracle_table_csv(columns):
    names = list(columns)
    length = len(next(iter(columns.values())))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(names)
    for i in range(length):
        row = []
        for name in names:
            v = columns[name][i]
            row.append(int(v) if isinstance(v, (np.integer, int)) else "%.17g" % float(v))
        writer.writerow(row)
    return buf.getvalue().encode()


@st.composite
def _tables(draw):
    """1 to 4 integer or float columns of one length, 0 to 12, under distinct
    names; the floats with edge values anywhere."""
    name = st.sampled_from(["n", "chi", "lambda", "mu", "psi_plus1", "psi_minus1"]) | st.text(max_size=4)
    names = draw(st.lists(name, min_size=1, max_size=4, unique=True))
    length = draw(st.integers(0, 12))
    columns = {}
    for name in names:
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=length, max_size=length))
            columns[name] = np.array(values, dtype=np.int64)
        else:
            values = draw(st.lists(_entries, min_size=length, max_size=length))
            columns[name] = np.array(values, dtype=float)
    return columns


class TestTableByteLayout:
    """``dump_json`` and ``table_to_csv`` write the frozen byte layout."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(columns={"n": np.arange(len(_EDGE_FLOATS)), "chi": np.array(_EDGE_FLOATS)})
    @example(columns={"n": np.arange(0), "mu": np.zeros(0)})
    @given(columns=_tables())
    def test_table_files_match_oracle(self, columns, tmp_path):
        params = {"c": 2.5, "N": 64}
        json_path, csv_path = tmp_path / "t.json", tmp_path / "t.csv"
        dump_json(table_to_dict(columns, params), json_path)
        table_to_csv(columns, csv_path)
        assert json_path.read_bytes() == _oracle_table_json(columns, params)
        assert csv_path.read_bytes() == _oracle_table_csv(columns)
