"""JSON and CSV artifacts for operators, tables and verification reports.

The JSON layout is fixed as schema ``prolate-calculus/v1``::

    {"schema": "prolate-calculus/v1",
     "kind":   "operator" | "table" | "report",
     "params": {"c": ..., "N": ..., ...},
     "data":   ...}

Operator data is a flat row-major list of ``[re, im]`` pairs, and
``params["dim"]`` is the side of the square entries; table data is a mapping
of column name to value list.  Identical inputs produce byte-identical files,
and an operator file re-read with ``json.loads``, its pairs viewed as complex,
gives the entries bit-exactly (``tests/test_serialize.py``,
``test_operator_files_match_oracle``, checks both).

The byte layout of every written file is frozen:

- JSON is ``json.dumps(payload, sort_keys=True, indent=1)`` plus a final
  newline: sorted keys, one space of indent per level, floats as Python's
  shortest round-trip ``repr`` and non-finite floats as json's ``NaN``,
  ``Infinity`` and ``-Infinity`` tokens.
- CSV has ``\r\n`` line ends, a header row, and floats formatted ``%.17g``
  (``nan``, ``inf``, ``-inf`` for non-finite values, ``-0`` for -0.0).

An operator comes as its two real parity blocks (``transforms.OperatorMatrix``),
and the file holds the whole complex matrix they stand for: the even block
in the real parts of the even-even entries, the odd block in the real or,
for F_c's phase 1j, the imaginary parts of the odd-odd entries, and +0.0 in
every other part, the entries of mixed parity included.  The writers turn
each block into the whole text of each of its entries' pairs: ``[v, 0.0]``
(laid out over lines as json does) or ``v,0`` in CSV, and ``[0.0, v]`` or
``0,v`` for F_c's odd block.  Each distinct nonzero value of a block is
formatted once (``repr`` or ``%.17g``) and made into its pair text once:
F_c and Q_c are exactly symmetric, so about half of a block's nonzero values
repeat.  Nonzero values that compare equal have equal bits, NaNs aside,
which all format alike.  Only the nonzero values are deduplicated: most
entries of T's blocks are exact zeros off the band, so T sorts few values,
and 0.0 and -0.0 are formatted once each.  Every value of a block is
indexed into those texts by its rank in one sort of the block's nonzero
values, and the block's pair texts are one take of those indices.

The file is then written ``_CHUNK_ROWS`` matrix rows at a time.  A chunk is
an object array of one cell per entry in JSON, pre-filled with the text of
the all-zero pair and given the blocks' pair texts at its even-even and
odd-odd positions; a CSV chunk has three cells per entry, the row prefix
``"i,"``, the column prefix ``"j,"`` (each formatted once per file) and the
pair text.  Each chunk is written with one join.

Table files are written from their columns: each column's values are
formatted with one ``map`` (integer columns as ints) and joined.  Reports
are small and hold check names that may need quoting; they go through
``json`` and ``csv.writer``.

For a direct F_c at c = 10, N = 200 (40000 entries, 20000 values in the
blocks, 10100 of them distinct) the writer's ``tracemalloc`` peak is
1.6 MiB in JSON and 1.5 MiB in CSV, for files of 1.3 and 0.9 MB; most of it
is the 10100 pair texts.  With the whole matrix as one chunk it reads 3.9
and 3.6 MiB.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .transforms import OperatorMatrix

SCHEMA = "prolate-calculus/v1"
_CSV_FMT = "%.17g"
# Operator rows per write, even: bounds the text one write joins.
_CHUNK_ROWS = 16
# json's tokens for the non-finite floats, by their repr.
_JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The text before and after a value's own text in its entry's pair text,
# for a value in the real part and for one in the imaginary part.
_JSON_PAIRS = ("\n  [\n   ", ",\n   0.0\n  ]"), ("\n  [\n   0.0,\n   ", "\n  ]")
_CSV_PAIRS = ("", ",0\r\n"), ("0,", "\r\n")


def operator_to_dict(op: OperatorMatrix, params: dict) -> dict:
    return {"schema": SCHEMA, "kind": "operator", "params": dict(params, dim=op.n_dim), "data": op}


def table_to_dict(columns: dict, params: dict) -> dict:
    """Table payload from real columns (name -> 1-D integer or float array)."""
    return {"schema": SCHEMA, "kind": "table", "params": dict(params), "data": dict(columns)}


def report_to_dict(report) -> dict:
    # Wall time deliberately excluded: artifacts must be byte-identical
    # across runs of the same configuration.
    return {
        "schema": SCHEMA,
        "kind": "report",
        "params": dict(report.params),
        "data": {
            "suite": report.suite,
            "passed": report.passed,
            "checks": [
                {
                    "name": r.name,
                    "value": _json_scalar(r.value),
                    "tol": _json_scalar(r.tol),
                    "passed": r.passed,
                }
                for r in report.records
            ],
        },
    }


def _json_scalar(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def dump_json(payload: dict, path) -> None:
    kind = payload["kind"]
    if kind == "report":
        text = json.dumps(payload, sort_keys=True, indent=1)
        Path(path).write_text(text + "\n", encoding="utf-8")
        return
    empty = [] if kind == "operator" else {}
    text = json.dumps(dict(payload, data=empty), sort_keys=True, indent=1) + "\n"
    # "data" sorts first, so its empty value is the first one in the text.
    head, tail = text.split(f'"data": {json.dumps(empty)}', 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"data": ')
        if kind == "table":
            fh.write(_json_table(payload["data"]))
        elif payload["data"].n_dim:
            _write_json_entries(fh, payload["data"])
        else:
            fh.write("[]")
        fh.write(tail)


def _write_json_entries(fh, op: OperatorMatrix) -> None:
    """The data list of an operator with at least one entry."""
    cells = np.empty((min(_CHUNK_ROWS, op.n_dim), op.n_dim), dtype=object)
    opening = "["
    for _, rows in _row_chunks(op, _json_texts, _JSON_PAIRS, cells):
        fh.write(opening)
        fh.write(",".join(cells[:rows].ravel().tolist()))
        opening = ","
    fh.write("\n ]")


def _json_table(columns: dict) -> str:
    """The data mapping of a table, its columns in sorted order."""
    items = []
    for name in sorted(columns):
        texts = _column_texts(columns[name], _json_texts)
        values = "[\n   " + ",\n   ".join(texts) + "\n  ]" if texts else "[]"
        items.append(f"\n  {json.dumps(name)}: {values}")
    return "{" + ",".join(items) + "\n }" if items else "{}"


def _row_chunks(op: OperatorMatrix, texts_of, pairs, part: np.ndarray):
    """Fill ``part``, a (rows, dim) object array of one cell per entry, with
    the pair texts of the operator's rows, ``_CHUNK_ROWS`` rows at a time,
    and yield (start, rows) once each chunk is in ``part[:rows]``.

    ``texts_of`` formats a float array and ``pairs`` holds the (before,
    after) texts of a real and of an imaginary value (``_JSON_PAIRS``,
    ``_CSV_PAIRS``).  The entries of mixed parity keep the all-zero pair
    text ``part`` is pre-filled with."""
    real, imag = pairs
    even = _pair_texts(op.even, texts_of, real)
    odd = _pair_texts(op.odd, texts_of, imag if op.odd_phase == 1j else real)
    part[...] = real[0] + texts_of(np.zeros(1))[0] + real[1]
    for start in range(0, op.n_dim, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, op.n_dim - start)
        # start is even: the chunk's even rows are the even block's rows from start / 2.
        part[0:rows:2, 0::2] = even[start // 2 : (start + rows + 1) // 2]
        part[1:rows:2, 1::2] = odd[start // 2 : (start + rows) // 2]
        yield start, rows


def _pair_texts(block: np.ndarray, texts_of, pair) -> np.ndarray:
    """The pair text ``before + text + after`` of each value of a real block,
    as an object array of the block's shape.  Each exact zero is formatted
    once per sign and each distinct nonzero value once, and the texts are
    one take of the values' indices (``_indexed``)."""
    distinct, which = _indexed(block.ravel())
    before, after = pair
    texts = texts_of(np.concatenate(([0.0, -0.0], distinct)))
    pair_texts = np.array([before + text + after for text in texts], dtype=object)
    return pair_texts[which].reshape(block.shape)


def _indexed(flat: np.ndarray):
    """(distinct, which): the distinct nonzero values of ``flat`` in sorted
    order, and for every value its index in [+0.0, -0.0, *distinct], from
    one sort of the nonzero values."""
    nonzero = flat != 0  # NaN counts as nonzero
    values = flat[nonzero]
    # Sorted here, not by np.unique, which imports numpy.ma (over 1 MB of
    # resident memory) on its first call.
    order = np.argsort(values)
    ordered = values[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]  # NaN != NaN: each NaN is its own; all format alike
    rank = np.empty(values.size, dtype=np.int32)
    rank[order] = np.cumsum(first) + 1  # 2 for the smallest distinct value
    which = np.signbit(flat).astype(np.int32)  # 0 for +0.0, 1 for -0.0
    which[nonzero] = rank
    return ordered[first], which


def _json_texts(values: np.ndarray) -> list:
    """json's text of each float: its ``repr``, or the token of a non-finite one."""
    texts = list(map(repr, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[k] = _JSON_TOKENS[texts[k]]
    return texts


def _csv_texts(values: np.ndarray) -> list:
    return list(map(_CSV_FMT.__mod__, values.tolist()))


def _column_texts(values, float_texts) -> list:
    """The texts of a table column: an integer column's as ints, any other's
    by ``float_texts``."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return float_texts(values.astype(float))


def operator_to_csv(op: OperatorMatrix, path) -> None:
    # The rows csv.writer would write: indices and %.17g floats never need
    # quoting, and its line end is \r\n.
    dim = op.n_dim
    prefixes = np.array([f"{i}," for i in range(dim)], dtype=object)
    cells = np.empty((min(_CHUNK_ROWS, dim), dim, 3), dtype=object)
    cells[:, :, 1] = prefixes
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("row,col,re,im\r\n")
        for start, rows in _row_chunks(op, _csv_texts, _CSV_PAIRS, cells[:, :, 2]):
            cells[:rows, :, 0] = prefixes[start : start + rows, None]
            fh.write("".join(cells[:rows].ravel().tolist()))


def table_to_csv(columns: dict, path) -> None:
    """One row per index of the real columns (name -> 1-D integer or float array)."""
    texts = [_column_texts(values, _csv_texts) for values in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(columns))  # quotes a name that needs it
        fh.writelines(",".join(row) + "\r\n" for row in zip(*texts))


def report_to_csv(report, path) -> None:
    """One row per check: name, value, tol, passed (0 or 1)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "value", "tol", "passed"])
        for r in report.records:
            writer.writerow([r.name, _CSV_FMT % r.value, _CSV_FMT % r.tol, int(r.passed)])
