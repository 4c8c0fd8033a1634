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
and the file holds the whole complex matrix they stand for.
``operator_to_dict`` scatters the blocks into a (dim², 2) float array of
(re, im) pairs: the even block into the real parts of the even-even
entries, the odd block into the real or, for F_c's phase 1j, the imaginary
parts of the odd-odd entries, and +0.0 into every other part, the entries
of mixed parity included.  ``dump_json`` and ``operator_to_csv`` write it a
block of ``_BLOCK_ROWS`` pairs at a time.
Each distinct nonzero value is formatted once per file (``repr`` or
``%.17g``): F_c and Q_c are exactly symmetric, so about half of their
nonzero values repeat (1444 distinct of 2813 for F_c at c = 17.27, N = 75).
Nonzero values that compare equal have equal bits, NaNs aside, which all
format alike.  Only the nonzero values are deduplicated: most entries of an
operator are exact zeros (mixed parity, and off T's band), so a mostly-zero
T sorts few values, and each block formats 0.0 and -0.0 once.  Each block
is then one ``"".join`` of its cells in file order: fixed separator
strings, the formatted values and, in CSV, the row and column prefixes
``"i,"``, formatted once per file and picked by index.  A JSON pair opens
with the text that closes the pair before it, so a block may start anywhere
in the data.  The bytes are those of the layout above.

The writer holds one string per distinct nonzero value of the file, where
it held those of one block.  For a direct F_c at c = 10, N = 200 (20000
nonzero values, 10100 distinct) its ``tracemalloc`` peak is 1.8 MiB in JSON
and in CSV, against 0.7 MiB when each block formatted its own values.
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
# Operator rows (entries) per write: bounds the joined text of one write.
_BLOCK_ROWS = 512


def operator_to_dict(op: OperatorMatrix, params: dict) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "operator",
        "params": dict(params, dim=op.n_dim),
        "data": _entry_pairs(op),
    }


def _entry_pairs(op: OperatorMatrix) -> np.ndarray:
    """The (re, im) pairs of the entries, row-major, as a (dim², 2) float
    array: the blocks scattered to the entries of their parity, the odd one
    into the imaginary parts when its phase is 1j, and +0.0 elsewhere."""
    pairs = np.zeros((op.n_dim, op.n_dim, 2))
    pairs[0::2, 0::2, 0] = op.even
    pairs[1::2, 1::2, int(op.odd_phase == 1j)] = op.odd
    return pairs.reshape(-1, 2)


def table_to_dict(columns: dict, params: dict) -> dict:
    """Table payload from real columns (name -> 1-D array)."""
    data = {name: [_json_scalar(v) for v in values] for name, values in columns.items()}
    return {"schema": SCHEMA, "kind": "table", "params": dict(params), "data": data}


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
    pairs = payload.get("data")
    if not isinstance(pairs, np.ndarray):
        text = json.dumps(payload, sort_keys=True, indent=1)
        Path(path).write_text(text + "\n", encoding="utf-8")
        return
    text = json.dumps(dict(payload, data=[]), sort_keys=True, indent=1) + "\n"
    # "data" sorts first, so its empty list is the first one in the text.
    head, tail = text.split('"data": []', 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + '"data": [')
        if pairs.size:
            blocks = (_json_block(start, text) for start, text in _formatted_values(pairs, repr))
            if not np.isfinite(pairs).all():
                # repr gives nan, inf, -inf; json writes NaN, Infinity, -Infinity.
                blocks = (b.replace("nan", "NaN").replace("inf", "Infinity") for b in blocks)
            fh.writelines(blocks)
            fh.write("\n  ]\n ")
        fh.write("]" + tail)


def _json_block(start: int, text: list) -> str:
    """The JSON text of one block's pairs, each pair opened by the text that
    closes the pair before it (none before the first pair of the data)."""
    cells = ["\n  ],\n  [\n   ", None, ",\n   ", None] * (len(text) // 2)
    cells[1::2] = text
    if not start:
        cells[0] = "\n  [\n   "
    return "".join(cells)


def _formatted_values(pairs: np.ndarray, fmt):
    """(start, text) for each block of ``_BLOCK_ROWS`` rows of a (n, 2) float
    array, from row ``start`` on: ``text`` lists ``fmt(v)`` for the block's
    values in row-major order.  Each exact zero is formatted once per sign,
    and each distinct nonzero value once per array."""
    zero, negative_zero = fmt(0.0), fmt(-0.0)
    # The distinct nonzero values, sorted: not np.unique, which imports
    # numpy.ma (over 1 MB of resident memory) on its first call.
    flat = pairs.ravel()
    distinct = np.sort(flat[flat != 0])  # NaN counts as nonzero
    keep = np.ones(distinct.size, dtype=bool)
    keep[1:] = distinct[1:] != distinct[:-1]  # keeps every NaN; all format alike
    distinct = distinct[keep]
    texts = list(map(fmt, distinct.tolist()))
    for start in range(0, len(pairs), _BLOCK_ROWS):
        values = pairs[start : start + _BLOCK_ROWS].ravel()
        text = [zero] * values.size
        for i in np.flatnonzero(np.signbit(values) & (values == 0)).tolist():
            text[i] = negative_zero
        nonzero = np.flatnonzero(values)
        # searchsorted orders NaN last, as sort does, so every NaN finds one.
        which = np.searchsorted(distinct, values[nonzero])
        for i, value in zip(nonzero.tolist(), map(texts.__getitem__, which.tolist())):
            text[i] = value
        yield start, text


def operator_to_csv(op: OperatorMatrix, path) -> None:
    # The rows csv.writer would write: indices and %.17g floats never need
    # quoting, and its line end is \r\n.
    pairs = _entry_pairs(op)
    dim = op.n_dim
    # "i," for each row and column index i, picked per entry by index.
    prefixes = np.array([f"{i}," for i in range(dim)], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("row,col,re,im\r\n")
        for start, text in _formatted_values(pairs, _CSV_FMT.__mod__):
            n = len(text) // 2
            rows, cols = np.divmod(np.arange(start, start + n), dim)
            cells = [None, None, None, ",", None, "\r\n"] * n
            cells[0::6] = prefixes[rows].tolist()
            cells[1::6] = prefixes[cols].tolist()
            cells[2::6] = text[0::2]
            cells[4::6] = text[1::2]
            fh.write("".join(cells))


def table_to_csv(columns: dict, path) -> None:
    """One row per index of the real columns (name -> 1-D array)."""
    names = list(columns)
    length = len(next(iter(columns.values())))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(length):
            writer.writerow([_format_cell(columns[n][i]) for n in names])


def report_to_csv(report, path) -> None:
    """One row per check: name, value, tol, passed (0 or 1)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "value", "tol", "passed"])
        for r in report.records:
            writer.writerow([r.name, _CSV_FMT % r.value, _CSV_FMT % r.tol, int(r.passed)])


def _format_cell(v):
    if isinstance(v, (np.integer, int)):
        return int(v)
    return _CSV_FMT % float(v)
