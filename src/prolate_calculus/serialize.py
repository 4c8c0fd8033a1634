"""JSON and CSV artifacts for operators, tables and verification reports.

The JSON layout is fixed as schema ``prolate-calculus/v1``::

    {"schema": "prolate-calculus/v1",
     "kind":   "operator" | "table" | "report",
     "params": {"c": ..., "N": ..., ...},
     "data":   ...}

Operator data is a flat row-major list of ``[re, im]`` pairs; table data is a
mapping of column name to value list.  Identical inputs produce
byte-identical files, and a re-import reproduces entries bit-exactly.

The byte layout of every written file is frozen:

- JSON is ``json.dumps(payload, sort_keys=True, indent=1)`` plus a final
  newline: sorted keys, one space of indent per level, floats as Python's
  shortest round-trip ``repr`` and non-finite floats as json's ``NaN``,
  ``Infinity`` and ``-Infinity`` tokens.
- CSV has ``\r\n`` line ends, a header row, and floats formatted ``%.17g``
  (``nan``, ``inf``, ``-inf`` for non-finite values, ``-0`` for -0.0).

The operator body is written from the array: ``operator_to_dict`` keeps it
as a (dim², 2) float array, and ``dump_json`` and ``operator_to_csv`` format
it a block of rows at a time with one ``%`` template per block, never entry
by entry.  The bytes are those of the layout above.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DomainError
from .transforms import OperatorMatrix

SCHEMA = "prolate-calculus/v1"
_CSV_FMT = "%.17g"
# Operator rows (entries) formatted per write: bounds the temporary strings.
_BLOCK_ROWS = 512


def operator_to_dict(op: OperatorMatrix, params: dict) -> dict:
    flat = op.entries.ravel()
    pairs = np.empty((flat.size, 2))
    pairs[:, 0] = flat.real
    pairs[:, 1] = flat.imag
    return {
        "schema": SCHEMA,
        "kind": "operator",
        "params": dict(params, dim=op.dim),
        "data": pairs,
    }


def operator_from_dict(payload: dict) -> OperatorMatrix:
    if payload.get("schema") != SCHEMA:
        raise DomainError(f"unknown schema {payload.get('schema')!r}")
    if payload.get("kind") != "operator":
        raise DomainError(f"payload kind {payload.get('kind')!r} is not an operator")
    try:
        dim = int(payload["params"]["dim"])
        flat = np.array(payload["data"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed operator payload: {exc}") from exc
    if dim < 1 or flat.shape != (dim * dim, 2):
        raise DomainError("operator data has the wrong shape")
    # A view, not re + 1j*im: that turns (-0.0, 0.0) into 0.0 and an
    # infinite imaginary part into a NaN real part.
    entries = flat.view(complex).reshape(dim, dim)
    return OperatorMatrix(dim=dim, entries=entries)


def table_to_dict(columns: dict, params: dict) -> dict:
    data = {}
    for name, values in columns.items():
        arr = np.asarray(values)
        if np.iscomplexobj(arr):
            data[name + "_re"] = [float(v) for v in arr.real]
            data[name + "_im"] = [float(v) for v in arr.imag]
        else:
            data[name] = [_json_scalar(v) for v in arr]
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
            blocks = _formatted_rows(pairs, "  [\n   %r,\n   %r\n  ]", ",\n")
            if not np.isfinite(pairs).all():
                # repr gives nan, inf, -inf; json writes NaN, Infinity, -Infinity.
                blocks = (b.replace("nan", "NaN").replace("inf", "Infinity") for b in blocks)
            fh.write("\n")
            fh.writelines(blocks)
            fh.write("\n ")
        fh.write("]" + tail)


def _formatted_rows(rows: np.ndarray, template: str, sep: str = ""):
    """Text of ``template % row`` for each row of a 2-D float array, rows
    joined by ``sep``, in blocks of ``_BLOCK_ROWS`` rows with one ``%`` each."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        text = sep.join([template] * len(block)) % tuple(block.ravel().tolist())
        yield sep + text if start else text


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def operator_to_csv(op: OperatorMatrix, path) -> None:
    # The rows csv.writer would write: indices and %.17g floats never need
    # quoting, and its line end is \r\n.
    rows = np.empty((op.dim, op.dim, 4))
    rows[..., 0] = np.arange(op.dim)[:, None]
    rows[..., 1] = np.arange(op.dim)[None, :]
    rows[..., 2] = op.entries.real
    rows[..., 3] = op.entries.imag
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("row,col,re,im\r\n")
        fh.writelines(_formatted_rows(rows.reshape(-1, 4), f"%d,%d,{_CSV_FMT},{_CSV_FMT}\r\n"))


def table_to_csv(columns: dict, path) -> None:
    split = {}
    for name, values in columns.items():
        arr = np.asarray(values)
        if np.iscomplexobj(arr):
            split[name + "_re"] = arr.real
            split[name + "_im"] = arr.imag
        else:
            split[name] = arr
    names = list(split)
    length = len(next(iter(split.values())))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(length):
            writer.writerow([_format_cell(split[n][i]) for n in names])


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
