"""JSON and CSV artifacts for operators, tables and verification reports.

The JSON layout is fixed as schema ``prolate-calculus/v1``::

    {"schema": "prolate-calculus/v1",
     "kind":   "operator" | "table" | "report",
     "params": {"c": ..., "N": ..., ...},
     "data":   ...}

Operator data is a flat row-major list of ``[re, im]`` pairs; table data is a
mapping of column name to value list.  Floats serialize as Python's shortest
round-trip decimals, so identical inputs produce byte-identical files and a
re-import reproduces entries bit-exactly.
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


def operator_to_dict(op: OperatorMatrix, params: dict) -> dict:
    pairs = [
        [float(z.real), float(z.imag)] for z in op.entries.ravel(order="C")
    ]
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
    dim = int(payload["params"]["dim"])
    flat = np.array(payload["data"], dtype=float)
    if flat.shape != (dim * dim, 2):
        raise DomainError("operator data has the wrong shape")
    entries = (flat[:, 0] + 1j * flat[:, 1]).reshape(dim, dim)
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
    text = json.dumps(payload, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def operator_to_csv(op: OperatorMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im"])
        for i in range(op.dim):
            for j in range(op.dim):
                z = op.entries[i, j]
                writer.writerow([i, j, _CSV_FMT % z.real, _CSV_FMT % z.imag])


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
