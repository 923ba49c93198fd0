"""Run-report assembly and lossless JSON serialization.

Matrices are emitted row-major as arrays of arrays next to a labels array;
floats are written in a shortest round-trip spelling, so a serialized
report reloads bit-identically.  The schema carries an explicit version
that must be bumped on any field change.

Every JSON document the CLI prints is rendered by `encode_json`, the one
renderer, as ASCII bytes in the layout of `json.dumps` with an indent of
two spaces, and the CLI writes those bytes as they are.  orjson renders a
document in one piece, its floats in orjson's own shortest round-trip
spelling, which reads `1e-7`, `1e16` and `0.00001` where `float.__repr__`
reads `1e-07`, `1e+16` and `1e-05`.  Every float and float array that
enters a report goes through `json_floats`, which hands a finite array to
orjson as a read-only, C-contiguous float64 NumPy array (orjson writes its
elements as it writes floats, without a list of Python floats in between)
and a 0-d array or a number as a float.  orjson writes a NaN or an
infinity as `null`, so `json_floats` tests finiteness once per value and
marks one that holds a NaN or an infinity with a type orjson refuses.
`json.dumps` itself renders a document, with `NaN`, `Infinity` and
`-Infinity`, when orjson refuses it (such a marked value, ints beyond 64
bits) or when its text holds a non-ASCII or DEL character (orjson leaves
them unescaped); float arrays become lists of floats for it.
A document can be rendered nested at a depth, so that a part of a larger
document is rendered where it is computed and the parts are written in turn.
"""

from __future__ import annotations

import json
import math

import numpy as np
import orjson

from .csm import CsmResult
from .diagnostics import CheckReport
from .geometry import IsovectorSet
from .sensitivity import SensitivityBundle
from .solver import SolutionPoint

SCHEMA_VERSION = "2"


def json_floats(values):
    """`values` as JSON data: None stays None, a number or a 0-d array
    becomes a float, and any other array or (nested) list of floats becomes
    a read-only, C-contiguous float64 array of its own, a copy that aliases
    no array of the pipeline.  orjson refuses a 0-d, Fortran-ordered or
    strided array, and its whole document would then go to `json.dumps`.
    Finiteness is tested once per value; one that holds a NaN or an infinity
    comes back as a `_NonFiniteFloat` or a `_NonFiniteList`, which orjson
    refuses, so that `json.dumps` renders its document (see the module
    docstring)."""
    if values is None:
        return None
    if type(values) not in (float, int, bool) and isinstance(values, (np.ndarray, list, tuple)):
        array = np.array(values, dtype=float, order="C")
        if array.ndim:
            if not np.isfinite(array).all():
                return _NonFiniteList(array.tolist())
            array.setflags(write=False)
            return array
        values = array
    value = float(values)
    return value if math.isfinite(value) else _NonFiniteFloat(value)


class _NonFiniteFloat(float):
    """A NaN or an infinity; orjson refuses float subclasses."""


class _NonFiniteList(list):
    """Lists of floats holding a NaN or an infinity; orjson refuses list
    subclasses under `OPT_PASSTHROUGH_SUBCLASS`."""


def labeled_matrix(matrix: np.ndarray, row_labels=(), col_labels=()) -> dict:
    return {
        "row_labels": list(row_labels),
        "col_labels": list(col_labels),
        "rows": json_floats(matrix),
    }


def solution_dict(sol: SolutionPoint) -> dict:
    return {
        "a": json_floats(sol.a),
        "x": json_floats(sol.x),
        "multipliers": json_floats(sol.lam),
        "kkt_residual": json_floats(sol.kkt_residual),
        "iterations": int(sol.iterations),
        "converged": bool(sol.converged),
        "source": sol.source,
        "newton_discrepancy": json_floats(sol.newton_discrepancy),
    }


def sensitivity_dict(sens: SensitivityBundle, parameter_names, decision_names) -> dict:
    return {
        "method": sens.method,
        "step": json_floats(sens.step),
        "cross_check_residual": None,   # always null; schema "2" keeps the key
        "x_jac": labeled_matrix(sens.x_jac, decision_names, parameter_names),
        "lam_jac": labeled_matrix(sens.lam_jac,
                                  [f"lam{k + 1}" for k in range(sens.lam_jac.shape[0])],
                                  parameter_names),
    }


def isovector_dict(iso: IsovectorSet, parameter_names) -> dict:
    return {
        "basis_kind": iso.basis_kind,
        "annihilates_objective": bool(iso.annihilates_objective),
        "redundant": bool(iso.redundant),
        "vectors": labeled_matrix(
            iso.vectors, [f"t{i + 1}" for i in range(iso.count)], parameter_names),
        "null_residuals": json_floats(iso.null_residuals),
    }


def csm_dict(result: CsmResult) -> dict:
    return {
        "recipe": result.recipe,
        "sign_convention": result.sign_convention,
        "matrix": labeled_matrix(result.matrix, result.labels, result.labels),
        "eigenvalues": json_floats(result.eigenvalues),
        "symmetry_residual": json_floats(result.symmetry_residual),
        "rank_estimate": int(result.rank_estimate),
        "rank_tol": json_floats(result.rank_tol),
        "transform_kind": result.transform_kind,
        "note": result.note,
    }


def check_dict(rep: CheckReport) -> dict:
    return {
        "name": rep.name,
        "verdict": rep.verdict,
        "residual": json_floats(rep.residual),
        "tolerance": json_floats(rep.tolerance),
        "claim": rep.claim,
        "details": _jsonable(rep.details),
    }


def _jsonable(value):
    if value is None or type(value) in (int, bool, str):   # exact types first
        return value
    if isinstance(value, (np.floating, float)):
        return json_floats(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) == {float}:
            return json_floats(value)
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return json_floats(value)
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):     # before int: bool is an int
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def run_report(config: dict, model: str, solution: dict, sensitivity: dict,
               isovectors: dict, csm_results: list, checks: list, errors: list,
               timings: dict) -> dict:
    """The report of one analyzed point, in schema `SCHEMA_VERSION`."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": _jsonable(config),
        "model": model,
        "solution": solution,
        "sensitivity": sensitivity,
        "isovectors": isovectors,
        "csm_results": csm_results,
        "checks": checks,
        "errors": errors,
        "timings": _jsonable(timings),
    }


def matrices_to_csv(report_dict: dict) -> dict:
    """One CSV body per matrix in the report, keyed by recipe name."""
    out = {}
    for item in report_dict.get("csm_results", []):
        mat = item["matrix"]
        header = "," + ",".join(mat["col_labels"]) if mat["col_labels"] else ""
        lines = [header] if header else []
        for label, row in zip(mat["row_labels"] or [""] * len(mat["rows"]), mat["rows"]):
            lines.append(",".join([str(label)] + [repr(float(v)) for v in row]))
        out[item["recipe"]] = "\n".join(lines) + "\n"
    return out


def encode_json(obj, depth: int = 0) -> bytes:
    """`obj` in the layout of `json.dumps(obj, indent=2)`, every line after
    the first indented `depth` levels further, as ASCII bytes without a final newline.

    Lists and tuples, dicts with str keys, str, int, float, bool, None and
    float64 arrays are accepted; anything else raises TypeError.  orjson
    renders the document, floats in its own shortest round-trip spelling
    and a float64 array as the lists of its `tolist()`; `json.dumps`
    renders it instead, exactly as it would render the document with each
    array replaced by its `tolist()`, when orjson refuses it or its text
    holds a non-ASCII or DEL character (see the module docstring).  orjson
    writes a NaN or an infinity that has not come through `json_floats` as
    `null`.  orjson also renders some types `json.dumps` rejects: NumPy
    scalars (a float64 bit-exact, a float32 in float32's own shortest
    spelling), other NumPy arrays, dataclasses, datetimes, UUIDs and enums;
    `json_floats` and `_jsonable` turn every NumPy scalar the program
    emits into a Python number, and it passes none of the others.
    """
    try:
        data = orjson.dumps(obj, option=orjson.OPT_INDENT_2 | orjson.OPT_PASSTHROUGH_SUBCLASS
                            | orjson.OPT_SERIALIZE_NUMPY)
    except TypeError:
        if not _str_keys(obj):            # json.dumps would turn them into str
            raise TypeError("dict keys must be str") from None
        data = None
    if data is None or not data.isascii() or b"\x7f" in data:
        data = json.dumps(obj, indent=2, default=_float_array_list).encode()
    return data.replace(b"\n", b"\n" + b"  " * depth) if depth else data


def _float_array_list(value):
    """A float64 array as the lists of `json.dumps`; TypeError otherwise."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _str_keys(obj) -> bool:
    """False if a dict in `obj` has a key that is not a str."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) for k in obj) and all(map(_str_keys, obj.values()))
    if isinstance(obj, (list, tuple)):
        return all(map(_str_keys, obj))
    return True
