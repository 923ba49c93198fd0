"""Run-report assembly and lossless JSON serialization.

Matrices are emitted row-major as arrays of arrays next to a labels array;
floats go through Python's shortest round-trip repr, so a serialized report
reloads bit-identically.  The schema carries an explicit version that must
be bumped on any field change.

Every JSON document the CLI prints is rendered by `encode_json` as exactly
the characters `json.dumps` produces with an indent of two spaces.  orjson
renders a document in one piece, with the same shortest round-trip float
digits as `float.__repr__`; a few line-anchored substitutions then respell
its exponents as `float.__repr__` does (`1e-07`, `1e+16`, `1e-05` for
orjson's `1e-7`, `1e16`, `0.00001`).  `json.dumps` itself renders a
document instead when orjson rejects it (NumPy scalars, ints beyond 64
bits), when its text holds a non-ASCII or DEL character (orjson leaves them
unescaped), or when it holds a NaN or an infinity (orjson writes `null`).
A document can be rendered nested at a depth, so that a part of a larger
document is rendered where it is computed and the parts are joined as text.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import orjson

from .csm import CsmResult
from .diagnostics import CheckReport
from .geometry import IsovectorSet
from .sensitivity import SensitivityBundle
from .solver import SolutionPoint

SCHEMA_VERSION = "2"


def labeled_matrix(matrix: np.ndarray, row_labels=(), col_labels=()) -> dict:
    matrix = np.asarray(matrix, dtype=float)
    return {
        "row_labels": list(row_labels),
        "col_labels": list(col_labels),
        "rows": matrix.tolist(),
    }


def solution_dict(sol: SolutionPoint) -> dict:
    return {
        "a": [float(v) for v in sol.a],
        "x": [float(v) for v in sol.x],
        "multipliers": [float(v) for v in sol.lam],
        "kkt_residual": float(sol.kkt_residual),
        "iterations": int(sol.iterations),
        "converged": bool(sol.converged),
        "source": sol.source,
        "newton_discrepancy": (None if sol.newton_discrepancy is None
                               else float(sol.newton_discrepancy)),
    }


def sensitivity_dict(sens: SensitivityBundle, parameter_names, decision_names) -> dict:
    return {
        "method": sens.method,
        "step": None if sens.step is None else float(sens.step),
        "cross_check_residual": (None if sens.cross_check_residual is None
                                 else float(sens.cross_check_residual)),
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
        "null_residuals": [[float(v) for v in row] for row in iso.null_residuals],
    }


def csm_dict(result: CsmResult) -> dict:
    return {
        "recipe": result.recipe,
        "sign_convention": result.sign_convention,
        "matrix": labeled_matrix(result.matrix, result.labels, result.labels),
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "symmetry_residual": float(result.symmetry_residual),
        "rank_estimate": int(result.rank_estimate),
        "rank_tol": float(result.rank_tol),
        "symmetry_tol": float(result.symmetry_tol),
        "transform_kind": result.transform_kind,
        "note": result.note,
    }


def check_dict(rep: CheckReport) -> dict:
    return {
        "name": rep.name,
        "verdict": rep.verdict,
        "residual": None if rep.residual is None else float(rep.residual),
        "tolerance": None if rep.tolerance is None else float(rep.tolerance),
        "claim": rep.claim,
        "details": _jsonable(rep.details),
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) == {float}:
            return list(value)
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return value.tolist()
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):     # before int: bool is an int
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
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
            lines.append(",".join([str(label)] + [repr(v) for v in row]))
        out[item["recipe"]] = "\n".join(lines) + "\n"
    return out


def encode_json(obj, depth: int = 0) -> str:
    """`obj` as `json.dumps(obj, indent=2)` renders it, every line after the
    first indented `depth` levels further, without a final newline.

    Lists and tuples, dicts with str keys, str, int, float, bool and None
    are accepted; anything else raises TypeError.  orjson renders the
    document; it goes to `json.dumps` instead when orjson rejects it or its
    text would differ (see the module docstring).  orjson also renders some
    types `json.dumps` rejects (dataclasses, datetimes, UUIDs, enums); the
    program passes none of them.
    """
    try:
        text = orjson.dumps(obj, option=orjson.OPT_INDENT_2).decode()
    except TypeError:
        if not _str_keys(obj):            # json.dumps would turn them into str
            raise TypeError("dict keys must be str") from None
        text = None
    if text is None or not text.isascii() or "\x7f" in text or not _finite(obj):
        text = json.dumps(obj, indent=2)
    else:
        text = _EXPONENT.sub(_respell_exponent, text)
        text = _FIFTH.sub(_respell_fifth, text)
    return text.replace("\n", "\n" + "  " * depth) if depth else text


# orjson writes `1e-7`, `1e16` and `0.00001` where float.__repr__ writes
# `1e-07`, `1e+16` and `1e-05`.  These patterns respell a number token that
# ends a line, before an optional comma; a string token cannot end there,
# since it ends with its quote.
_EXPONENT = re.compile(r"e(\d+|-\d)(?=,?$)", re.M)
_FIFTH = re.compile(r"0\.0000(\d)(\d*)(?=,?$)", re.M)


def _respell_exponent(match) -> str:
    digits = match[1]
    return "e-0" + digits[1] if digits[0] == "-" else "e+" + digits


def _respell_fifth(match) -> str:
    start = match.start()
    if start and match.string[start - 1].isdigit():    # 10.00001 stays
        return match[0]
    lead, rest = match.group(1, 2)
    return f"{lead}.{rest}e-05" if rest else f"{lead}e-05"


def _finite(obj) -> bool:
    """False if `obj` holds a NaN or an infinity, or finite floats in one
    list whose sum overflows."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    if isinstance(obj, (list, tuple)):
        try:
            return math.isfinite(sum(obj))
        except TypeError:                 # an element that is not a number
            return all(map(_finite, obj))
    return True


def _str_keys(obj) -> bool:
    """False if a dict in `obj` has a key that is not a str."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) for k in obj) and all(map(_str_keys, obj.values()))
    if isinstance(obj, (list, tuple)):
        return all(map(_str_keys, obj))
    return True
