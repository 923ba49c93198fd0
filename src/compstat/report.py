"""Run-report assembly and lossless JSON serialization.

Matrices are emitted row-major as arrays of arrays next to a labels array;
floats go through Python's shortest round-trip repr, so a serialized report
reloads bit-identically.  The schema carries an explicit version that must
be bumped on any field change.

Every JSON document the CLI prints goes through `write_json`, which streams
to a text stream exactly the characters `json.dumps` produces with an
indent of two spaces, followed by a newline.  The standard library runs its
C encoder only when `indent` is None, so the indented form would otherwise
spend a Python generator frame on every float of every matrix.  A part of a
document can be rendered ahead of the rest, where it is computed, with
`encode_json` and placed in the document as `JsonText`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

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


@dataclass
class RunReport:
    config: dict
    model: str
    solution: dict
    sensitivity: dict
    isovectors: dict
    csm_results: list
    checks: list
    errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": _jsonable(self.config),
            "model": self.model,
            "solution": self.solution,
            "sensitivity": self.sensitivity,
            "isovectors": self.isovectors,
            "csm_results": self.csm_results,
            "checks": self.checks,
            "errors": self.errors,
            "timings": _jsonable(self.timings),
        }

    @property
    def all_checks_pass(self) -> bool:
        return all(c["verdict"] != "fail" for c in self.checks)


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


def write_json(obj, stream) -> None:
    """Write `obj` to the text stream `stream` as `json.dumps` with an indent
    of two spaces would render it, followed by a newline.

    The document is written in chunks and never held as one string.  Lists
    and tuples, dicts with str keys, str, int, float (NaN and infinities as
    `NaN`, `Infinity`, `-Infinity`), bool, None and `JsonText` are accepted;
    anything else raises TypeError.
    """
    parts = []
    _encode(obj, parts, "\n")
    parts.append("\n")
    stream.writelines(parts)


def encode_json(obj, depth: int = 0) -> str:
    """`obj` as `write_json` renders it nested `depth` levels deep in a
    document, without the final newline."""
    parts = []
    _encode(obj, parts, "\n" + "  " * depth)
    return "".join(parts)


class JsonText:
    """JSON text that `write_json` copies as it is: `encode_json` output for
    the depth at which it is placed."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


_INF = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _encode(obj, parts: list, newline: str) -> None:
    """Append the chunks of `obj`, nested at the indentation `newline` ends
    with, to `parts`."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:                 # an element that is not a float
            text = None
        if text is not None and "n" not in text:   # no nan, inf or -inf
            parts += ("[", inner, text, newline, "]")
            return
        separator = "[" + inner
        for value in obj:
            parts.append(separator)
            separator = "," + inner
            _encode(value, parts, inner)
        parts += (newline, "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in obj.items():
            parts += (separator, encode_basestring_ascii(key), ": ")
            separator = "," + inner
            _encode(value, parts, inner)
        parts += (newline, "}")
    elif isinstance(obj, JsonText):
        parts.append(obj.text)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

