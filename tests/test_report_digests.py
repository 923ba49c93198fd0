"""The bounded mode of tools/report_digests.py on small in-memory documents."""

import copy
import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "report_digests", Path(__file__).resolve().parents[1] / "tools" / "report_digests.py")
report_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digests)


def _report():
    return {
        "config": {"model": "toy", "solver.tol": 1e-10},
        "solution": {"a": [1.0, 2.0], "x": [0.5, 1.5], "kkt_residual": 2e-16,
                     "converged": True},
        "sensitivity": {"method": "ift",
                        "x_jac": {"row_labels": ["x1", "x2"], "col_labels": ["a1", "a2"],
                                  "rows": [[0.25, -0.125], [-0.125, 0.75]]}},
        "csm_results": [{"recipe": "omega_eq7",
                         "matrix": {"rows": [[1.5, -0.3], [-0.3, 2.25]]},
                         "eigenvalues": [1.39, 2.36], "rank_estimate": 2,
                         "symmetry_residual": 1e-17}],
        "checks": [{"name": "envelope", "verdict": "pass", "residual": 3e-11,
                    "tolerance": 1e-5,
                    "details": {"value_directional": [0.1, 0.2]}}],
    }


def _records(doc, stderr=""):
    return [{"argv": ["analyze", "--model", "toy"], "exit": 0,
             "stdout": {"json": doc}, "out": None, "stderr": stderr}]


def _compare(old, new, old_stderr="", new_stderr=""):
    comparison = report_digests.Comparison()
    comparison.records(_records(old, old_stderr), _records(new, new_stderr))
    return comparison


def _matrices(doc):
    yield doc["sensitivity"]["x_jac"]["rows"]
    for result in doc["csm_results"]:
        yield result["matrix"]["rows"]
        yield [result["eigenvalues"]]


def test_a_one_ulp_move_in_every_matrix_passes():
    old, new = _report(), _report()
    for rows in _matrices(new):
        for row in rows:
            row[:] = [math.nextafter(v, math.inf) for v in row]
    comparison = _compare(old, new)
    assert not comparison.failed()
    assert len(comparison.floats) == 10
    assert max(ratio for *_, ratio in comparison.floats) < 0.1


def test_a_relative_move_of_one_omega_entry_fails():
    old, new = _report(), _report()
    new["csm_results"][0]["matrix"]["rows"][1][0] *= 1.0 + 1e-6
    comparison = _compare(old, new)
    assert comparison.failed() and not comparison.exact
    [(where, cls, _, _, ratio)] = comparison.floats
    assert where.endswith("[stdout]/csm_results/0/matrix/rows/1/0")
    assert cls == "value" and ratio > 1e3


def test_a_flipped_verdict_fails():
    old, new = _report(), _report()
    new["checks"][0]["verdict"] = "fail"
    comparison = _compare(old, new)
    assert comparison.failed()
    assert [where for where, *_ in comparison.exact] == [
        "analyze --model toy [stdout]/checks/0/verdict"]


def test_a_renamed_key_fails():
    old, new = _report(), _report()
    new["solution"]["x_star"] = new["solution"].pop("x")
    comparison = _compare(old, new)
    assert comparison.failed()
    assert comparison.exact[0][0] == "analyze --model toy [stdout]/solution{keys}"


@pytest.mark.parametrize("move, fails", [(0.5e-6, False), (2e-6, True)])
def test_a_residual_may_move_by_a_tenth_of_its_tolerance(move, fails):
    old, new = _report(), _report()
    new["checks"][0]["residual"] += move          # the check's tolerance is 1e-5
    assert _compare(old, new).failed() is fails


@pytest.mark.parametrize("move, fails", [(1e-9, False), (5e-9, True)])
def test_a_csm_symmetry_residual_is_judged_by_its_eigenvalue_scale(move, fails):
    old, new = _report(), _report()
    new["csm_results"][0]["symmetry_residual"] += move   # bound 0.1 * 1e-8 * 2.36
    assert _compare(old, new).failed() is fails


def test_a_warning_may_change_its_wording_but_not_its_source():
    header = "<checkout>/src/compstat/{}:N: LinAlgWarning: {}\n  {}\n"
    old = header.format("solver.py", "old wording (rcond = 1e-17)", "step = solve()")
    reworded = header.format("solver.py", "new wording (rcond = 1e-17)", "warn()")
    moved = header.format("model.py", "old wording (rcond = 1e-17)", "step = solve()")
    comparison = _compare(_report(), _report(), old, reworded)
    assert not comparison.failed() and len(comparison.notes) == 2
    assert _compare(_report(), _report(), old, moved).failed()


def test_text_numbers_are_judged_by_the_scale_of_their_block():
    comparison = report_digests.Comparison()
    csv = "# toy omega_eq7\n,d1,d2\nd1,1000.0,0.5\nd2,0.5,2.0\n"
    comparison.text("csv", csv, csv.replace("0.5,2.0", "0.5000000000001,2.0"))
    assert not comparison.failed()
    comparison.text("csv", csv, csv.replace("2.0", "2.001"))
    assert comparison.failed()
