"""Coordinate invariance of the main comparative-statics matrix.

The problem is rewritten in coordinates x = D y, a = P b and the whole
pipeline (Newton, implicit-function Jacobian, prescribed directions, the
main recipe) runs again on the rewritten model.  Directions move to
T P^-T, so the matrix must come out unchanged, the solution as D^-1 x with
the same multipliers, and the solution Jacobian as D^-1 x_jac P.

Limit: a defect inside `build_omega` itself, such as a sign flip of the
matrix, shows in both runs and passes here.  The closed-form oracles of the
property suites and the `coherence[*]` checks of `analyze` cover that case.
"""

from dataclasses import replace

import numpy as np
import pytest

from compstat.benchmarks import all_benchmarks, benchmark_names, get_benchmark
from compstat.csm import build_omega
from compstat.diagnostics import matrix_mismatch
from compstat.geometry import prescribe_isovectors
from compstat.model import BLOCK_FIELDS, ProblemModel
from compstat.sensitivity import decision_jacobian_ift
from compstat.solver import newton_solve

# Chain-ruled blocks carry only rounding, amplified by the conditioning of
# the maps and of the bordered system; the catalog reaches 3.1e-13, and an
# early Newton stop (tolerance 1e-5 instead of 1e-10) already reads 5.3e-7.
CHAIN_RULED_TOL = 1e-9
# FD-only blocks carry stencil truncation and rounding (Hessians nested at
# STEP_NESTED); the catalog reaches 8.7e-7, while an unscaled step or
# swapped first/nested steps read 7.8e-6 and 1.7e-5.
FD_ONLY_TOL = 3e-6


def _linear_maps():
    """D = I + 0.2 N(0, 1) then P drawn alike, per catalog entry in order."""
    rng = np.random.default_rng(7)
    maps = {}
    for entry in all_benchmarks():
        m, n = entry.model.M, entry.model.N
        maps[entry.name] = (np.eye(m) + 0.2 * rng.standard_normal((m, m)),
                            np.eye(n) + 0.2 * rng.standard_normal((n, n)))
    return maps


LINEAR_MAPS = _linear_maps()


def _cycle(n):
    """The permutation matrix that moves coordinate i to i + 1 (mod n)."""
    return np.roll(np.eye(n), 1, axis=0)


def _moved(fn, kind, D, P):
    """Block `kind` of the problem in (y, b) from the callable `fn` of (x, a)."""
    if kind == "value":
        return lambda y, b: fn(D @ y, P @ b)
    left = P.T if kind == "grad_a" else D.T
    right = {"hess_xx": D, "hess_xa": P}.get(kind)

    def block(y, b):
        out = left @ np.asarray(fn(D @ y, P @ b), dtype=float)
        return out if right is None else out @ right
    return block


def transform_model(model: ProblemModel, D, P, keep_derivatives: bool) -> ProblemModel:
    """`model` in the coordinates x = D y, a = P b.

    With `keep_derivatives` every registered block is chain-ruled
    (D^T fx, P^T fa, D^T fxx D, D^T fxa P, and the same per constraint);
    without, every derivative is left to the stencils.  Closed forms,
    invariance generators and labels do not carry over.
    """
    fields = {}
    for kind, (objective_field, bank_field) in BLOCK_FIELDS.items():
        if kind != "value" and not keep_derivatives:
            fields[objective_field] = fields[bank_field] = None
            continue
        fn = getattr(model, objective_field)
        fields[objective_field] = None if fn is None else _moved(fn, kind, D, P)
        bank = getattr(model, bank_field)
        fields[bank_field] = None if bank is None else tuple(
            None if fn is None else _moved(fn, kind, D, P) for fn in bank)
    return replace(model, name=f"{model.name}@moved", analytic_solution=None,
                   parameter_names=(), decision_names=(), invariance_generators=(),
                   separable_kappa=None, **fields)


def _assert_invariant(name, D, P, keep_derivatives, tol):
    entry = get_benchmark(name)
    run = entry.prepare("analytic")
    omega = build_omega(run.model, run.sol, run.sens, run.iso).matrix
    moved = transform_model(entry.model, D, P, keep_derivatives)

    sol = newton_solve(moved, np.linalg.solve(P, run.sol.a),
                       1.001 * np.linalg.solve(D, run.sol.x))
    assert sol.converged and sol.iterations <= 3, (sol.kkt_residual, sol.iterations)
    sens = decision_jacobian_ift(moved, sol)
    iso = prescribe_isovectors(np.linalg.solve(P, run.iso.vectors.T).T, sol.blocks.Ga,
                               run.iso.annihilates_objective)
    omega_moved = build_omega(moved, sol, sens, iso).matrix

    assert matrix_mismatch(omega_moved, omega) <= tol
    assert matrix_mismatch(D @ sol.x, run.sol.x) <= tol
    assert matrix_mismatch(sol.lam, run.sol.lam) <= tol
    assert matrix_mismatch(D @ sens.x_jac @ np.linalg.inv(P), run.sens.x_jac) <= tol


@pytest.mark.parametrize("keep_derivatives, tol",
                         [(True, CHAIN_RULED_TOL), (False, FD_ONLY_TOL)],
                         ids=["chain_ruled", "fd_only"])
@pytest.mark.parametrize("name", benchmark_names())
def test_omega_is_invariant_under_linear_coordinate_changes(name, keep_derivatives, tol):
    D, P = LINEAR_MAPS[name]
    _assert_invariant(name, D, P, keep_derivatives, tol)


@pytest.mark.parametrize("name", benchmark_names())
def test_permuting_coordinates_permutes_the_results(name):
    model = get_benchmark(name).model
    _assert_invariant(name, _cycle(model.M), _cycle(model.N), True, CHAIN_RULED_TOL)

