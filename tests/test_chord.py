"""Stencil re-solves that take chord steps on the solution's gated factor.

`decision_jacobian_fd` and `check_envelope` hand their Newton re-solves the
factor of the bordered matrix at the solution (`SolutionPoint.bordered`).
At every stencil point of both, a re-solve handed that factor must converge
wherever the same re-solve without it converges, and to the same root;
where its chord steps fail, it must return exactly what the solve without
the factor returns.  The points are those of the nine catalog defaults'
FD-only twins, and of the seeded realization of `test_realization.py` at
constraint row scales (1, 1) and (1, 1e3).

`solve_interior` hands a sweep's closed-form cross-check the same factor
when it starts from its predecessor's prediction.  At each such point of
the sweeps of the closed-form catalog models, it must likewise converge
wherever plain Newton from that start converges, and where a chord step
does not halve the residual, return plain Newton's result exactly.
"""

import numpy as np
import pytest

from compstat import fd, solver
from compstat.benchmarks import benchmark_names, get_benchmark
from compstat.cli import config_from_mapping, resolve_points
from compstat.geometry import build_isovectors
from compstat.numeric import max_abs
from compstat.sensitivity import decision_jacobian_ift
from compstat.solver import (SolverConfig, _continuation_start, bordered_matrix, newton_solve,
                             solve_interior)

from conftest import fd_only
from test_realization import M_DIM, realization


def stencil_starts(model, sol, sens, iso):
    """(point, x start, lam start or None) of each re-solve: the central
    differences of `decision_jacobian_fd`, from x(a) at least-squares
    multipliers, then the envelope rows of `check_envelope`, from the
    tangent prediction of x and lam."""
    a, starts = sol.a, []
    for mu in range(model.N):
        step = fd.step_for(a[mu])
        for sign in (1.0, -1.0):
            b = a.copy()
            b[mu] += sign * step
            starts.append((b, sol.x, None))
    scale = max(1.0, float(np.max(np.abs(a))))
    for t in iso.vectors:
        h = fd.STEP_FIRST * scale / max(float(np.max(np.abs(t))), 1e-12)
        for sign in (1.0, -1.0):
            starts.append((a + sign * h * t, sol.x + sign * h * (sens.x_jac @ t),
                           sol.lam + sign * h * (sens.lam_jac @ t)))
    return starts


def _twin(name):
    entry = fd_only(get_benchmark(name))
    sol = newton_solve(entry.model, entry.default_point, entry.x0)
    sens = decision_jacobian_ift(entry.model, sol)
    return entry.model, sol, sens, entry.isovector_recipe(entry.model, sol, sens)


def _realization(row_scale):
    model, a_point, _ = realization(row_scale)
    sol = newton_solve(model, a_point, np.zeros(M_DIM))
    sens = decision_jacobian_ift(model, sol)
    return model, sol, sens, build_isovectors(sol.blocks.Ga)


# The twins' blocks are central and nested differences, whose residuals
# carry about 4e-11 of noise: most of their re-solves stall above the 1e-12
# stencil tolerance and run to the iteration cap.  A cap of 5 keeps this
# test to a few seconds; the property holds at any cap.  Their roots agree
# to that noise over the bordered matrix's smallest singular value.  The
# realization's blocks are exact: its roots agree to rounding, and every
# one of its re-solves converges on the factor.
CASES = ([(f"twin:{name}", lambda name=name: _twin(name), 5, 1e-9, False)
          for name in benchmark_names()]
         + [(f"realization{scale}", lambda scale=scale: _realization(scale), 100, 1e-13, True)
            for scale in ((1.0, 1.0), (1.0, 1e3))])


@pytest.mark.parametrize("build, max_iter, root_tol, exact", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_resolve_on_the_gates_factor_converges_wherever_one_without_it_does(
        build, max_iter, root_tol, exact):
    model, sol, sens, iso = build()
    assert sol.converged
    config = SolverConfig(max_iter=max_iter).stencil()
    converged = 0
    for b, x_start, lam_start in stencil_starts(model, sol, sens, iso):
        plain = newton_solve(model, b, x_start, config, lam_start)
        chord = newton_solve(model, b, x_start, config, lam_start, factor=sol.bordered)
        if chord.converged:
            converged += 1
            if plain.converged:
                assert (np.max(np.abs(chord.x - plain.x))
                        <= root_tol * max(1.0, float(np.max(np.abs(plain.x)))))
        else:
            assert not plain.converged
            assert np.array_equal(chord.x, plain.x) and np.array_equal(chord.lam, plain.lam)
            assert chord.iterations == plain.iterations
    if exact:
        assert converged == 2 * (model.N + iso.count)


def _closed_form_sweeps():
    """(model, sweep, cross-checks on the factor that converge by chord
    steps alone, those that fall back to plain Newton): the 3-point sweeps
    of `tools/report_digests.py` over each closed-form model's first
    parameter, the 64-point price sweep of the benchmark, and a
    principal_agent sweep whose first predicted start is too far for a
    chord step to halve the residual."""
    sweeps = []
    for name in benchmark_names():
        entry = get_benchmark(name)
        if entry.has_analytic:
            first = float(entry.default_point[0])
            sweeps.append((name, f"{entry.model.parameter_names[0]}="
                                 f"{0.9 * first!r}:{1.1 * first!r}:3"))
    chords = {"multi_output_profit": 0}      # quadratic: its predictions are exact
    return ([(name, sweep, chords.get(name, 2), 0) for name, sweep in sweeps]
            + [("profit_cd", "p=1.5:3:64", 63, 0), ("principal_agent", "P2_1=0.5:0.9:3", 1, 1)])


SWEEPS = _closed_form_sweeps()


@pytest.mark.parametrize("name, sweep, chords, fallbacks", SWEEPS,
                         ids=[f"{case[0]}:{case[1]}" for case in SWEEPS])
def test_a_sweep_cross_check_on_the_gates_factor_converges_wherever_plain_newton_does(
        name, sweep, chords, fallbacks, monkeypatch):
    entry, config = get_benchmark(name), SolverConfig()
    points = resolve_points(entry, config_from_mapping({"model": name, "sweep": sweep}))
    factored, factor_bordered = [], solver.factor_bordered
    monkeypatch.setattr(solver, "factor_bordered",
                        lambda *args: factored.append(args) or factor_bordered(*args))
    seen = {"chord": 0, "fallback": 0}
    for previous, a in zip(points, points[1:]):
        sol = solve_interior(entry.model, a, entry.x0, config, previous, entry.analytic_x_jac)
        start = _continuation_start(entry.model, a, entry.x0, previous,
                                    entry.analytic_x_jac, config.tol)
        if start is entry.x0:
            continue
        plain = newton_solve(entry.model, a, start, config)
        factor, factored[:] = sol.bordered, []
        chord = newton_solve(entry.model, a, start, config, factor=factor)
        assert sol.newton_discrepancy == (max_abs(chord.x - sol.x) if chord.converged else None)
        if factored:        # a chord step did not halve the residual
            seen["fallback"] += 1
            assert np.array_equal(chord.x, plain.x) and np.array_equal(chord.lam, plain.lam)
            assert (chord.iterations, chord.converged) == (plain.iterations, plain.converged)
        else:
            seen["chord"] += 1
            assert chord.converged and plain.converged
            # each stops within config.tol of zero residual, on either side
            # of the root: up to config.tol / sigma_min away from it
            sigma_min = np.linalg.svd(bordered_matrix(sol.lxx, sol.blocks.Gx),
                                      compute_uv=False)[-1]
            assert max_abs(chord.x - plain.x) <= 2 * config.tol / sigma_min
    assert seen == {"chord": chords, "fallback": fallbacks}
