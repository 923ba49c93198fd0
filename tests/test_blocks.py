"""The blocks of a solution point are evaluated once and shared.

`cli.run_point` at each catalog default point, with the implicit-function
and with the finite-difference sensitivity route, must not call a model
callable twice with equal (x, a).  The one allowed repeat is a first-order
evaluation (a constraint value or an x-gradient) by a fresh Newton solve at
a point evaluated before that solve started: a closed form's Newton
cross-check can land on the closed-form point, and the FD route's base
re-solve starts at the solution.  The closed form takes `a` alone and is
not counted.
"""

import dataclasses

import numpy as np
import pytest

from compstat import diagnostics, fd, sensitivity, solver
from compstat.benchmarks import base, benchmark_names, get_benchmark
from compstat.cli import RunConfig, run_point
from compstat.model import Blocks
from compstat.solver import SolverConfig, newton_solve

_CALLABLES = ("objective", "constraints", "grad_x_objective", "grad_a_objective",
              "grad_x_constraints", "grad_a_constraints", "hess_xx_objective",
              "hess_xa_objective", "hess_xx_constraints", "hess_xa_constraints")
_FIRST_ORDER = ("constraints", "grad_x_objective", "grad_x_constraints")


def _counted(entry, calls: list):
    """`entry` with every (x, a) callable of its model appending
    (entry name, field, index, x bytes, a bytes) to `calls`."""
    def wrap(fn, field, index):
        def counted(x, a):
            calls.append((entry.name, field, index, np.asarray(x, dtype=float).tobytes(),
                          np.asarray(a, dtype=float).tobytes()))
            return fn(x, a)
        return counted

    changes = {}
    for field in _CALLABLES:
        value = getattr(entry.model, field)
        if isinstance(value, tuple):
            changes[field] = tuple(None if fn is None else wrap(fn, field, k)
                                   for k, fn in enumerate(value))
        elif value is not None:
            changes[field] = wrap(value, field, None)
    return dataclasses.replace(entry, model=dataclasses.replace(entry.model, **changes))


# Before the per-point block object, run_point made 1,289 (ift) and 2,297
# (fd) calls over the catalog, 460 and 684 of them repeats; with it, 833 and
# 1,632.  Envelope re-solves started at the tangent prediction bring that to
# 631 and 1,430, and re-solves that take chord steps on the solution's gated
# factor, without second derivatives, to 567 and 1,146.  A slutsky_hicks
# start that is not its closed form, whose cross-check takes 3 Newton
# iterations, brings them to 587 and 1,166.
@pytest.mark.parametrize("method, most_calls", [("ift", 590), ("fd", 1170)])
def test_run_point_evaluates_each_block_once_per_point(method, most_calls, monkeypatch):
    calls, solve_of = [], {}          # call index -> call index its Newton solve began at

    def spy(model, a, x0, config=SolverConfig(), lam0=None, factor=None):
        start = len(calls)
        try:
            return newton_solve(model, a, x0, config, lam0, factor)
        finally:
            solve_of.update(dict.fromkeys(range(start, len(calls)), start))

    for module in (solver, sensitivity, diagnostics, base):
        monkeypatch.setattr(module, "newton_solve", spy)
    for name in benchmark_names():
        entry = _counted(get_benchmark(name), calls)
        run_point(entry, np.asarray(entry.default_point, dtype=float),
                  RunConfig(model=name, method=method))
    first, repeats = {}, []
    for index, call in enumerate(calls):
        if call not in first:
            first[call] = index
        elif not (call[1] in _FIRST_ORDER and first[call] < solve_of.get(index, -1)):
            repeats.append(call[:3])
    assert repeats == []
    assert len(calls) <= most_calls


def test_blocks_hand_out_read_only_arrays(slutsky_run):
    blocks = slutsky_run.sol.blocks
    arrays = (blocks.g, blocks.fx, blocks.fa, blocks.Gx, blocks.Ga, blocks.fxx,
              blocks.fxa, *blocks.gxx, *blocks.gxa)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    assert blocks.Gx is blocks.Gx


def test_lagrangian_blocks_add_terms_in_order(slutsky_run):
    blocks, lam = slutsky_run.sol.blocks, slutsky_run.sol.lam
    assert np.array_equal(blocks.lagrangian_grad_x(lam), blocks.fx + lam[0] * blocks.Gx[0])
    assert np.array_equal(blocks.lagrangian_hess_xx(lam), blocks.fxx + lam[0] * blocks.gxx[0])
    assert np.array_equal(blocks.lagrangian_hess_xa(lam), blocks.fxa + lam[0] * blocks.gxa[0])


def test_a_solution_forms_its_lagrangian_blocks_once(slutsky_run):
    sol = slutsky_run.sol
    for name, expected in (("lxx", sol.blocks.lagrangian_hess_xx(sol.lam)),
                           ("lxa", sol.blocks.lagrangian_hess_xa(sol.lam))):
        block = getattr(sol, name)
        assert block is getattr(sol, name) and np.array_equal(block, expected)
        with pytest.raises(ValueError, match="read-only"):
            block[...] = 0.0


def _assert_blocks_equal(blocks, expected: dict):
    for name, value in expected.items():
        got = getattr(blocks, name)
        if isinstance(value, tuple):
            assert len(got) == len(value), name
            assert all(np.array_equal(g, v) for g, v in zip(got, value)), name
        else:
            assert np.array_equal(got, value), name


def test_blocks_of_a_model_without_derivatives_are_the_documented_stencils():
    # gradients with fd.STEP_FIRST, x-Hessians by fd.hessian, mixed blocks
    # as nested differences of the differenced x-gradient with fd.STEP_NESTED
    model = dataclasses.replace(get_benchmark("slutsky_hicks").model,
                                **dict.fromkeys(_CALLABLES[2:]))
    x, a = np.array([0.4, 0.6]), np.array([1.0, 1.5, 2.0])
    f, g = model.objective, model.constraints[0]
    nested = lambda fn: fd.jacobian(lambda b: fd.gradient(lambda u: fn(u, b), x), a,
                                    fd.STEP_NESTED)
    _assert_blocks_equal(Blocks(model, x, a), {
        "f": float(f(x, a)), "g": np.array([float(g(x, a))]),
        "fx": fd.gradient(lambda u: f(u, a), x), "fa": fd.gradient(lambda b: f(x, b), a),
        "Gx": np.array([fd.gradient(lambda u: g(u, a), x)]),
        "Ga": np.array([fd.gradient(lambda b: g(x, b), a)]),
        "fxx": fd.hessian(lambda u: f(u, a), x), "fxa": nested(f),
        "gxx": (fd.hessian(lambda u: g(u, a), x),), "gxa": (nested(g),),
    })


def test_blocks_with_only_an_x_gradient_difference_it_with_the_first_step():
    model = get_benchmark("profit_cd").model
    model = dataclasses.replace(model, **{field: None for field in _CALLABLES[2:]
                                          if field != "grad_x_objective"})
    x, a = np.array([0.4, 0.7]), np.array([1.0, 1.2, 2.0])
    f, fx = model.objective, model.grad_x_objective
    h = fd.jacobian(lambda u: np.asarray(fx(u, a), dtype=float), x)
    _assert_blocks_equal(Blocks(model, x, a), {
        "f": float(f(x, a)), "g": np.zeros(0),
        "fx": np.asarray(fx(x, a), dtype=float), "fa": fd.gradient(lambda b: f(x, b), a),
        "Gx": np.zeros((0, 2)), "Ga": np.zeros((0, 3)),
        "fxx": 0.5 * (h + h.T),
        "fxa": fd.jacobian(lambda b: np.asarray(fx(x, b), dtype=float), a, fd.STEP_FIRST),
        "gxx": (), "gxa": (),
    })


def test_blocks_fill_none_entries_of_a_constraint_bank_by_stencils():
    entry = get_benchmark("multi_constraint_utility")
    full = entry.model
    model = dataclasses.replace(
        full, grad_x_constraints=(full.grad_x_constraints[0], None),
        grad_a_constraints=(None, full.grad_a_constraints[1]),
        hess_xx_constraints=(None, None),
        hess_xa_constraints=(None, full.hess_xa_constraints[1]))
    x, a = entry.x0, np.asarray(entry.default_point, dtype=float)
    g0, g1 = model.constraints
    g0x = lambda u, b: np.asarray(model.grad_x_constraints[0](u, b), dtype=float)
    h = fd.jacobian(lambda u: g0x(u, a), x)
    blocks = Blocks(model, x, a)
    _assert_blocks_equal(blocks, {
        "f": float(model.objective(x, a)), "g": np.array([float(g0(x, a)), float(g1(x, a))]),
        "fx": full.grad_x_objective(x, a), "fa": full.grad_a_objective(x, a),
        "Gx": np.array([g0x(x, a), fd.gradient(lambda u: g1(u, a), x)]),
        "Ga": np.array([fd.gradient(lambda b: g0(x, b), a),
                        np.asarray(full.grad_a_constraints[1](x, a), dtype=float)]),
        "fxx": full.hess_xx_objective(x, a), "fxa": full.hess_xa_objective(x, a),
        "gxx": (0.5 * (h + h.T), fd.hessian(lambda u: g1(u, a), x)),
        "gxa": (fd.jacobian(lambda b: g0x(x, b), a, fd.STEP_FIRST),
                np.asarray(full.hess_xa_constraints[1](x, a), dtype=float)),
    })

