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

from compstat import diagnostics, sensitivity, solver
from compstat.benchmarks import base, benchmark_names, get_benchmark
from compstat.cli import RunConfig, run_point
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
# 631 and 1,430.
@pytest.mark.parametrize("method, most_calls", [("ift", 640), ("fd", 1440)])
def test_run_point_evaluates_each_block_once_per_point(method, most_calls, monkeypatch):
    calls, solve_of = [], {}          # call index -> call index its Newton solve began at

    def spy(model, a, x0, config=SolverConfig()):
        start = len(calls)
        try:
            return newton_solve(model, a, x0, config)
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
