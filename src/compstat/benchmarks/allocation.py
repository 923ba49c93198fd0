"""Allocation of a fixed goods bundle across agents at prescribed utility
levels for all but the first.

The entry has no property suite of its own: its directions are held to the
null property when they are prescribed, and the differentiated
first-order system, whose constraint rows are decision-space conformance,
is one of the generic checks.  (Pinning down a unique point of the efficient
set needs side conditions this catalog does not invent, so no curvature
claims are asserted.)
"""

from __future__ import annotations

import numpy as np

from ..geometry import prescribe_isovectors
from ..model import ProblemModel
from .base import BenchmarkEntry, constraint_fields


def allocation_model(taste, shift_count, endow_count, name="pareto_allocation") -> ProblemModel:
    """Agents h = 1..H share G goods; agent h values good j with weight
    taste[h][j] + shift_j.  Decisions are stacked per agent."""
    taste = np.asarray(taste, dtype=float)
    n_agents, n_goods = taste.shape
    assert shift_count == n_goods and endow_count == n_goods
    m_dim = n_agents * n_goods
    n_dim = n_goods + (n_agents - 1) + n_goods
    iU = n_goods                       # first held-utility slot
    iW = n_goods + (n_agents - 1)      # first endowment slot

    def weights(a, h):
        return taste[h] + a[:n_goods]

    def agent_bundle(x, h):
        return x[h * n_goods:(h + 1) * n_goods]

    def utility(x, a, h):
        bundle = agent_bundle(x, h)
        if np.any(bundle <= 0):
            return float("nan")
        return float(weights(a, h) @ np.log(bundle))

    def objective(x, a):
        return utility(x, a, 0)

    def grad_x_objective(x, a):
        out = np.zeros(m_dim)
        out[:n_goods] = weights(a, 0) / agent_bundle(x, 0)
        return out

    def grad_a_objective(x, a):
        out = np.zeros(n_dim)
        out[:n_goods] = np.log(agent_bundle(x, 0))
        return out

    def hess_xx_objective(x, a):
        out = np.zeros((m_dim, m_dim))
        idx = np.arange(n_goods)
        out[idx, idx] = -weights(a, 0) / agent_bundle(x, 0) ** 2
        return out

    def hess_xa_objective(x, a):
        out = np.zeros((m_dim, n_dim))
        out[:n_goods, :n_goods] = np.diag(1.0 / agent_bundle(x, 0))
        return out

    def make_utility_constraint(h):
        def g(x, a):
            return float(a[iU + h - 1] - utility(x, a, h))

        def g_x(x, a):
            out = np.zeros(m_dim)
            out[h * n_goods:(h + 1) * n_goods] = -weights(a, h) / agent_bundle(x, h)
            return out

        def g_a(x, a):
            out = np.zeros(n_dim)
            out[:n_goods] = -np.log(agent_bundle(x, h))
            out[iU + h - 1] = 1.0
            return out

        def g_xx(x, a):
            out = np.zeros((m_dim, m_dim))
            idx = np.arange(h * n_goods, (h + 1) * n_goods)
            out[idx, idx] = weights(a, h) / agent_bundle(x, h) ** 2
            return out

        def g_xa(x, a):
            out = np.zeros((m_dim, n_dim))
            out[h * n_goods:(h + 1) * n_goods, :n_goods] = np.diag(
                -1.0 / agent_bundle(x, h))
            return out

        return g, g_x, g_a, g_xx, g_xa

    def make_resource_constraint(j):
        picks = np.zeros(m_dim)
        picks[j::n_goods] = 1.0

        def g(x, a):
            return float(a[iW + j] - picks @ x)

        def g_a(x, a):
            out = np.zeros(n_dim)
            out[iW + j] = 1.0
            return out

        return (g,
                lambda x, a: -picks,
                g_a,
                lambda x, a: np.zeros((m_dim, m_dim)),
                lambda x, a: np.zeros((m_dim, n_dim)))

    cons = ([make_utility_constraint(h) for h in range(1, n_agents)]
            + [make_resource_constraint(j) for j in range(n_goods)])
    names = (tuple(f"b{j + 1}" for j in range(n_goods))
             + tuple(f"u{h + 1}" for h in range(1, n_agents))
             + tuple(f"omega{j + 1}" for j in range(n_goods)))
    decision_names = tuple(f"x{h + 1}_{j + 1}"
                           for h in range(n_agents) for j in range(n_goods))
    return ProblemModel(
        name=name, M=m_dim, N=n_dim,
        objective=objective,
        **constraint_fields(cons),
        grad_x_objective=grad_x_objective,
        grad_a_objective=grad_a_objective,
        hess_xx_objective=hess_xx_objective,
        hess_xa_objective=hess_xa_objective,
        parameter_names=names,
        decision_names=decision_names,
    )


def allocation_rows(model: ProblemModel, sol, _sens=None):
    """Taste-shift directions compensated through the held-utility levels;
    endowment slots stay untouched."""
    hess = sol.blocks.Ga
    n_goods = _goods_count(model)
    n_agents = model.M // n_goods
    rows = np.zeros((n_goods, model.N))
    for alpha in range(n_goods):
        rows[alpha, alpha] = 1.0
        for h in range(1, n_agents):
            # d(held utility)/d(shift): the negated shift entry of that
            # constraint's parameter gradient
            rows[alpha, n_goods + h - 1] = -hess[h - 1, alpha]
    return prescribe_isovectors(rows, hess)


def _goods_count(model: ProblemModel) -> int:
    # N = 2G + (H - 1) and K = G + (H - 1) leave G = N - K
    return model.N - model.K


def register_pareto_allocation(taste=None, shifts=(0.2, 0.3),
                               endowments=(2.0, 2.0), held_utilities=(0.0,)) -> BenchmarkEntry:
    if taste is None:
        taste = np.array([[1.0, 0.5], [0.5, 1.0]])
    taste = np.asarray(taste, dtype=float)
    n_agents, n_goods = taste.shape
    model = allocation_model(taste, n_goods, n_goods)
    default_point = np.concatenate([np.asarray(shifts, dtype=float),
                                    np.asarray(held_utilities, dtype=float),
                                    np.asarray(endowments, dtype=float)])
    x0 = np.tile(np.asarray(endowments, dtype=float) / n_agents, n_agents)
    return BenchmarkEntry(
        name="pareto_allocation", model=model, default_point=default_point,
        x0=x0,
        isovector_recipe=allocation_rows,
        description="fixed-bundle allocation at held utility levels",
    )
