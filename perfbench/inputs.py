"""Generated demand models, loaded by the CLI through ``--model module:factory``.

A factory name encodes everything its model depends on, so a report can be
reproduced from the command line, e.g. with the repository root and ``src``
on ``PYTHONPATH``::

    python3 -m compstat.cli analyze --model perfbench.inputs:demand_40_7_0 \
        --at p=... --at m=...

``demand_<n>_<seed>_<index>`` is n-good log-additive demand with analytic
derivatives and closed-form solution; ``demandfd_<n>_<seed>_<index>`` is the
same problem with every derivative field and the closed form removed, so
every derivative comes from finite-difference stencils.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from compstat.benchmarks.slutsky import register_slutsky_hicks

_NAME = re.compile(r"^(demand|demandfd)_(\d+)_(\d+)_(\d+)$")
_NO_DERIVATIVES = dict.fromkeys((
    "grad_x_objective", "grad_a_objective", "grad_x_constraints",
    "grad_a_constraints", "hess_xx_objective", "hess_xa_objective",
    "hess_xx_constraints", "hess_xa_constraints", "analytic_solution"))

# Set by a traced run to a function that wraps an entry's model callables
# with call counters; None in untraced runs.
counting = None


def demand_instance(n: int, seed: int, index: int):
    """Taste weights, prices and income of one generated instance."""
    rng = np.random.default_rng([seed, n, index])
    gamma = rng.uniform(0.5, 2.0, n)
    prices = rng.uniform(0.5, 2.0, n)
    income = float(n * rng.uniform(0.5, 2.0))
    return gamma, prices, income


def factory_name(n: int, seed: int, index: int, analytic: bool) -> str:
    return f"{'demand' if analytic else 'demandfd'}_{n}_{seed}_{index}"


def demand_entry(n: int, seed: int, index: int, analytic: bool):
    gamma, prices, income = demand_instance(n, seed, index)
    entry = register_slutsky_hicks(gamma, np.append(prices, income))
    # start Newton from the budget-feasible equal-expenditure bundle
    entry = dataclasses.replace(entry, name=factory_name(n, seed, index, analytic),
                                x0=income / (n * prices))
    if not analytic:
        entry = dataclasses.replace(
            entry, model=dataclasses.replace(entry.model, **_NO_DERIVATIVES),
            analytic_x_jac=None, analytic_lam_jac=None)
    return entry if counting is None else counting(entry)


def __getattr__(name: str):
    match = _NAME.match(name)
    if match is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    kind, n, seed, index = match.groups()
    return lambda: demand_entry(int(n), int(seed), int(index), kind == "demand")
