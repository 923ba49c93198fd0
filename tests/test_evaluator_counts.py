"""The model evaluations one `analyze` makes, counted exactly per kind.

Each callable of the catalog entry's model is wrapped with
`dataclasses.replace` (nothing in `src/` counts): the objective and the
constraints count as `value`, their first derivatives as `grad`, their
second derivatives as `hess` and the registered closed form as
`closed_form`.  `run_point` runs at the nine catalog defaults with
`--method ift` and `--method fd`, `cmd_analyze` runs the 8-point
`profit_cd` price sweep of `test_newton_counts.py` in this process, and
`cmd_verify_all` runs every suite once on the wrapped entries; models that
a suite builds from callables of its own (the portfolio's companion) are
not counted.  A change that moves a count updates CALLS and says which
count moved and why;

    PYTHONPATH=src python tests/test_evaluator_counts.py

prints the table as observed.
"""

import dataclasses
import os
from collections import Counter

import pytest

from compstat import benchmarks, cli
from compstat.benchmarks import benchmark_names, get_benchmark
from compstat.cli import RunConfig, run_point

from test_newton_counts import SWEEP

# model field -> counted kind
KINDS = {
    "objective": "value", "constraints": "value",
    "grad_x_objective": "grad", "grad_a_objective": "grad",
    "grad_x_constraints": "grad", "grad_a_constraints": "grad",
    "hess_xx_objective": "hess", "hess_xa_objective": "hess",
    "hess_xx_constraints": "hess", "hess_xa_constraints": "hess",
    "analytic_solution": "closed_form",
}
COLUMNS = ("value", "grad", "hess", "closed_form")


def _counted(entry, counts: Counter):
    """`entry` with every callable of its model counting its calls by kind."""
    def wrap(fn, kind):
        def counted(*args):
            counts[kind] += 1
            return fn(*args)
        return counted

    changes = {}
    for field, kind in KINDS.items():
        value = getattr(entry.model, field)
        if isinstance(value, tuple):
            changes[field] = tuple(None if fn is None else wrap(fn, kind) for fn in value)
        elif value is not None:
            changes[field] = wrap(value, kind)
    return dataclasses.replace(entry, model=dataclasses.replace(entry.model, **changes))


def observe() -> dict:
    """(benchmark, method), (benchmark, "--sweep " + grid) or ("verify-all",)
    -> the calls of each kind, in COLUMNS' order."""
    table = {}
    for name in benchmark_names():
        for method in ("ift", "fd"):
            counts = Counter()
            entry = _counted(get_benchmark(name), counts)
            run_point(entry, entry.default_point, RunConfig(model=name, method=method))
            table[name, method] = tuple(counts[kind] for kind in COLUMNS)
    counts = Counter()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(benchmarks._CACHE, SWEEP["model"],
                            _counted(get_benchmark(SWEEP["model"]), counts))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # no forked chunk
        cli.cmd_analyze(cli.config_from_mapping(SWEEP))
    table[SWEEP["model"], f"--sweep {SWEEP['sweep']}"] = tuple(counts[kind] for kind in COLUMNS)
    counts = Counter()
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in benchmark_names():
            monkeypatch.setitem(benchmarks._CACHE, name, _counted(get_benchmark(name), counts))
        cli.cmd_verify_all()
    table[("verify-all",)] = tuple(counts[kind] for kind in COLUMNS)
    return table


def _table_text(table: dict) -> str:
    return "\n".join(f"{' '.join(label)}: {' '.join(map(str, row))}"
                     for label, row in table.items())


def test_analyze_makes_the_pinned_model_evaluations():
    assert _table_text(observe()).splitlines() == CALLS.strip().splitlines()


# per benchmark and method, the calls of one `analyze` in COLUMNS' order:
# value grad hess closed_form
CALLS = """
slutsky_hicks ift: 9 12 10 5
slutsky_hicks fd: 9 12 10 11
profit_cd ift: 6 7 6 7
profit_cd fd: 6 7 6 13
multi_output_profit ift: 10 4 3 11
multi_output_profit fd: 10 4 3 21
cost_constrained_profit ift: 13 8 6 11
cost_constrained_profit fd: 13 8 6 25
multi_constraint_utility ift: 86 108 12 0
multi_constraint_utility fd: 208 291 12 0
market_power ift: 17 24 12 0
market_power fd: 36 62 12 0
principal_agent ift: 22 18 15 13
principal_agent fd: 22 18 15 33
efficient_portfolio ift: 30 12 9 25
efficient_portfolio fd: 30 12 9 53
pareto_allocation ift: 43 56 24 0
pareto_allocation fd: 136 180 24 0
profit_cd --sweep p=1.5:3:8: 55 64 23 63
verify-all: 80 167 156 8
"""


if __name__ == "__main__":
    print(_table_text(observe()))
