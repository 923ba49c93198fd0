"""The Newton solves one `analyze` makes and the iterations they take,
counted exactly.

`newton_solve` is wrapped in process (monkeypatch; nothing in `src/`
counts) in `solver` and in every module that imports it by name, so the
closed forms' cross-checks, the envelope and stencil re-solves and the
numeric main solves are all counted.  `run_point` runs at the nine catalog
defaults with `--method ift` and `--method fd`, and `cmd_analyze` runs an
8-point `profit_cd` price sweep in this process, where each cross-check
after the first may start from its predecessor's prediction.  A change
that moves a count updates SOLVES and says which count moved and why;

    PYTHONPATH=src python tests/test_newton_counts.py

prints the table as observed.
"""

import os

import pytest

from compstat import cli, diagnostics, sensitivity, solver
from compstat.benchmarks import base, benchmark_names, get_benchmark, portfolio
from compstat.cli import RunConfig, run_point

# the modules that call newton_solve through a binding of their own
CALLERS = (solver, diagnostics, sensitivity, base, portfolio)
SWEEP = {"model": "profit_cd", "sweep": "p=1.5:3:8"}


def observe(monkeypatch) -> dict:
    """label -> (Newton solves, their iterations), in run order."""
    entries = [get_benchmark(name) for name in benchmark_names()]   # not counted
    counts = [0, 0]
    newton_solve = solver.newton_solve

    def counted(*args, **kwargs):
        sol = newton_solve(*args, **kwargs)
        counts[0] += 1
        counts[1] += sol.iterations
        return sol

    for module in CALLERS:
        monkeypatch.setattr(module, "newton_solve", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # no forked chunk
    table = {}
    for entry in entries:
        for method in ("ift", "fd"):
            counts[:] = [0, 0]
            run_point(entry, entry.default_point, RunConfig(model=entry.name, method=method))
            table[f"{entry.name} {method}"] = tuple(counts)
    counts[:] = [0, 0]
    cli.cmd_analyze(cli.config_from_mapping(SWEEP))
    table[f"{SWEEP['model']} --sweep {SWEEP['sweep']}"] = tuple(counts)
    return table


def _table_text(table: dict) -> str:
    return "\n".join(f"{label}: {solves} {iterations}"
                     for label, (solves, iterations) in table.items())


def test_analyze_makes_the_pinned_newton_solves(monkeypatch):
    assert _table_text(observe(monkeypatch)).splitlines() == SOLVES.strip().splitlines()


# per run: Newton solves, then their iterations in total
SOLVES = """
slutsky_hicks ift: 1 0
slutsky_hicks fd: 1 0
profit_cd ift: 1 4
profit_cd fd: 1 4
multi_output_profit ift: 1 1
multi_output_profit fd: 1 1
cost_constrained_profit ift: 1 1
cost_constrained_profit fd: 1 1
multi_constraint_utility ift: 17 18
multi_constraint_utility fd: 38 58
market_power ift: 7 4
market_power fd: 16 14
principal_agent ift: 1 3
principal_agent fd: 1 3
efficient_portfolio ift: 1 1
efficient_portfolio fd: 1 1
pareto_allocation ift: 5 8
pareto_allocation fd: 16 28
profit_cd --sweep p=1.5:3:8: 8 25
"""


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        print(_table_text(observe(patch)))
