"""The Newton solves one `analyze` makes and the iterations they take,
counted exactly, per calling module.

`newton_solve` is wrapped in process (monkeypatch; nothing in `src/`
counts) in `solver` and in every module that imports it by name, and each
call is counted in its caller's column: the main solves and the closed
forms' cross-checks (`solver`, `benchmarks.base`), the finite-difference
stencils' re-solves (`sensitivity`), the envelope's re-solves
(`diagnostics`) and a catalog suite's own solves (`benchmarks.portfolio`,
which `analyze` never makes).  `run_point` runs at the nine catalog
defaults with `--method ift` and `--method fd`, `cmd_analyze` runs an
8-point `profit_cd` price sweep in this process, where each cross-check
after the first may start from its predecessor's prediction, and
`cmd_verify_all` runs every suite once.  A change
that moves a count updates SOLVES and says which count moved and why;

    PYTHONPATH=src python tests/test_newton_counts.py

prints the table as observed.
"""

import os

import pytest

from compstat import cli, diagnostics, sensitivity, solver
from compstat.benchmarks import base, benchmark_names, get_benchmark, portfolio
from compstat.cli import RunConfig, run_point

# column -> the modules whose own binding of newton_solve it counts
CALLERS = {"main": (solver, base), "stencil": (sensitivity,),
           "envelope": (diagnostics,), "suite": (portfolio,)}
SWEEP = {"model": "profit_cd", "sweep": "p=1.5:3:8"}


def observe(monkeypatch) -> dict:
    """label -> per CALLERS column, (Newton solves, their iterations), in
    run order."""
    entries = [get_benchmark(name) for name in benchmark_names()]   # not counted
    counts = {column: [0, 0] for column in CALLERS}
    newton_solve = solver.newton_solve

    def counted(column):
        def wrapped(*args, **kwargs):
            sol = newton_solve(*args, **kwargs)
            counts[column][0] += 1
            counts[column][1] += sol.iterations
            return sol
        return wrapped

    for column, modules in CALLERS.items():
        for module in modules:
            monkeypatch.setattr(module, "newton_solve", counted(column))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # no forked chunk
    table = {}

    def run(label, call):
        for pair in counts.values():
            pair[:] = [0, 0]
        call()
        table[label] = tuple(tuple(pair) for pair in counts.values())

    for entry in entries:
        for method in ("ift", "fd"):
            run(f"{entry.name} {method}", lambda: run_point(
                entry, entry.default_point, RunConfig(model=entry.name, method=method)))
    run(f"{SWEEP['model']} --sweep {SWEEP['sweep']}",
        lambda: cli.cmd_analyze(cli.config_from_mapping(SWEEP)))
    run("verify-all", cli.cmd_verify_all)
    return table


def _table_text(table: dict) -> str:
    return "\n".join(f"{label}: " + " | ".join(f"{solves} {iterations}"
                                              for solves, iterations in row)
                     for label, row in table.items())


def test_analyze_makes_the_pinned_newton_solves(monkeypatch):
    assert _table_text(observe(monkeypatch)).splitlines() == SOLVES.strip().splitlines()


# per run and CALLERS column (main | stencil | envelope | suite): Newton
# solves, then their iterations in total
SOLVES = """
slutsky_hicks ift: 1 3 | 0 0 | 0 0 | 0 0
slutsky_hicks fd: 1 3 | 0 0 | 0 0 | 0 0
profit_cd ift: 1 4 | 0 0 | 0 0 | 0 0
profit_cd fd: 1 4 | 0 0 | 0 0 | 0 0
multi_output_profit ift: 1 1 | 0 0 | 0 0 | 0 0
multi_output_profit fd: 1 1 | 0 0 | 0 0 | 0 0
cost_constrained_profit ift: 1 1 | 0 0 | 0 0 | 0 0
cost_constrained_profit fd: 1 1 | 0 0 | 0 0 | 0 0
multi_constraint_utility ift: 1 2 | 0 0 | 16 16 | 0 0
multi_constraint_utility fd: 1 2 | 21 40 | 16 16 | 0 0
market_power ift: 1 4 | 0 0 | 6 0 | 0 0
market_power fd: 1 4 | 9 10 | 6 0 | 0 0
principal_agent ift: 1 3 | 0 0 | 0 0 | 0 0
principal_agent fd: 1 3 | 0 0 | 0 0 | 0 0
efficient_portfolio ift: 1 1 | 0 0 | 0 0 | 0 0
efficient_portfolio fd: 1 1 | 0 0 | 0 0 | 0 0
pareto_allocation ift: 1 4 | 0 0 | 4 4 | 0 0
pareto_allocation fd: 1 4 | 11 20 | 4 4 | 0 0
profit_cd --sweep p=1.5:3:8: 8 25 | 0 0 | 0 0 | 0 0
verify-all: 24 48 | 0 0 | 0 0 | 4 4
"""


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        print(_table_text(observe(patch)))
