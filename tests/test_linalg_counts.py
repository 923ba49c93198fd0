"""The decompositions and solves one `analyze` makes, counted exactly.

Each entry point in COUNTED is wrapped in process (monkeypatch; nothing in
`src/` counts), and `run_point` runs at the nine catalog defaults with
`--method ift` and `--method fd`, and at one constrained default with
`--basis nullspace`, where the directions and the Silberberg matrix's
tangent check both take `geometry.null_basis`; then `cmd_analyze` runs the
8-point `profit_cd` price sweep of `test_newton_counts.py` in this process,
where each cross-check after the first takes chord steps on its point's
gated factor.  Only calls made through the module
attribute are counted: numpy's and scipy's own internal calls are not, and
`numeric.spd_solve` calls `scipy.linalg.lapack.dposv` through the module,
so the dposv column counts the closed forms' positive definite solves.  A
change that moves a count updates CALLS and says which count moved and why;

    PYTHONPATH=src python tests/test_linalg_counts.py

prints the table as observed.
"""

import os

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from compstat import cli
from compstat.benchmarks import benchmark_names, get_benchmark
from compstat.cli import RunConfig, run_point

from test_newton_counts import SWEEP

# column -> (module, attribute) of the counted entry point
COUNTED = {
    "eigvalsh": (np.linalg, "eigvalsh"),
    "eigh": (np.linalg, "eigh"),
    "svd": (np.linalg, "svd"),
    "null_space": (scipy.linalg, "null_space"),
    "lstsq": (np.linalg, "lstsq"),
    "solve": (scipy.linalg, "solve"),
    "inv": (scipy.linalg, "inv"),
    "dsytrf": (scipy.linalg.lapack, "dsytrf"),
    "dposv": (scipy.linalg.lapack, "dposv"),
}


def observe(monkeypatch) -> dict:
    """(benchmark, method[ + " " + basis] or the sweep) -> the count of
    each COUNTED call, in its order."""
    entries = [get_benchmark(name) for name in benchmark_names()]   # not counted
    counts = {}

    def counting(column, original):
        def wrapped(*args, **kwargs):
            counts[column] += 1
            return original(*args, **kwargs)
        return wrapped

    for column, (module, attr) in COUNTED.items():
        monkeypatch.setattr(module, attr, counting(column, getattr(module, attr)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # no forked chunk
    runs = [(entry, method, "prescribed") for entry in entries for method in ("ift", "fd")]
    runs.append((entries[0], "ift", "nullspace"))
    table = {}
    for entry, method, basis in runs:
        counts.update(dict.fromkeys(COUNTED, 0))
        run_point(entry, entry.default_point,
                  RunConfig(model=entry.name, method=method, basis=basis))
        label = method if basis == "prescribed" else f"{method} {basis}"
        table[entry.name, label] = tuple(counts.values())
    counts.update(dict.fromkeys(COUNTED, 0))
    cli.cmd_analyze(cli.config_from_mapping(SWEEP))
    table[SWEEP["model"], f"--sweep {SWEEP['sweep']}"] = tuple(counts.values())
    return table


def _table_text(table: dict) -> str:
    return "\n".join(f"{name} {method}: {' '.join(map(str, row))}"
                     for (name, method), row in table.items())


def test_analyze_makes_the_pinned_linear_algebra_calls(monkeypatch):
    assert _table_text(observe(monkeypatch)).splitlines() == CALLS.strip().splitlines()


# per benchmark and method, the calls of one `analyze` in COUNTED's order:
# eigvalsh eigh svd null_space lstsq solve inv dsytrf dposv
CALLS = """
slutsky_hicks ift: 6 0 2 1 1 0 0 4 0
slutsky_hicks fd: 6 0 2 1 1 0 0 4 0
profit_cd ift: 7 0 0 0 0 0 0 5 0
profit_cd fd: 7 0 0 0 0 0 0 5 0
multi_output_profit ift: 6 0 1 0 0 0 0 2 11
multi_output_profit fd: 6 0 1 0 0 0 0 2 21
cost_constrained_profit ift: 8 0 3 1 1 0 11 2 0
cost_constrained_profit fd: 8 0 3 1 1 0 25 2 0
multi_constraint_utility ift: 6 0 2 1 1 0 0 3 0
multi_constraint_utility fd: 6 0 2 1 22 0 0 3 0
market_power ift: 6 0 2 1 1 0 0 5 0
market_power fd: 6 0 2 1 10 0 0 5 0
principal_agent ift: 6 0 2 1 1 0 0 4 13
principal_agent fd: 6 0 2 1 1 0 0 4 33
efficient_portfolio ift: 8 0 2 1 1 0 0 2 0
efficient_portfolio fd: 8 0 2 1 1 0 0 2 0
pareto_allocation ift: 5 0 2 1 1 0 0 5 0
pareto_allocation fd: 5 0 2 1 12 0 0 5 0
slutsky_hicks ift nullspace: 7 0 2 2 1 0 0 4 0
profit_cd --sweep p=1.5:3:8: 56 0 0 0 0 0 0 15 0
"""


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        print(_table_text(observe(patch)))
