"""Digests of the command-line output over a fixed set of invocations, for
checking that a change leaves the bytes of every report as they were.

    python3 tools/report_digests.py [--parsed] [CHECKOUT] > digests.jsonl

runs each invocation through `compstat.cli.main` in one process, with one
BLAS thread, on the `compstat` and `perfbench` packages of CHECKOUT (by
default the checkout this script is in).  It prints one JSON line per
invocation: the arguments, the exit code or the exception raised, and the
sha256 digests of stdout, of the `--out` file and of stderr.  Before they
are digested, `"timings"` blocks (wall times) are emptied, the checkout
path is replaced by `<checkout>`, and the line numbers in warning headers
are replaced by `N`.  After each `verify-all --format json` line it prints
one more line per row of that document: the row's (benchmark, pipeline,
check) key and the digest of the row alone, so that a diff names the rows
that changed.  Run it on two checkouts and diff the two outputs.

With `--parsed`, stdout and the `--out` file are digested as documents
where they parse as JSON: every `"timings"` entry is dropped and the rest
is dumped again with `json.dumps`, whose float spelling is bit-exact, so
two renderings of the same values digest alike.  Output that does not
parse as JSON, and stderr, is digested as in the default mode.

The invocations cover every catalog model with each sensitivity method in
each format, on stdout and with `--out`; all seven recipes; the null-space
basis; `--tol`; 3-point sweeps, sweeps into failing parameter ranges,
points without an interior optimum and points outside a closed form's or
a derivative's domain; points and a sweep whose reports hold NaN and
infinities; a 64-point sweep; generated demand models with
analytic derivatives (n = 40, 80) and finite differences only (n = 4, 8);
catalog entries with some derivatives registered and the rest left to
finite differences (the factories of `_VARIANTS`); `verify-all`;
`list-models`; and configuration errors, among them values that do not
parse or are not finite and positive, from a config file and from flags.
The config files and the `_VARIANTS` module are written into a scratch
directory, which the printed arguments name `<scratch>`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_TIMINGS = re.compile(r'"timings": \{[^{}]*\}')
_WARNING_LINE = re.compile(r"^(.*?\.py):\d+:", re.M)
_CONFIG_FILES = {"tol_abc.cfg": "solver.tol = abc\n",
                 "max_iter_1.5.cfg": "solver.max_iter = 1.5\n",
                 "max_iter_0.cfg": "solver.max_iter = 0\n",
                 "max_iter_-1.cfg": "solver.max_iter = -1\n",
                 "step_0.cfg": "sensitivity.step = 0\n"}
# a module of `--model module:factory` factories: catalog entries whose
# models keep some derivative callables and leave the rest to the stencils
_VARIANTS = '''
import dataclasses

from compstat.benchmarks import get_benchmark

_HESSIANS = ("hess_xx_objective", "hess_xa_objective",
             "hess_xx_constraints", "hess_xa_constraints")


def _variant(name, **fields):
    entry = get_benchmark(name)
    return dataclasses.replace(entry, model=dataclasses.replace(entry.model, **fields))


def slutsky_no_hessians():
    return _variant("slutsky_hicks", **dict.fromkeys(_HESSIANS))


def profit_grad_x_only():
    return _variant("profit_cd", grad_a_objective=None, **dict.fromkeys(_HESSIANS))


def portfolio_one_fd_constraint_gradient():
    bank = get_benchmark("efficient_portfolio").model.grad_x_constraints
    return _variant("efficient_portfolio", grad_x_constraints=(bank[0], None))


def utility_mixed_banks():
    model = get_benchmark("multi_constraint_utility").model
    return _variant("multi_constraint_utility",
                    grad_a_constraints=(None, model.grad_a_constraints[1]),
                    hess_xx_constraints=(model.hess_xx_constraints[0], None),
                    hess_xa_constraints=None)
'''
_VARIANT_FACTORIES = ("slutsky_no_hessians", "profit_grad_x_only",
                      "portfolio_one_fd_constraint_gradient", "utility_mixed_banks")


def invocations(benchmark_names, get_benchmark) -> list:
    """The argument lists, each without `--out`, and whether to add one."""
    runs = []
    for name in benchmark_names():
        entry = get_benchmark(name)
        model = ["analyze", "--model", name]
        for method in ("ift", "fd", "analytic"):
            for fmt in ("json", "csv", "table"):
                runs.append((model + ["--method", method, "--format", fmt], False))
        for fmt in ("json", "csv", "table"):
            runs.append((model + ["--format", fmt], True))
        for fmt in ("json", "csv"):
            runs.append((model + ["--recipes", "omega_eq7,omega_quadratic,omega_A1,"
                                  "omega_A2,omega_B,silberberg_S,universal_U",
                                  "--format", fmt], False))
            runs.append((model + ["--basis", "nullspace", "--format", fmt], False))
        runs.append((model + ["--tol", "1e-10"], False))
        names = entry.model.parameter_names
        first = float(entry.default_point[0])
        runs.append((model + ["--sweep", f"{names[0]}={0.9 * first!r}:{1.1 * first!r}:3"],
                     False))
        runs.append((model + ["--sweep", f"{names[0]}={0.9 * first!r}:{1.1 * first!r}:3",
                              "--format", "table"], True))
        for parameter in (names[0], names[-1]):
            for span in ("-1:0:3", "1000:1e6:3"):
                runs.append((model + ["--sweep", f"{parameter}={span}"], False))
    for at in (["principal_agent", "--at", "B1=0"],
               ["principal_agent", "--at", "P1_1=100000"],
               ["principal_agent", "--at", "P1_1=100000", "--method", "fd"],
               ["principal_agent", "--at", "P1_2=0.15"],
               ["multi_output_profit", "--at", "p2=-1"],
               ["slutsky_hicks", "--at", "m=0"],
               ["profit_cd", "--at", "w1=0"],
               ["efficient_portfolio", "--at", "s2_1=0"],
               ["slutsky_hicks", "--at", "p=1e308,1", "--method", "fd"],
               ["slutsky_hicks", "--sweep", "p1=1e307:1e308:3", "--method", "fd"]):
        runs.append((["analyze", "--model"] + at, False))
    for fmt in ("json", "csv", "table"):
        runs.append((["analyze", "--model", "profit_cd", "--sweep", "p=1.5:3:64",
                      "--format", fmt], fmt == "json"))
    for seed in (201, 7777):
        for factory in ("demand_40", "demand_80", "demandfd_4", "demandfd_8"):
            runs.append((["analyze", "--model", f"perfbench.inputs:{factory}_{seed}_0"],
                         factory == "demand_40"))
    for factory in _VARIANT_FACTORIES:
        for method in ("ift", "fd"):
            runs.append((["analyze", "--model", f"digest_variants:{factory}",
                          "--method", method], False))
    runs += [(["verify-all", "--format", "json"], True),
             (["verify-all", "--format", "table"], False),
             (["verify-all", "--format", "json", "--tol", "1e-12"], False),
             (["list-models", "--format", "table"], False),
             (["list-models", "--format", "json"], False),
             (["list-models", "--format", "names"], False),
             (["analyze", "--model", "no_such_model"], False),
             (["analyze", "--model", "slutsky_hicks", "--at", "zz=1"], False),
             (["analyze", "--model", "profit_cd", "--sweep", "p=1:3:0"], False)]
    bad = ["analyze", "--model", "multi_constraint_utility"]
    runs += [(bad + ["--config", "<scratch>/tol_abc.cfg"], False),
             (bad + ["--config", "<scratch>/max_iter_1.5.cfg"], False),
             (bad + ["--config", "<scratch>/max_iter_0.cfg"], False),
             (bad + ["--config", "<scratch>/max_iter_-1.cfg"], False),
             (bad + ["--config", "<scratch>/step_0.cfg", "--method", "fd"], False),
             (bad + ["--tol", "nan"], False),
             (bad + ["--tol", "inf"], False)]
    return runs


def _without_timings(doc):
    """`doc` with every "timings" entry of its dicts dropped."""
    if isinstance(doc, dict):
        return {k: _without_timings(v) for k, v in doc.items() if k != "timings"}
    if isinstance(doc, list):
        return [_without_timings(v) for v in doc]
    return doc


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    parsed = "--parsed" in args
    if parsed:
        args.remove("--parsed")
    checkout = Path(args[0] if args else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout)]
    import compstat
    from compstat import cli
    from compstat.benchmarks import benchmark_names, get_benchmark
    if Path(compstat.__file__).resolve().parent != checkout / "src" / "compstat":
        raise SystemExit(f"compstat imported from {compstat.__file__}, not {checkout}")

    def masked(text):
        return text.replace(str(checkout), "<checkout>").replace(scratch, "<scratch>")

    def digest(text):
        if text is None:
            return None
        text = masked(_TIMINGS.sub('"timings": {}', text))
        text = _WARNING_LINE.sub(r"\1:N:", text)
        return hashlib.sha256(text.encode()).hexdigest()

    def document_digest(text):
        if parsed and text is not None:
            try:
                text = json.dumps(_without_timings(json.loads(text)))
            except ValueError:            # not a JSON document
                pass
        return digest(text)

    with tempfile.TemporaryDirectory() as scratch:
        for name, text in _CONFIG_FILES.items():
            Path(scratch, name).write_text(text, encoding="utf-8")
        Path(scratch, "digest_variants.py").write_text(_VARIANTS, encoding="utf-8")
        sys.path.insert(0, scratch)
        for run, with_out in invocations(benchmark_names, get_benchmark):
            out_path = os.path.join(scratch, "out")
            run = run + (["--out", out_path] if with_out else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            result = {"argv": run[:-2] + ["--out", "PATH"] if with_out else run}
            # a fresh catch_warnings resets the once-per-location registries,
            # as a new process would start with them empty
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    result["exit"] = cli.main([arg.replace("<scratch>", scratch)
                                               for arg in run])
                except SystemExit as exc:
                    result["exit"] = exc.code
                except Exception as exc:
                    result["exception"] = masked(f"{type(exc).__name__}: {exc}")
            out_text = None
            if with_out and os.path.exists(out_path):
                out_text = Path(out_path).read_text(encoding="utf-8")
                os.remove(out_path)
            result.update(stdout=document_digest(stdout.getvalue()),
                          out=document_digest(out_text),
                          stderr=digest(stderr.getvalue()))
            print(json.dumps(result), flush=True)
            if run[0] == "verify-all" and "json" in run and result.get("exit") in (0, 1):
                document = out_text if with_out else stdout.getvalue()
                for row in json.loads(document):
                    key = [row["benchmark"], row["pipeline"], row["check"]]
                    print(json.dumps({"argv": result["argv"], "row": key,
                                      "digest": digest(json.dumps(row))}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
