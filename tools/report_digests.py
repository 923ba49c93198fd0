"""Digests of the command-line output over a fixed set of invocations, for
checking that a change leaves the bytes of every report as they were, and a
bounded field-by-field comparison for changes that move them.

    python3 tools/report_digests.py [--parsed | --documents] [CHECKOUT] > out.jsonl

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

With `--documents`, each line holds the output itself instead of its
digests: `{"json": document}` (timings dropped) where stdout or the `--out`
file parses as JSON, else `{"text": text}`, and stderr as text.

    python3 tools/report_digests.py --bounded OLD NEW

runs `--documents` on the checkouts OLD and NEW, each in a process of its
own, and compares the two runs field by field.  Byte identity stays the
default; this mode is for changes that say they move bits, and it bounds
how far:
  - exit codes, exceptions, dict keys, strings, ints, bools, nulls, list
    lengths, verdicts and error stages must match exactly, as must a
    non-finite float;
  - a residual (a key naming a residual or a discrepancy) may move by
    RESIDUAL_FRACTION of its check's tolerance: its `<name>_tol` sibling, else
    for a `symmetry_residual` beside `eigenvalues` (a CSM result's) TEXT_TOL *
    max(1, max|eigenvalue|), the scaled bound of a symmetry check, else the
    `tolerance` of the innermost check around it, else the report's
    `solver.tol`;
  - any other float is a value (solutions, Jacobians, matrices, eigenvalues,
    directional values) and may move by VALUE_C * eps * max(1, max|field|),
    the field being the value under its nearest dict key;
  - in text output (CSV, tables) the words between numbers must match; a
    number is a value whose field is its block (the lines since the last
    `#` line), except the residual of a table's check row, judged against
    TEXT_TOL, which no analyze check's tolerance undercuts by default;
  - in stderr, each warning's file and category must match; a change in its
    message or in the source line it echoes is printed as a NOTE.
It prints each exact mismatch (EXACT) and each float over its bound (OVER,
with its ratio to the bound), the worst ratio per class over all
invocations and over those at a catalog default point (WORST), and a
SUMMARY line; it exits 1 on any exact mismatch or float over its bound.

The invocations cover every catalog model with each sensitivity method in
each format, on stdout and with `--out`; all seven recipes; the null-space
basis; `--tol`; 3-point sweeps, sweeps into failing parameter ranges,
sweeps whose closed-form cross-checks start from the catalog start, from
the preceding point's closed form and from its Euler prediction, and one
whose chord steps on the gate's factor fall back to Newton,
points without an interior optimum, points with nearly dependent or only
badly scaled constraint gradients, points outside a closed form's or
a derivative's domain, and points whose closed form solves a positive
definite system that is not one or is nearly singular; points and a sweep whose reports hold NaN and
infinities; a 64-point sweep; generated demand models with
analytic derivatives (n = 40, 80; at n = 40 also with the null-space basis
and in CSV and table formats) and finite differences only (n = 4, 8);
catalog entries with some derivatives registered and the rest left to
finite differences, or none registered (the factories of `_VARIANTS`);
`verify-all`;
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
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

_TIMINGS = re.compile(r'"timings": \{[^{}]*\}')
_WARNING_LINE = re.compile(r"^(.*?\.py):\d+:", re.M)
_CONFIG_FILES = {"tol_abc.cfg": "solver.tol = abc\n",
                 "max_iter_1.5.cfg": "solver.max_iter = 1.5\n",
                 "max_iter_0.cfg": "solver.max_iter = 0\n",
                 "max_iter_-1.cfg": "solver.max_iter = -1\n",
                 "step_0.cfg": "sensitivity.step = 0\n"}
# a module of `--model module:factory` factories: catalog entries whose
# models keep some derivative callables and leave the rest to the stencils,
# or keep none (`*_fd_only`: re-solves whose Hessians are nested stencils)
_VARIANTS = '''
import dataclasses

from compstat.benchmarks import get_benchmark

_HESSIANS = ("hess_xx_objective", "hess_xa_objective",
             "hess_xx_constraints", "hess_xa_constraints")
_DERIVATIVES = _HESSIANS + ("grad_x_objective", "grad_a_objective",
                            "grad_x_constraints", "grad_a_constraints")


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


def pareto_fd_only():
    return _variant("pareto_allocation", **dict.fromkeys(_DERIVATIVES))


def utility_fd_only():
    return _variant("multi_constraint_utility", **dict.fromkeys(_DERIVATIVES))


def utility_mixed_banks():
    model = get_benchmark("multi_constraint_utility").model
    return _variant("multi_constraint_utility",
                    grad_a_constraints=(None, model.grad_a_constraints[1]),
                    hess_xx_constraints=(model.hess_xx_constraints[0], None),
                    hess_xa_constraints=None)
'''
_VARIANT_FACTORIES = ("slutsky_no_hessians", "profit_grad_x_only",
                      "portfolio_one_fd_constraint_gradient", "utility_mixed_banks",
                      "pareto_fd_only", "utility_fd_only")


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
               ["pareto_allocation", "--at", "b1=1e11"],
               ["multi_output_profit", "--at", "p2=-1"],
               # the curvature p1 A1 + p2 A2 nearly singular: SciPy's positive
               # definite solve warns at the first point, and at the second its
               # rcond, 4.1e-16, lies between EPS and the 2 EPS below which
               # `numeric.spd_solve` hands the solve to SciPy
               ["multi_output_profit", "--at", "p2=-0.568627174171874"],
               ["multi_output_profit", "--at", "p2=-0.5686271741718739"],
               ["slutsky_hicks", "--at", "m=0"],
               ["profit_cd", "--at", "w1=0"],
               ["efficient_portfolio", "--at", "s2_1=0"],
               ["slutsky_hicks", "--at", "p=1e308,1", "--method", "fd"],
               ["slutsky_hicks", "--sweep", "p1=1e307:1e308:3", "--method", "fd"]):
        runs.append((["analyze", "--model"] + at, False))
    # sweeps whose cross-checks take each start: x0 where the prediction is
    # exact (demand is linear in m), a prediction without a registered
    # Jacobian (the portfolio's), and one along it (the 64-point sweep
    # below); and one whose chord steps from its second point's prediction
    # do not halve the residual, so that cross-check falls back to Newton
    portfolio = get_benchmark("efficient_portfolio")
    first = float(portfolio.default_point[0])
    runs += [(["analyze", "--model", "slutsky_hicks", "--sweep", "m=0.5:2:5"], False),
             (["analyze", "--model", "efficient_portfolio", "--sweep",
               f"{portfolio.model.parameter_names[0]}={0.9 * first!r}:{1.1 * first!r}:8"],
              False),
             (["analyze", "--model", "principal_agent", "--sweep", "P2_1=0.5:0.9:3"], False)]
    for fmt in ("json", "csv", "table"):
        runs.append((["analyze", "--model", "profit_cd", "--sweep", "p=1.5:3:64",
                      "--format", fmt], fmt == "json"))
    for seed in (201, 7777):
        for factory in ("demand_40", "demand_80", "demandfd_4", "demandfd_8"):
            runs.append((["analyze", "--model", f"perfbench.inputs:{factory}_{seed}_0"],
                         factory == "demand_40"))
    demand = ["analyze", "--model", "perfbench.inputs:demand_40_201_0"]
    runs += [(demand + ["--basis", "nullspace"], False),
             (demand + ["--format", "csv"], False),
             (demand + ["--format", "table"], False)]
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




# ---- the bounded mode: field-by-field comparison of two runs' documents ----

# A value may move by a few dozen roundings of its field's magnitude, a
# residual by a tenth of its tolerance: its verdict then stays as it was
# unless it sat within a tenth of the tolerance.  A table does not print
# its checks' tolerances; TEXT_TOL is diagnostics.ROUNDING_TOL, below the
# smallest of them (diagnostics.SEMIDEFINITE_TOL, 1e-7).
VALUE_C = 64
RESIDUAL_FRACTION = 0.1
TEXT_TOL = 1e-8
EPS = sys.float_info.epsilon
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)"
                     r"|(?<!\w)[-+]?(?:nan|inf|NaN|Infinity)(?!\w)")
_CHECK_ROW = re.compile(r"^\s*\[\w+\s*\] .*\d$")      # ends in its residual
_WARNING_HEADER = re.compile(r"^(\S+\.py:N: \w+): (.*)$")


def _floats(value):
    """Every float of a document value, nested lists and dicts included."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _floats(item)


def _scale(*values) -> float:
    return max([1.0] + [abs(v) for value in values for v in _floats(value)
                        if math.isfinite(v)])


class Comparison:
    """The findings of one bounded comparison: exact mismatches, floats
    with their ratio to their bound, and wording notes (warning messages and
    their echoed source lines, which may change without failing)."""

    def __init__(self):
        self.exact, self.floats, self.notes = [], [], []

    def mismatch(self, where, old, new):
        self.exact.append((where, old, new))

    def number(self, where, cls, old, new, bound):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        if not (math.isfinite(old) and math.isfinite(new)):
            self.mismatch(where, old, new)
            return
        self.floats.append((where, cls, old, new, abs(new - old) / bound))

    def value(self, where, old, new, scale):
        self.number(where, "value", old, new, VALUE_C * EPS * scale)

    def residual(self, where, old, new, tol):
        if tol is None or not tol > 0:
            self.mismatch(where, old, new)        # no tolerance to judge it by
        else:
            self.number(where, "residual", old, new, RESIDUAL_FRACTION * tol)

    def document(self, where, old, new, key="", scale=1.0, tol=None):
        """Compare two parsed JSON values; `key` is the nearest dict key,
        `scale` the magnitude of its field and `tol` the tolerance of the
        innermost check (or solver configuration) around them."""
        if isinstance(old, dict) and isinstance(new, dict):
            if list(old) != list(new):
                self.mismatch(where + "{keys}", list(old), list(new))
            if isinstance(old.get("config"), dict):
                tol = old["config"].get("solver.tol", tol)
            if old.get("tolerance") is not None:
                tol = old["tolerance"]
            for k in (k for k in old if k in new):
                own = old.get(k[:-len("_residual")] + "_tol") if k.endswith("_residual") else None
                if own is None and k == "symmetry_residual" and "eigenvalues" in old:
                    own = TEXT_TOL * _scale(old["eigenvalues"])
                self.document(f"{where}/{k}", old[k], new[k], k, _scale(old[k], new[k]),
                              tol if own is None else own)
        elif isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                self.mismatch(where + "{length}", len(old), len(new))
            for index, (a, b) in enumerate(zip(old, new)):
                self.document(f"{where}/{index}", a, b, key, scale, tol)
        elif type(old) is float and type(new) is float:
            if "residual" in key or "discrepancy" in key:
                self.residual(where, old, new, tol)
            else:
                self.value(where, old, new, scale)
        elif type(old) is not type(new) or old != new:
            self.mismatch(where, old, new)

    def text(self, where, old, new, notes=False):
        """Compare two texts line by line: the words between numbers must
        match; a number is a value float with the scale of its block (the
        lines since the last `#` line), except a table row's residual.
        With `notes`, warning messages and the source lines they echo are
        notes, and the file and category of each warning must match."""
        old_lines, new_lines = old.splitlines(), new.splitlines()
        if len(old_lines) != len(new_lines):
            self.mismatch(where + "{lines}", len(old_lines), len(new_lines))
            return
        blocks, block, magnitude = [], 0, {}     # per line, the first line of its block
        for index, (a, b) in enumerate(zip(old_lines, new_lines)):
            block = index if a.startswith("#") else block
            blocks.append(block)
            magnitude[block] = max([magnitude.get(block, 1.0)] + [
                abs(float(v)) for v in _NUMBER.findall(a) + _NUMBER.findall(b)
                if math.isfinite(float(v))])
        echo = False
        for index, (a, b) in enumerate(zip(old_lines, new_lines)):
            line, scale = f"{where}:{index + 1}", magnitude[blocks[index]]
            header_a, header_b = _WARNING_HEADER.match(a), _WARNING_HEADER.match(b)
            if notes and header_a and header_b:
                if header_a[1] != header_b[1]:
                    self.mismatch(line, a, b)
                elif a != b:
                    self.notes.append((line, a, b))
                echo = True
                continue
            if notes and echo and a.startswith(" ") and b.startswith(" "):
                if a != b:
                    self.notes.append((line, a, b))
                echo = False
                continue
            echo = False
            numbers_a, numbers_b = _NUMBER.findall(a), _NUMBER.findall(b)
            if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
                self.mismatch(line, a, b)
                continue
            residual_at = len(numbers_a) - 1 if _CHECK_ROW.match(a) else None
            for position, (x, y) in enumerate(zip(numbers_a, numbers_b)):
                if position == residual_at:
                    self.residual(line, float(x), float(y), TEXT_TOL)
                elif x != y:
                    self.value(line, float(x), float(y), scale)

    def records(self, old_records, new_records):
        """Compare the records of two `--documents` runs, invocation by invocation."""
        if len(old_records) != len(new_records):
            self.mismatch("invocations", len(old_records), len(new_records))
        for old, new in zip(old_records, new_records):
            where = " ".join(old["argv"])
            if old["argv"] != new["argv"]:
                self.mismatch(where, old["argv"], new["argv"])
                continue
            for field in ("exit", "exception"):
                if old.get(field) != new.get(field):
                    self.mismatch(f"{where} [{field}]", old.get(field), new.get(field))
            for field in ("stdout", "out"):
                a, b = old[field], new[field]
                if a is None or b is None or list(a) != list(b):
                    if a != b:
                        self.mismatch(f"{where} [{field}]", a, b)
                elif "json" in a:
                    self.document(f"{where} [{field}]", a["json"], b["json"])
                else:
                    self.text(f"{where} [{field}]", a["text"], b["text"])
            self.text(f"{where} [stderr]", old["stderr"], new["stderr"], notes=True)

    def failed(self) -> bool:
        return bool(self.exact) or any(ratio > 1.0 for *_, ratio in self.floats)

    def report(self, stream=sys.stdout):
        """Print every exact mismatch, every float over its bound, every
        note, and the worst ratio per class: over all invocations, and over
        those at a catalog default point (no `--at` or `--sweep`)."""
        for where, old, new in self.exact:
            print(f"EXACT\t{where}\t{old!r} -> {new!r}", file=stream)
        for where, cls, old, new, ratio in self.floats:
            if ratio > 1.0:
                print(f"OVER\t{cls}\t{ratio:.3g}\t{where}\t{old!r} -> {new!r}", file=stream)
        seen = {}               # one line per wording change, numbers aside
        for where, old, new in self.notes:
            seen.setdefault((_NUMBER.sub("#", old), _NUMBER.sub("#", new)), []).append(where)
        for (old, new), places in seen.items():
            print(f"NOTE\t{len(places)}x, first at {places[0]}\t{old!r} -> {new!r}",
                  file=stream)
        for scope, keep in (("all", lambda where: True),
                            ("default point", lambda where: " --at " not in where
                             and " --sweep " not in where)):
            for cls in ("value", "residual"):
                rows = [row for row in self.floats if row[1] == cls and keep(row[0])]
                worst = max(rows, key=lambda row: row[-1], default=None)
                over = sum(row[-1] > 1.0 for row in rows)
                print(f"WORST\t{scope}\t{cls}\t"
                      + (f"{worst[-1]:.3g}\t{over} of {len(rows)} moved floats over "
                         f"their bound\t{worst[0]}" if worst else "no float moved"),
                      file=stream)
        print(f"SUMMARY\t{len(self.exact)} exact mismatches\t"
              f"{sum(row[-1] > 1.0 for row in self.floats)} floats over their bound\t"
              f"{len(self.notes)} notes", file=stream)


def _load_documents(checkout: Path) -> list:
    """The records of a `--documents` run of `checkout`, in a process of its
    own, so that each checkout imports its own packages."""
    text = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--documents",
                           str(checkout)], stdout=subprocess.PIPE, text=True, check=True).stdout
    return [json.loads(line) for line in text.splitlines()]


def _outputs(checkout: Path):
    """Run every invocation on the packages of `checkout`; yield, per
    invocation, its result (arguments, exit code or exception) and its
    stdout, `--out` file (None without one) and stderr, with the checkout
    and scratch paths masked."""
    sys.path[:0] = [str(checkout / "src"), str(checkout)]
    import compstat
    from compstat import cli
    from compstat.benchmarks import benchmark_names, get_benchmark
    if Path(compstat.__file__).resolve().parent != checkout / "src" / "compstat":
        raise SystemExit(f"compstat imported from {compstat.__file__}, not {checkout}")

    with tempfile.TemporaryDirectory() as scratch:
        def masked(text):
            if text is None:
                return None
            return text.replace(str(checkout), "<checkout>").replace(scratch, "<scratch>")

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
            yield result, masked(stdout.getvalue()), masked(out_text), masked(stderr.getvalue())


def _digest(text):
    if text is None:
        return None
    text = _WARNING_LINE.sub(r"\1:N:", _TIMINGS.sub('"timings": {}', text))
    return hashlib.sha256(text.encode()).hexdigest()


def _document(text):
    """{"json": the document without timings} where `text` parses as JSON,
    else {"text": text}; None for no text."""
    if text is None:
        return None
    try:
        return {"json": _without_timings(json.loads(text))}
    except ValueError:                    # not a JSON document
        return {"text": text}


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args[:1] == ["--bounded"]:
        if len(args) != 3:
            raise SystemExit("usage: report_digests.py --bounded OLD NEW")
        comparison = Comparison()
        comparison.records(_load_documents(Path(args[1])), _load_documents(Path(args[2])))
        comparison.report()
        return 1 if comparison.failed() else 0
    mode = next((flag for flag in ("--parsed", "--documents") if flag in args), None)
    if mode:
        args.remove(mode)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    checkout = Path(args[0] if args else Path(__file__).resolve().parents[1]).resolve()

    def document_digest(text):
        if mode == "--parsed" and text is not None:
            document = _document(text)
            if "json" in document:
                text = json.dumps(document["json"])
        return _digest(text)

    for result, stdout, out_text, stderr in _outputs(checkout):
        if mode == "--documents":
            result.update(stdout=_document(stdout), out=_document(out_text),
                          stderr=_WARNING_LINE.sub(r"\1:N:", stderr))
            print(json.dumps(result), flush=True)
            continue
        result.update(stdout=document_digest(stdout), out=document_digest(out_text),
                      stderr=_digest(stderr))
        print(json.dumps(result), flush=True)
        if result["argv"][0] == "verify-all" and "json" in result["argv"] \
                and result.get("exit") in (0, 1):
            document = out_text if out_text is not None else stdout
            for row in json.loads(document):
                key = [row["benchmark"], row["pipeline"], row["check"]]
                print(json.dumps({"argv": result["argv"], "row": key,
                                  "digest": _digest(json.dumps(row))}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
