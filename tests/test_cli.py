import dataclasses
import json
import os
import warnings

import numpy as np
import pytest
import scipy.linalg

from compstat import cli, solver
from compstat.benchmarks import benchmark_names, get_benchmark
from compstat.cli import (cmd_analyze, cmd_list_models, cmd_verify_all,
                          config_from_mapping, main, parse_config_file)
from compstat.errors import ConfigurationError


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_demand_report_and_exit_code(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_main([
        "analyze", "--model", "slutsky_hicks", "--at", "p=1,1", "--at", "m=1",
        "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["schema_version"] == "2"
    assert payload["solution"]["x"] == pytest.approx([0.5, 0.5])
    omega = next(item for item in payload["csm_results"]
                 if item["recipe"] == "omega_eq7")
    # main recipe at the point: the negated substitution matrix (multiplier 1)
    assert np.asarray(omega["matrix"]["rows"]) == pytest.approx(
        np.array([[0.25, -0.25], [-0.25, 0.25]]), abs=1e-10)
    assert omega["matrix"]["row_labels"] == ["d1", "d2"]
    # the application-level substitution matrix is emitted alongside
    sigma = next(item for item in payload["csm_results"]
                 if item["recipe"] == "derived:substitution")
    assert np.asarray(sigma["matrix"]["rows"]) == pytest.approx(
        np.array([[-0.25, 0.25], [0.25, -0.25]]), abs=1e-10)
    assert sigma["sign_convention"] == "negative_semidefinite_expected"
    assert all(chk["verdict"] != "fail" for chk in payload["checks"])


def test_analyze_accepts_space_separated_groups(capsys):
    code, out, _ = run_main(["analyze", "--model", "slutsky_hicks",
                             "--at", "p=1,2", "m=3"], capsys)
    assert code == 0
    assert json.loads(out)["solution"]["a"] == [1.0, 2.0, 3.0]


def test_analyze_report_round_trips_losslessly(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_main(["analyze", "--model", "profit_cd",
                           "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text()
    payload = json.loads(text)
    assert json.loads(json.dumps(payload)) == payload


def test_analyze_is_deterministic_apart_from_timings(capsys):
    code1, out1, _ = run_main(["analyze", "--model", "market_power"], capsys)
    code2, out2, _ = run_main(["analyze", "--model", "market_power"], capsys)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timings"), d2.pop("timings")
    assert d1 == d2


def test_sweep_produces_ordered_reports_with_passing_invariance(capsys):
    code, out, _ = run_main(["analyze", "--model", "profit_cd",
                             "--sweep", "p=1:3:5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 5
    prices = [rep["solution"]["a"][2] for rep in payload["reports"]]
    assert prices == pytest.approx(list(np.linspace(1, 3, 5)))
    for rep in payload["reports"]:
        inv = [c for c in rep["checks"] if c["name"].startswith("invariance")]
        assert inv and all(c["verdict"] == "pass" for c in inv)


def _serial_sweep(model, sweep, monkeypatch):
    """The parsed reports of a sweep analyzed in this process, and its exit code."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    texts, code = cmd_analyze(config_from_mapping({"model": model, "sweep": sweep}))
    return [json.loads(text) for text in texts], code


@pytest.mark.parametrize("model, sweep, points", [
    ("slutsky_hicks", "m=0.5:2:5", 5),  # demand is linear in m: the prediction is exact
    ("profit_cd", "p=2:2:3", 3),        # a degenerate grid: the prediction is x_cf itself
])
def test_a_sweep_cross_check_never_starts_where_it_has_nothing_to_check(
        model, sweep, points, monkeypatch):
    entry, real, starts = get_benchmark(model), solver.newton_solve, []

    def recorded(model, a, x0, config=solver.SolverConfig(), factor=None):
        sol = real(model, a, x0, config, factor=factor)
        starts.append((np.array(x0), sol.iterations))
        return sol

    monkeypatch.setattr(solver, "newton_solve", recorded)   # solve_interior's calls only
    reports, code = _serial_sweep(model, sweep, monkeypatch)
    assert code == 0 and len(starts) == len(reports) == points
    for x0, iterations in starts:
        assert iterations >= 1 or np.array_equal(x0, entry.x0)
    assert all(rep["solution"]["newton_discrepancy"] is not None for rep in reports)


def test_a_wrong_closed_form_is_caught_at_every_sweep_point(monkeypatch):
    # the prediction comes from the closed form under test; Newton must
    # still land on the true solution, 1e-6 relative away from it
    entry = get_benchmark("profit_cd")
    closed_form = entry.model.analytic_solution

    def wrong(a):
        x, lam = closed_form(a)
        return np.asarray(x) * (1 + 1e-6), lam

    wrong_entry = dataclasses.replace(
        entry, model=dataclasses.replace(entry.model, analytic_solution=wrong))
    monkeypatch.setattr(cli, "_load_entry", lambda spec: wrong_entry)
    reports, _ = _serial_sweep("profit_cd", "p=1.5:3:8", monkeypatch)
    assert len(reports) == 8
    for rep in reports:
        solution = rep["solution"]
        assert solution["newton_discrepancy"] >= 1e-7 * max(map(abs, solution["x"]))


def test_malformed_config_key_exits_3_without_partial_report(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = slutsky_hicks\nsolver.tole = 1e-9\n")
    out_file = tmp_path / "never.json"
    code, _, err = run_main(["analyze", "--config", str(cfg),
                             "--out", str(out_file)], capsys)
    assert code == 3
    assert "unknown config key" in err
    assert not out_file.exists()


# removed keys; sensitivity.step went when the stencil step became fixed
@pytest.mark.parametrize("key", ["checks.tol", "checks.envelope_tol", "sensitivity.step"])
def test_removed_check_tolerance_keys_exit_3(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = slutsky_hicks\n{key} = 1e-7\n")
    code, out, err = run_main(["analyze", "--config", str(cfg)], capsys)
    assert (code, out) == (3, "")
    assert "unknown config key" in err


@pytest.mark.parametrize("config, flags", [
    ("solver.tol = abc", []),
    ("solver.max_iter = 1.5", []),
    ("sensitivity.step = 0", ["--method", "fd"]),    # an unknown key
    ("", ["--tol", "nan"]),
    ("", ["--tol", "inf"]),
    ("solver.max_iter = 0", []),
    ("solver.max_iter = -1", []),
])
def test_bad_config_value_exits_3_without_partial_report(config, flags, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = multi_constraint_utility\n{config}\n")
    out_file = tmp_path / "never.json"
    code, out, err = run_main(["analyze", "--config", str(cfg), "--out", str(out_file)]
                              + flags, capsys)
    assert code == 3
    assert err.startswith("configuration error:") and out == ""
    assert not out_file.exists()


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigurationError):
        config_from_mapping({"model": "slutsky_hicks", "solver.tol": "-1"})


def test_config_file_parsing_with_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# demand analysis
model = slutsky_hicks
at.p = 1,2   # prices
at.m = 3
solver.tol = 1e-11
csm.recipes = omega_eq7,universal_U
format = table
""")
    parsed = config_from_mapping(parse_config_file(str(cfg)))
    assert parsed.model == "slutsky_hicks"
    assert parsed.at == {"p": [1.0, 2.0], "m": [3.0]}
    assert parsed.solver_tol == 1e-11
    assert parsed.recipes == ("omega_eq7", "universal_U")


def test_unknown_model_exits_3(capsys):
    code, _, err = run_main(["analyze", "--model", "nonexistent"], capsys)
    assert code == 3 and "unknown benchmark" in err


def test_bad_at_group_exits_3(capsys):
    code, _, err = run_main(["analyze", "--model", "slutsky_hicks",
                             "--at", "zz=1"], capsys)
    assert code == 3 and "matches nothing" in err


def test_zero_point_sweep_exits_3(capsys):
    code, out, err = run_main(["analyze", "--model", "profit_cd",
                               "--sweep", "p=1:3:0"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("configuration error: ") and "at least 1" in err


@pytest.mark.parametrize("sweep", ["P1_1=-2:0:3", "P1_1=0:0:2"])
def test_principal_agent_nonpositive_probability_exits_2(sweep, capsys):
    # rejected before the oracle divides by the probabilities, so no
    # RuntimeWarning and no numpy LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_main(["analyze", "--model", "principal_agent",
                                   "--sweep", sweep], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "positive outcome probabilities" in err


@pytest.mark.parametrize("model, at, message", [
    ("principal_agent", "B1=0", "no interior payment schedule"),
    ("multi_output_profit", "p2=-1", "not positive definite"),
])
def test_catalog_point_without_interior_optimum_exits_2(model, at, message, capsys):
    code, out, err = run_main(["analyze", "--model", model, "--at", at], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_fd_method_needs_no_base_solve_under_a_closed_form(monkeypatch, capsys):
    # the closed form serves every stencil point, so the finite-difference
    # route makes no Newton solve at all
    import compstat.sensitivity as sensitivity
    newton_solve, calls = sensitivity.newton_solve, []

    def counted(*args, **kwargs):
        calls.append(args)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(sensitivity, "newton_solve", counted)
    code, out, _ = run_main(["analyze", "--model", "principal_agent", "--method", "fd"], capsys)
    assert code == 0 and json.loads(out)["sensitivity"]["method"] == "fd"
    assert calls == []


@pytest.mark.parametrize("argv, code, recipe, error", [
    # unit-scaled singular values 1.41 and 5.8e-7: dependent below 1e-6, so
    # the second-order gate refuses the point before any recipe is built
    (["principal_agent", "--at", "P1_1=100000"], 2, None, "of the unit-length rows"),
    (["slutsky_hicks", "--recipes", "omega_eq7,omega_A1"], 0, "omega_A1", "requires K = 0"),
    # only badly scaled (row lengths 1e6, 1.41 and 1.41): U is built
    (["pareto_allocation", "--at", "b1=1e6"], 0, None, None),
    (["principal_agent", "--at", "P1_1=1000"], 1, None, None),
])
def test_a_recipe_that_cannot_be_built_is_an_error_that_leaves_the_exit_code(
        argv, code, recipe, error, capsys):
    # the exit code is the checks' (principal_agent fails a derived-matrix
    # row at P1_1 = 1000), unless the gate refuses the point (exit 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_main(["analyze", "--model"] + argv, capsys)
    assert result[0] == code
    if code == 2:
        assert result[1] == "" and error in result[2]
        return
    payload = json.loads(result[1])
    rows = {chk["name"]: chk["verdict"] for chk in payload["checks"]}
    if error is None:
        assert payload["errors"] == []
        assert rows["semidefinite[universal_U]"] == rows["coherence[universal_U]"] == "pass"
    else:
        assert [err["stage"] for err in payload["errors"]] == [f"csm:{recipe}"]
        assert error in payload["errors"][0]["message"]
        assert f"semidefinite[{recipe}]" not in rows


@pytest.mark.parametrize("method", ["ift", "fd", "analytic"])
def test_nearly_dependent_constraint_gradients_exit_2_on_every_route(method, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        code, out, err = run_main(["analyze", "--model", "principal_agent",
                                   "--at", "P1_1=100000", "--method", method], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: constraint gradients of 'principal_agent' are linearly dependent "
                   "(singular values [1.41421356e+00 5.77240040e-07] of the unit-length rows)\n")


def test_badly_scaled_constraint_gradients_do_not_stop_newton(capsys):
    # at b1 = 1e11 the raw singular values of G_x span 11 orders of magnitude
    # while its unit-length rows are independent: Newton is not refused at
    # its start point, and it stops unconverged on its ill-conditioned steps
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_main(["analyze", "--model", "pareto_allocation",
                                   "--at", "b1=1e11"], capsys)
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert payload["errors"] == [{"stage": "solve", "message": "solver did not converge"}]
    assert {type(w.message) for w in caught} == {scipy.linalg.LinAlgWarning}
    assert all("ill-conditioned Newton system" in str(w.message) for w in caught)


def test_scaled_catalog_points_never_crash_untyped(capsys):
    # every parameter of every catalog model, one at a time, scaled from
    # its default value: a point may fail, but only with an exit code, and
    # no formula is evaluated outside its domain (no numpy RuntimeWarning;
    # scipy's LinAlgWarning subclass reports ill-conditioning and may occur)
    crashes, warned = [], []
    for name in benchmark_names():
        entry = get_benchmark(name)
        for index, parameter in enumerate(entry.model.parameter_names):
            for factor in (-1.0, 0.0, 1e-3, 0.5, 2.0, 1e3):
                value = float(entry.default_point[index]) * factor
                argv = ["analyze", "--model", name, "--at", f"{parameter}={value!r}",
                        "--format", "table"]
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        code = main(argv)
                except Exception as exc:
                    crashes.append((name, parameter, factor, repr(exc)))
                    continue
                if code not in (0, 1, 2, 3):
                    crashes.append((name, parameter, factor, code))
                warned += [(name, parameter, factor, f"{w.filename}:{w.lineno}: {w.message}")
                           for w in caught if w.category is RuntimeWarning]
    capsys.readouterr()
    assert crashes == []
    assert warned == []


def test_non_finite_parameters_exit_3_and_overflowing_blocks_are_typed(capsys):
    # rejected while parsing, so no solve sees them (pareto_allocation at
    # b1=inf would otherwise spin in a least-squares solve)
    for argv in (["pareto_allocation", "--at", "b1=inf"],
                 ["pareto_allocation", "--at", "b1=nan"],
                 ["profit_cd", "--at", "p=inf"],
                 ["profit_cd", "--at", "p=1e400"],
                 ["profit_cd", "--sweep", "p=1:inf:3"]):
        code, out, err = run_main(["analyze", "--model"] + argv, capsys)
        assert (code, out) == (3, ""), argv
        assert err.startswith("configuration error: ") and "finite" in err, argv
    # a finite point whose blocks overflow is a typed engine error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, err = run_main(["analyze", "--model", "slutsky_hicks",
                                   "--at", "p=1e308,1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "non-finite" in err
    # with finite-difference sensitivities too: the second-order gate reads
    # the overflowing bordered matrix before any route differentiates
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, err = run_main(["analyze", "--model", "slutsky_hicks", "--at", "p=1e308,1",
                                   "--method", "fd"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: non-finite bordered matrix for 'slutsky_hicks'\n"


def test_constrained_minimum_exits_2_naming_the_inertia(capsys):
    # at p2 = -0.8 the solved point of cost_constrained_profit is a
    # constrained minimum: every matrix would be reported with the wrong sign
    code, out, err = run_main(["analyze", "--model", "cost_constrained_profit",
                               "--at", "p2=-0.8"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: not a strict constrained maximum")
    assert "inertia (positive, negative, zero) = (3, 1, 0), expected (1, 3, 0)" in err


@pytest.mark.parametrize("flags, message", [
    (["--tol", "nan"], "finite and positive"),
    (["--tol", "-1"], "finite and positive"),
    (["--tol", "0"], "finite and positive"),
    (["--only", "nosuch"], "unknown benchmark 'nosuch'"),
    (["--only", "slutsky_hicks,nosuch"], "unknown benchmark 'nosuch'"),
])
def test_verify_all_rejects_bad_flags_with_exit_3(flags, message, capsys):
    code, out, err = run_main(["verify-all"] + flags, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("configuration error: ") and message in err


def test_verify_all_clean_checkout(capsys):
    rows, code = cmd_verify_all()
    assert code == 0
    assert all(row["verdict"] == "pass" for row in rows)
    names = {row["benchmark"] for row in rows}
    assert len(names) == 9


# claim tags of generic rows, which no model's own oracle may carry
GENERIC_CLAIMS = ("decision-invariance", "separate-degree-zero", "per-effort-degree-zero",
                  "constraint-conformance")


@pytest.mark.parametrize("name", benchmark_names())
def test_verify_all_runs_the_generic_rows_then_the_oracles(name):
    entry = get_benchmark(name)
    model = entry.model
    derived = entry.derived_matrices(entry.prepare("numeric")) if entry.derived_matrices else {}
    generic = ([f"invariance[{gen.name}]" for gen in model.invariance_generators]
               + ["semidefinite[omega_eq7]", "rank_bound[omega_eq7]"]
               + [f"semidefinite[derived:{d}]" for d in derived]
               + (["conformance"] if model.K else [])
               + (["hatta_reduction"] if model.separable_kappa is not None else []))
    rows, code = cmd_verify_all(only=(name,))
    assert code == 0
    assert "skipped" not in {row["verdict"] for row in rows}
    pipelines = ("analytic", "numeric") if entry.has_analytic else ("numeric",)
    assert sorted({row["pipeline"] for row in rows}) == sorted(pipelines)
    for pipeline in pipelines:
        names = [row["check"] for row in rows if row["pipeline"] == pipeline]
        assert len(names) == len(set(names)), pipeline
        assert names == generic + list(entry.suite_names()), pipeline
    assert not any(row["claim"] in GENERIC_CLAIMS for row in rows
                   if row["check"] in entry.suite_names())


def test_verify_all_only_filter(capsys):
    rows, code = cmd_verify_all(only=("principal_agent",))
    assert code == 0
    assert {row["benchmark"] for row in rows} == {"principal_agent"}


def test_verify_all_tolerance_override_fails_fd_paths(capsys):
    # slutsky_hicks failed here only on its rank rows, which --tol no longer
    # touches; principal_agent's central-difference rows sit above 1e-15
    rows, code = cmd_verify_all(only=("principal_agent",), tol_override=1e-15)
    assert code == 1
    failed = [row for row in rows if row["verdict"] == "fail"]
    assert any(row["pipeline"] == "numeric" for row in failed)
    assert all(row["claim"] != "rank-bound" for row in failed)


def test_verify_all_tolerance_override_leaves_rank_rows_alone():
    # a rank row's residual is a rank; at the parent every one read fail here
    plain, _ = cmd_verify_all()
    rows, _ = cmd_verify_all(tol_override=1e-12)
    assert [(r["benchmark"], r["pipeline"], r["check"]) for r in rows] == \
        [(r["benchmark"], r["pipeline"], r["check"]) for r in plain]
    ranks = [(row, base) for row, base in zip(rows, plain) if row["claim"] == "rank-bound"]
    assert len(ranks) == 16
    for row, base in ranks:
        assert row == base and row["verdict"] == "pass"
    others = [row for row in rows if row["claim"] != "rank-bound"]
    assert all(row["tolerance"] == 1e-12 for row in others)
    assert all(row["verdict"] == ("pass" if row["residual"] <= 1e-12 else "fail")
               for row in others)


def test_verify_all_cli_table_output(capsys):
    code, out, _ = run_main(["verify-all", "--only", "pareto_allocation"], capsys)
    assert code == 0
    assert "pareto_allocation" in out and "pass" in out


def test_list_models_three_stable_formats(capsys):
    for fmt in ("table", "json", "names"):
        first = cmd_list_models(fmt)
        second = cmd_list_models(fmt)
        assert first == second
    names = cmd_list_models("names").strip().splitlines()
    assert "efficient_portfolio" in names
    payload = json.loads(cmd_list_models("json"))
    assert {entry["name"] for entry in payload} == set(names)
    table = cmd_list_models("table")
    assert "slutsky_hicks" in table


def test_csv_format_emits_matrix_blocks(capsys):
    code, out, _ = run_main(["analyze", "--model", "slutsky_hicks",
                             "--format", "csv"], capsys)
    assert code == 0
    assert "# slutsky_hicks omega_eq7" in out
    assert "d1" in out


def test_out_dir_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COMPSTAT_OUT_DIR", str(tmp_path))
    code, _, _ = run_main(["analyze", "--model", "slutsky_hicks",
                           "--out", "nested/report.json"], capsys)
    assert code == 0
    assert (tmp_path / "nested" / "report.json").exists()


def test_module_factory_model_spec(capsys):
    code, out, _ = run_main([
        "analyze", "--model",
        "compstat.benchmarks.slutsky:register_slutsky_hicks"], capsys)
    assert code == 0
    assert json.loads(out)["model"] == "slutsky_hicks"


def test_report_schema_fields_are_pinned_to_version(capsys):
    # any change to the serialized field set requires a schema version bump
    code, out, _ = run_main(["analyze", "--model", "slutsky_hicks"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "2"
    assert set(payload) == {
        "schema_version", "config", "model", "solution", "sensitivity",
        "isovectors", "csm_results", "checks", "errors", "timings"}
    assert set(payload["solution"]) == {
        "a", "x", "multipliers", "kkt_residual", "iterations", "converged",
        "source", "newton_discrepancy"}
    assert set(payload["csm_results"][0]) == {
        "recipe", "sign_convention", "matrix", "eigenvalues",
        "symmetry_residual", "rank_estimate", "rank_tol", "transform_kind", "note"}
    universal = next(item for item in payload["csm_results"]
                     if item["recipe"] == "universal_U")
    assert universal["matrix"]["row_labels"] == ["p1", "p2", "m"]


def test_solver_failure_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = market_power\nsolver.max_iter = 1\n")
    code, out, _ = run_main(["analyze", "--config", str(cfg)], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["errors"][0]["stage"] == "solve"
    assert not payload["solution"]["converged"]


def test_fd_method_pipeline(capsys):
    code, out, _ = run_main(["analyze", "--model", "slutsky_hicks",
                             "--method", "fd"], capsys)
    assert code == 0
    assert json.loads(out)["sensitivity"]["method"] == "fd"


def test_removed_only_config_key_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        config_from_mapping({"model": "slutsky_hicks", "only": "slutsky_hicks"})


def test_check_detail_bools_serialize_as_json_bools(capsys):
    # the envelope check and the isovectors block report the same flag
    code, out, _ = run_main(["analyze", "--model", "slutsky_hicks"], capsys)
    assert code == 0
    payload = json.loads(out)
    envelope = next(c for c in payload["checks"] if c["name"] == "envelope")
    assert envelope["details"]["annihilates_objective"] is False
    assert payload["isovectors"]["annihilates_objective"] is False


def test_conformance_reports_the_tolerance_its_verdict_used(capsys):
    # 1e-6 scaled by max|G_x| * max(1, max|compensated dx/da|), about 10.7 here
    code, out, _ = run_main(["analyze", "--model", "efficient_portfolio"], capsys)
    assert code == 0
    conformance = next(c for c in json.loads(out)["checks"]
                       if c["name"] == "conformance")
    assert conformance["tolerance"] == pytest.approx(1.07017e-5, rel=1e-5)


@pytest.mark.parametrize("name", benchmark_names())
def test_each_check_has_one_tolerance_whichever_pipeline_runs_it(name, capsys):
    # the conformance bound scales with the compensated Jacobian, whose last
    # bits differ between pipelines; the other tolerances are equal bit for bit
    rows, code = cmd_verify_all(only=(name,))
    assert code == 0
    tolerances = {}
    for row in rows:
        tolerances.setdefault(row["check"], []).append(row["tolerance"])
    for check, tols in tolerances.items():
        assert tols == pytest.approx([tols[0]] * len(tols), rel=1e-12), check
    if "conformance" in tolerances:
        code, out, _ = run_main(["analyze", "--model", name], capsys)
        analyzed = next(c for c in json.loads(out)["checks"] if c["name"] == "conformance")
        assert tolerances["conformance"] == pytest.approx(
            [analyzed["tolerance"]] * len(tolerances["conformance"]), rel=1e-12)


def test_every_analyze_verdict_matches_its_residual_and_tolerance(capsys):
    for name in benchmark_names():
        code, out, _ = run_main(["analyze", "--model", name], capsys)
        assert code == 0, name
        for chk in json.loads(out)["checks"]:
            if chk["residual"] is None:          # skipped
                continue
            assert (chk["verdict"] == "pass") == (chk["residual"] <= chk["tolerance"]), \
                (name, chk["name"])
