import dataclasses

import numpy as np
import pytest

from compstat.benchmarks import all_benchmarks, get_benchmark
from compstat.benchmarks.profit import cd_profit_model
from compstat.benchmarks.slutsky import demand_model
from compstat.errors import ConfigurationError, EvaluationError
from compstat.model import BLOCK_FIELDS, Blocks, ProblemModel, augment_with_scale
from compstat.sensitivity import decision_jacobian_fd

from conftest import sqrt_profit_model


def test_dimension_mismatch_is_configuration_error():
    model = demand_model(np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError):
        Blocks(model, np.array([0.5]), np.array([1.0, 1.0, 1.0])).f
    with pytest.raises(ConfigurationError):
        Blocks(model, np.array([0.5, 0.5]), np.array([1.0, 1.0])).f


def test_budget_parameter_gradient():
    # constraint m - p.x has parameter gradient (-x, 1)
    model = demand_model(np.array([0.5, 0.5]))
    x = np.array([0.3, 0.9])
    Ga = Blocks(model, x, np.array([1.0, 2.0, 1.5])).Ga
    assert Ga[0] == pytest.approx(np.append(-x, 1.0), abs=1e-9)


def test_constant_objective_gradient_is_zero():
    model = ProblemModel(name="flat", M=2, N=2, objective=lambda x, a: 3.5)
    assert Blocks(model, np.zeros(2), np.ones(2)).fa == pytest.approx(np.zeros(2), abs=1e-12)


def test_scaled_profit_parameter_gradient():
    # scale-augmented profit has parameter gradient (-s x, s F, profit)
    base = sqrt_profit_model()
    aug = augment_with_scale(base)
    x = np.array([1.44])
    a = np.array([0.5, 1.25, 2.0])          # (w, p, s)
    fa = Blocks(aug, x, a).fa
    f_level = np.sqrt(x[0])
    profit = a[1] * f_level - a[0] * x[0]
    expected = np.array([-a[2] * x[0], a[2] * f_level, profit])
    assert fa == pytest.approx(expected, abs=1e-7)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_evaluation_error_names_coordinate():
    model = ProblemModel(
        name="log_domain", M=1, N=1,
        objective=lambda x, a: float(np.log(a[0]) * x[0]))
    with pytest.raises(EvaluationError) as excinfo:
        Blocks(model, np.ones(1), np.zeros(1)).fa
    assert excinfo.value.coordinate == 0


def test_augment_with_scale_unit_scale_restores_objective():
    base = cd_profit_model()
    aug = augment_with_scale(base)
    x = np.array([0.4, 0.7])
    a = np.array([1.0, 1.2, 2.0])
    value = Blocks(base, x, a).f
    assert Blocks(aug, x, np.append(a, 1.0)).f == pytest.approx(value, abs=1e-14)
    assert aug.N == base.N + 1
    assert aug.parameter_names[-1] == "s"
    # scaling by 3 multiplies the objective
    assert Blocks(aug, x, np.append(a, 3.0)).f == pytest.approx(3.0 * value, abs=1e-13)


def test_augment_twice_at_unit_scales_matches_original():
    base = cd_profit_model()
    twice = augment_with_scale(augment_with_scale(base), scale_name="s2")
    x = np.array([0.4, 0.7])
    a = np.array([1.0, 1.2, 2.0])
    assert (Blocks(twice, x, np.append(a, [1.0, 1.0])).f
            == pytest.approx(Blocks(base, x, a).f, abs=1e-14))


def test_scale_column_of_jacobian_vanishes():
    aug = augment_with_scale(cd_profit_model())
    a = np.array([1.0, 1.0, 2.0, 1.0])
    bundle = decision_jacobian_fd(aug, a)
    assert np.max(np.abs(bundle.x_jac[:, -1])) < 1e-8


# derivative kind -> the Blocks attributes it serves: objective, constraints
DERIVATIVE_ATTRIBUTES = {
    "grad_x": ("fx", "Gx"),
    "grad_a": ("fa", "Ga"),
    "hess_xx": ("fxx", "gxx"),
    "hess_xa": ("fxa", "gxa"),
}


def _without(model, kinds):
    """`model` with the callables registered for `kinds` removed, so that
    `_stencil` serves those blocks."""
    return dataclasses.replace(
        model, **{field: None for kind in kinds for field in BLOCK_FIELDS[kind]})


def _terms(blocks, kind):
    """The objective's block of `kind`, then each constraint's."""
    objective, constraints = DERIVATIVE_ATTRIBUTES[kind]
    return [getattr(blocks, objective), *getattr(blocks, constraints)]


def test_catalog_registered_blocks_match_engine_stencils():
    # each derivative kind against the stencil that replaces it: gradients
    # difference the value, Hessians the registered gradients and, with
    # every derivative removed, nested stencils of the value
    rng = np.random.default_rng(8)
    for entry in all_benchmarks():
        model = entry.model
        run = entry.prepare("numeric")
        variants = [(kind, _without(model, [kind])) for kind in DERIVATIVE_ATTRIBUTES]
        nested = _without(model, DERIVATIVE_ATTRIBUTES)
        variants += [(kind, nested) for kind in ("hess_xx", "hess_xa")]
        for _ in range(3):
            x = run.sol.x * rng.uniform(0.9, 1.1, size=model.M)
            a = run.sol.a * rng.uniform(0.95, 1.05, size=model.N)
            registered = Blocks(model, x, a)
            for kind, stripped in variants:
                pairs = zip(_terms(registered, kind), _terms(Blocks(stripped, x, a), kind))
                for term, (block, stencil) in enumerate(pairs):
                    scale = max(1.0, float(np.max(np.abs(block))))
                    gap = float(np.max(np.abs(block - stencil)))
                    assert gap / scale < 1e-5, (entry.name, kind, term, stripped is nested)


@pytest.mark.parametrize("kappa", [(3,), (-1,), (0, 1), (2.0,), ()])
def test_separable_slots_are_checked_when_the_model_is_built(kappa):
    # demand over two goods: N = 3, K = 1, the budget's slot is 2.  An
    # out-of-range slot used to raise an untyped IndexError in the Hatta
    # check, and a negative one wrapped around to the last slot silently
    model = demand_model(np.array([0.5, 0.5]))
    assert (model.N, model.K, model.separable_kappa) == (3, 1, (2,))
    with pytest.raises(ConfigurationError, match="distinct parameter slots in range"):
        dataclasses.replace(model, separable_kappa=kappa)
    portfolio = get_benchmark("efficient_portfolio").model       # K = 2
    with pytest.raises(ConfigurationError, match="distinct parameter slots in range"):
        dataclasses.replace(portfolio, separable_kappa=(portfolio.separable_kappa[0],) * 2)
