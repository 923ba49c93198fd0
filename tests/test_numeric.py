"""`max_abs` is `float(np.max(np.abs(x)))` bit for bit, and `spd_solve`
is `scipy.linalg.solve(..., assume_a="pos")` bit for bit, errors and
warnings included."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from compstat.benchmarks import agency, get_benchmark, multi_output, portfolio
from compstat.numeric import max_abs, spd_solve


def _cases() -> list:
    rng = np.random.default_rng(11)
    random = [rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, shape)
              for shape in [(1,), (7,), (5, 6), (3, 4, 2), (1000,)]]
    edges = [np.array([0.0]), np.array([-0.0]), np.array([-0.0, 0.0]),
             np.array([1.0, np.nan, 2.0]), np.array([np.nan, -np.inf]),
             np.array([-np.inf, 1.0]), np.array([np.inf]), np.array([5e-324, -5e-324]),
             np.r_[rng.normal(size=777), np.nan, rng.normal(size=300)],
             np.asfortranarray(rng.normal(size=(4, 5))), rng.normal(size=(6, 6))[::2, 1::3]]
    scalars = [-2.5, -0.0, float("nan"), -float("inf"), np.float64(-3.0), 7]
    return random + edges + scalars + [[1.0, -4.0, 2.0]]


@pytest.mark.parametrize("x", _cases(), ids=lambda x: type(x).__name__)
def test_max_abs_is_np_max_of_np_abs_bit_for_bit(x):
    got, expected = max_abs(x), float(np.max(np.abs(x)))
    assert type(got) is float
    assert np.array([got]).view(np.uint64) == np.array([expected]).view(np.uint64)


@pytest.mark.parametrize("x", [np.zeros(0), np.zeros((3, 0)), []])
def test_max_abs_of_an_empty_array_raises_as_np_max(x):
    with pytest.raises(ValueError) as expected:
        np.max(np.abs(x))
    with pytest.raises(ValueError) as got:
        max_abs(x)
    assert str(got.value) == str(expected.value)


def _outcome(solve, mat, rhs) -> tuple:
    """What `solve(mat, rhs)` does: its result's bits or its exception's
    type and message, and the category, message and file of each warning
    (this one: `_scipy_pos` calls SciPy here, and `spd_solve` issues SciPy's
    warnings at its caller's line)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve(mat, rhs)
            done = ("result", result.shape, np.ascontiguousarray(result).tobytes())
        except Exception as exc:   # compared, never swallowed
            done = ("raised", type(exc), str(exc))
    return done, [(w.category, str(w.message), w.filename) for w in caught]


def _scipy_pos(mat, rhs):
    return scipy.linalg.solve(mat, rhs, assume_a="pos")


def _seeded_systems() -> list:
    rng = np.random.default_rng(26)
    systems = []
    for order in range(1, 9):
        for columns in (None, 1, 3):
            root = rng.normal(size=(order, order))
            mat = root @ root.T + 0.1 * np.eye(order)
            shape = order if columns is None else (order, columns)
            systems.append((mat, rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)))
    return systems


@pytest.mark.parametrize("mat, rhs", _seeded_systems(),
                         ids=lambda v: "x".join(map(str, np.shape(v))))
def test_spd_solve_is_scipy_solve_bit_for_bit(mat, rhs):
    assert _outcome(spd_solve, mat, rhs) == _outcome(_scipy_pos, mat, rhs)


def test_spd_solve_is_scipy_solve_at_its_call_sites(monkeypatch):
    # the Gram matrix of principal_agent's closed form, the curvature of
    # multi_output_profit's and the covariance of the portfolio companion's
    seen = {}

    def recorded(module):
        def solve(mat, rhs):
            seen.setdefault(module.__name__, []).append((mat.copy(), rhs.copy()))
            return spd_solve(mat, rhs)
        return solve

    modules = (agency, multi_output, portfolio)
    for module in modules:
        monkeypatch.setattr(module, "spd_solve", recorded(module))
    for name in ("principal_agent", "multi_output_profit", "efficient_portfolio"):
        get_benchmark(name).run_suite("analytic")
    assert sorted(seen) == sorted(module.__name__ for module in modules)
    for mat, rhs in (system for systems in seen.values() for system in systems):
        done, caught = _outcome(spd_solve, mat, rhs)
        assert (done, caught) == _outcome(_scipy_pos, mat, rhs)
        assert done[0] == "result" and caught == []


def _ill_conditioned() -> list:
    """Positive definite matrices whose reciprocal condition number lies
    around EPS, SciPy's warning threshold."""
    rng = np.random.default_rng(7)
    systems = []
    for _ in range(60):
        order = int(rng.integers(2, 6))
        basis, _ = np.linalg.qr(rng.normal(size=(order, order)))
        spectrum = np.ones(order)
        spectrum[0] = 10.0 ** rng.uniform(-16.5, -14.8)
        systems.append(((basis * spectrum) @ basis.T, rng.normal(size=order)))
    return systems


def test_spd_solve_warns_as_scipy_on_both_sides_of_its_threshold():
    sides = set()
    for mat, rhs in _ill_conditioned():
        outcome = _outcome(_scipy_pos, mat, rhs)
        assert _outcome(spd_solve, mat, rhs) == outcome
        if outcome[0][0] == "result":
            sides.add(bool(outcome[1]))
    assert sides == {True, False}      # warned and did not warn


@pytest.mark.parametrize("mat, rhs", [
    (np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2)),              # indefinite
    (np.diag([1.0, -1e-300, 3.0]), np.ones((3, 2))),
    (np.array([[-2.0]]), np.ones(1)),                              # order 1: divided
    (np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2)),              # singular
    (np.zeros((3, 3)), np.ones(3)),
    (np.array([[0.0]]), np.ones(1)),
    (np.array([[1.0, 0.0], [np.nan, 1.0]]), np.ones(2)),           # below the triangle read
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2)),
    (np.eye(2), np.array([1.0, np.nan])),
    (np.eye(2), np.array([[1.0], [-np.inf]])),
], ids=["indefinite", "negative_pivot", "order_1_negative", "singular", "zero",
        "order_1_zero", "nan_lower", "inf_diagonal", "nan_rhs", "inf_rhs"])
def test_spd_solve_fails_as_scipy_solve(mat, rhs):
    assert _outcome(spd_solve, mat, rhs) == _outcome(_scipy_pos, mat, rhs)
