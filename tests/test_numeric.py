"""`max_abs` is `float(np.max(np.abs(x)))` bit for bit, errors included."""

import numpy as np
import pytest

from compstat.numeric import max_abs


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
