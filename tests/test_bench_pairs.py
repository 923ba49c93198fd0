"""The verdict rule of tools/bench_pairs.py on hand-made pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]   # quartiles 9.9, 10.1


def _verdict(parent, change, direction="higher", bound=0.25):
    sign = 1 if direction == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return bench_pairs.verdict({"parent": parent, "change": change}, sign, wins, bound)


@pytest.mark.parametrize("change, direction, expected", [
    ([v * 1.05 for v in PARENT], "higher", "gain"),
    ([v * 0.95 for v in PARENT], "lower", "gain"),
    # nine of ten pairs won, by more than the parent's quartile distance
    ([v * 1.05 for v in PARENT[:9]] + [PARENT[9] - 1.0], "higher", "gain"),
    # eight of ten pairs won
    ([v * 1.05 for v in PARENT[:8]] + [v - 1.0 for v in PARENT[8:]], "higher",
     "within bound"),
    # every pair won, by less than the parent's quartile distance
    ([v + 0.01 for v in PARENT], "higher", "within bound"),
    ([v * 0.9 for v in PARENT], "higher", "within bound"),
    ([v * 0.7 for v in PARENT], "higher", "worse"),
    ([v * 1.3 for v in PARENT], "lower", "worse"),
])
def test_verdict_by_wins_quartiles_and_bound(change, direction, expected):
    assert _verdict(PARENT, change, direction) == expected


def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate():
    parent = [1.0] * 5 + [10.0] * 5                  # quartiles 1 and 10
    assert _verdict(parent, [v * 1.01 for v in parent]) == "unresolved"
    # every change run above every parent run, by less than the quartile distance
    assert _verdict(parent, [10.1] * 5 + [10.2] * 5) == "within bound"
