"""The report renderer emits exactly the text of json.dumps(indent=2)."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from compstat import report
from compstat.benchmarks import benchmark_names, get_benchmark
from compstat.cli import RunConfig, main, run_point
from compstat.report import encode_json

EDGE = {
    "nan": float("nan"),
    "infinities": [float("inf"), -float("inf")],
    "signed zero": -0.0,
    "subnormal": 5e-324,
    "large float": 1e16,
    "large int": 2 ** 70,
    "float and bool": [1.0, True],
    "float and list": [1.0, [2.0]],
    "floats around nan": [1.0, float("nan"), 2.0],
    "numpy floats": [np.float64(0.1), np.float64(-2.5e-300)],
    "numpy scalar": np.float64(3.0),
    "tuple": (1.5, 2, "three"),
    "empty": {},
    "empty list": [],
    "deep": {"a": [{}, [], [[]], {"b": {"c": []}}], "d": [[{}], [[]]]},
    "ints": [1, -2, 3],
    "null": None,
    "bools": [True, False],
    "café ☃ \x00\t\"\\": "ünïcødé \x01\n\r\"\\/ \U0001f600",
    "strings": ["a", "ß", ""],
    "rows": [[0.1, 0.2], [float("inf"), 1e-7], []],
}


def written(obj) -> str:
    return encode_json(obj) + "\n"


@pytest.mark.parametrize("obj", [EDGE, [EDGE, [EDGE]], 1.0, float("nan"), "x", 7,
                                 None, [], {}, [1.0, 2.0], (0.5,)])
def test_writer_matches_indented_dumps(obj):
    assert written(obj) == json.dumps(obj, indent=2) + "\n"


def test_writer_rejects_unsupported_types():
    for obj in ([object()], {"k": np.int64(1)}, {(1, 2): 0.0}, {1: 0.0}):
        with pytest.raises(TypeError):
            written(obj)


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("argv", (
    [["analyze", "--model", name] for name in benchmark_names()]
    + [["analyze", "--model", "profit_cd", "--sweep", "p=1:3:5"],
       ["verify-all", "--format", "json"],
       ["list-models", "--format", "json"]]
    + [["analyze", "--model", name, "--basis", "nullspace"] for name in benchmark_names()]))
def test_cli_json_is_indented_dumps(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert out == _canonical(out)
    if "nullspace" in argv:
        assert code == 0
        assert json.loads(out)["isovectors"]["basis_kind"] == "nullspace"


def test_out_file_is_indented_dumps(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    assert main(["analyze", "--model", "profit_cd", "--sweep", "p=1:3:5",
                 "--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert text == _canonical(text)
    assert capsys.readouterr().out == ""


def test_sweep_reports_equal_single_point_runs_in_order(capsys):
    # the config echoes --sweep or --at by construction, so those two
    # entries are left out of the comparison
    def reports(argv):
        assert main(["analyze", "--model", "profit_cd"] + argv) == 0
        doc = json.loads(capsys.readouterr().out)
        out = doc["reports"] if "reports" in doc else [doc]
        for rep in out:
            del rep["timings"]
            rep["config"] = {k: v for k, v in rep["config"].items()
                             if k not in ("at", "sweep")}
        return [json.dumps(rep) for rep in out]

    swept = reports(["--sweep", "p=1:3:3"])
    single = [reports(["--at", f"p={p}"])[0] for p in ("1", "2", "3")]
    assert swept == single


# orjson renders finite, all-ASCII documents; these pin its respelled float
# text to json.dumps and check each case that must fall back to json.dumps
# itself (the "walker" of the test names).

BOUNDARIES = [0.0, -0.0, 5e-324, 1e-5, 9.99e-5, 1e-4, 1e15, 9999999999999998.0,
              1e16, 1e17, float(2 ** 53), 1.7976931348623157e308,
              1.2345e-5, 1e-6, 1.5e-7, 1e-10, 1e-100, 1.5e16, 1e22, 1e300,
              10.00001, 20.000012, 100.00001, 1.00001, 0.1, 123.0]


def _random_floats() -> list:
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2 ** 64, size=100_200, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 100_000
    # uniform bit patterns rarely land in the positional range of repr, so
    # add values with exponents from 1e-7 to 1e18
    scaled = rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-7, 18, 20_000)
    return values.tolist() + scaled.tolist() + [-v for v in BOUNDARIES] + BOUNDARIES


def _assert_renders_as_dumps(obj):
    expected = json.dumps(obj, indent=2)
    assert written(obj) == expected + "\n"
    assert encode_json(obj, 2) == expected.replace("\n", "\n    ")


def test_boundary_floats_match_indented_dumps():
    for value in BOUNDARIES + [-v for v in BOUNDARIES]:
        _assert_renders_as_dumps(value)
        _assert_renders_as_dumps({"value": value})
    _assert_renders_as_dumps(BOUNDARIES)
    # strings spelled like the respelled numbers stay as they are
    _assert_renders_as_dumps({"1e-7": "1e-7", "s": ["0.00001", "1e16", "2e-5"]})


def test_random_floats_match_indented_dumps():
    values = _random_floats()
    _assert_renders_as_dumps(values)
    _assert_renders_as_dumps([values[i:i + 37] for i in range(0, len(values), 37)])


@pytest.fixture
def walker_calls(monkeypatch):
    """The types of the objects the renderer passed to json.dumps."""
    calls = []

    def spy(obj, **kwargs):
        calls.append(type(obj))
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(report, "json", SimpleNamespace(dumps=spy))
    return calls


def _matrix(seed: int) -> list:
    return np.random.default_rng(seed).normal(size=(50, 50)).tolist()


@pytest.mark.parametrize("value", [float("nan"), -float("inf")])
def test_nonfinite_deep_in_matrix_takes_walker(value, walker_calls):
    rows = _matrix(3)
    rows[37][23] = value
    _assert_renders_as_dumps({"matrix": {"labels": ["a"], "rows": rows}, "note": None})
    assert walker_calls


@pytest.mark.parametrize("obj", [
    {"café": "ünï ☃", "x": [1e-7]},              # non-ASCII key and value
    {"del": "a\x7fb", "x": [1e16]},                # DEL
    {"x": [0.5, np.float64(1e-7), 2.0]},          # NumPy float element
    {"x": [2 ** 64, 1e16]},                        # int beyond 64 bits
], ids=["non-ascii", "del", "np-float64", "int-2**64"])
def test_fallback_documents_take_walker(obj, walker_calls):
    _assert_renders_as_dumps(obj)
    assert walker_calls


@pytest.fixture
def no_walker(monkeypatch):
    def dumps(*args, **kwargs):
        raise AssertionError("a finite, all-ASCII document fell back to json.dumps")

    monkeypatch.setattr(report, "json", SimpleNamespace(dumps=dumps))


def test_finite_ascii_report_skips_walker(no_walker):
    entry = get_benchmark("slutsky_hicks")
    _assert_renders_as_dumps(run_point(entry, entry.default_point, RunConfig()))


def test_finite_ascii_edge_cases_skip_walker(no_walker):
    walked = ("nan", "infinities", "large int", "floats around nan", "numpy floats",
              "numpy scalar", "café ☃ \x00\t\"\\", "strings", "rows")
    doc = {key: value for key, value in EDGE.items() if key not in walked}
    doc["ascii"] = "".join(map(chr, range(0x7f)))    # every escape but DEL
    doc["max int"] = [2 ** 64 - 1, -2 ** 63]
    _assert_renders_as_dumps(doc)
    _assert_renders_as_dumps([doc, [doc]])
