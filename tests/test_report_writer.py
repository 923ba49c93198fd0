"""The report renderer emits the layout of json.dumps(indent=2) with floats
in a shortest round-trip spelling.

Oracle: a rendered text equals `json.dumps(obj, indent=2)` once every number
token in both texts is respelled as `repr(float(token))`, and each number
token of the rendered text parses to the bit-identical float (an int token
stays the same int token).  Strings, keys and layout are compared byte for
byte.  A document that falls back to `json.dumps` (non-finite values,
non-ASCII or DEL characters, NumPy scalars, ints beyond 64 bits) is
byte-equal to `json.dumps`.
"""

import json
import os
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from compstat import cli, report
from compstat.benchmarks import benchmark_names, get_benchmark
from compstat.cli import RunConfig, main, run_point
from compstat.diagnostics import CheckReport
from compstat.report import (check_dict, csm_dict, encode_json, json_floats,
                             labeled_matrix, solution_dict)

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

# a JSON string token, or a JSON number token
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')


def written(obj) -> str:
    return encode_json(obj) + "\n"


def _respelled(text: str) -> str:
    """`text` with each number token spelled as `repr(float(token))`."""
    return _TOKEN.sub(lambda m: m[0] if m[0][0] == '"' else repr(float(m[0])), text)


def _numbers(text: str) -> list:
    """Each number token of `text`: an int token as it is, a float token
    as the bytes of its double."""
    return [token if token.lstrip("-").isdigit() else struct.pack("<d", float(token))
            for token in _TOKEN.findall(text) if token[0] != '"']


def _assert_same_document(text: str, expected: str):
    assert _respelled(text) == _respelled(expected)
    assert _numbers(text) == _numbers(expected)


def _assert_renders_as_dumps(obj):
    text = encode_json(obj)
    _assert_same_document(text, json.dumps(obj, indent=2))
    assert encode_json(obj, 2) == text.replace("\n", "\n    ")


def _assert_falls_back(obj):
    expected = json.dumps(obj, indent=2)
    assert written(obj) == expected + "\n"
    assert encode_json(obj, 2) == expected.replace("\n", "\n    ")


@pytest.mark.parametrize("obj", [EDGE, [EDGE, [EDGE]], 1.0, json_floats(float("nan")),
                                 "x", 7, None, [], {}, [1.0, 2.0], (0.5,)])
def test_writer_matches_indented_dumps(obj):
    _assert_renders_as_dumps(obj)


def test_edge_documents_fall_back_byte_for_byte():
    for obj in (EDGE, [EDGE, [EDGE]], json_floats(float("nan"))):
        _assert_falls_back(obj)


def test_writer_rejects_unsupported_types():
    for obj in ([object()], {"k": np.int64(1)}, {(1, 2): 0.0}, {1: 0.0}):
        with pytest.raises(TypeError):
            written(obj)


def test_oracle_tells_spellings_from_values():
    _assert_same_document("[\n  1e-7,\n  1e16,\n  0.00001\n]",
                          "[\n  1e-07,\n  1e+16,\n  1e-05\n]")
    for text, expected in (("[\n  1e-7\n]", "[\n  1.0000000000000002e-07\n]"),
                           ("[\n  1\n]", "[\n  1.0\n]"),
                           ('{\n  "1e-7": 1.0\n}', '{\n  "1e-07": 1.0\n}'),
                           ("[\n  null\n]", "[\n  NaN\n]")):
        with pytest.raises(AssertionError):
            _assert_same_document(text, expected)


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.fixture
def rendered(monkeypatch):
    """The (object, depth, text) of each document the CLI renders, all in
    this process."""
    calls = []

    def spy(obj, depth=0):
        text = encode_json(obj, depth)
        calls.append((obj, depth, text))
        return text

    monkeypatch.setattr(cli, "encode_json", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return calls


def _assert_cli_rendered(calls, out: str):
    assert calls
    for obj, depth, text in calls:
        expected = json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)
        _assert_same_document(text, expected)
        assert text in out
    _assert_same_document(out, _canonical(out))


@pytest.mark.parametrize("argv", (
    [["analyze", "--model", name] for name in benchmark_names()]
    + [["analyze", "--model", "profit_cd", "--sweep", "p=1:3:5"],
       ["verify-all", "--format", "json"],
       ["list-models", "--format", "json"]]
    + [["analyze", "--model", name, "--basis", "nullspace"] for name in benchmark_names()]))
def test_cli_json_is_indented_dumps(argv, capsys, rendered):
    code = main(argv)
    out = capsys.readouterr().out
    _assert_cli_rendered(rendered, out)
    if "nullspace" in argv:
        assert code == 0
        assert json.loads(out)["isovectors"]["basis_kind"] == "nullspace"


def test_out_file_is_indented_dumps(tmp_path, capsys, rendered):
    path = tmp_path / "sweep.json"
    assert main(["analyze", "--model", "profit_cd", "--sweep", "p=1:3:5",
                 "--out", str(path)]) == 0
    _assert_cli_rendered(rendered, path.read_text(encoding="utf-8"))
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


# orjson renders finite, all-ASCII documents in its own float spelling;
# these check that spelling against json.dumps and each case that must fall
# back to json.dumps itself (the "walker" of the test names).

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


def test_boundary_floats_match_indented_dumps():
    for value in BOUNDARIES + [-v for v in BOUNDARIES]:
        _assert_renders_as_dumps(value)
        _assert_renders_as_dumps({"value": value})
    _assert_renders_as_dumps(BOUNDARIES)
    # strings spelled like numbers stay as they are
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
    _assert_falls_back({"matrix": {"labels": ["a"], "rows": json_floats(rows)},
                        "note": None})
    assert walker_calls


@pytest.mark.parametrize("obj", [
    {"café": "ünï ☃", "x": [1e-7]},              # non-ASCII key and value
    {"del": "a\x7fb", "x": [1e16]},                # DEL
    {"x": [0.5, np.float64(1e-7), 2.0]},          # NumPy float element
    {"x": [2 ** 64, 1e16]},                        # int beyond 64 bits
], ids=["non-ascii", "del", "np-float64", "int-2**64"])
def test_fallback_documents_take_walker(obj, walker_calls):
    _assert_falls_back(obj)
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


# A NaN or an infinity is marked where a producer turns numbers into JSON
# data, so that its document is rendered by json.dumps and never as null.

NONFINITE = {"nan": (float("nan"), "NaN"), "inf": (float("inf"), "Infinity"),
             "-inf": (-float("inf"), "-Infinity")}


def _detail(value):
    return check_dict(CheckReport("c", "pass", 0.0, 1e-8, "claim", {"d": value}))


# report parts that each hold a value v once, by producer
PRODUCERS = {
    "labeled_matrix": lambda v: labeled_matrix(np.array([[1.0, v], [2.0, 3.0]]),
                                               ["x1", "x2"], ["a1", "a2"]),
    "solution_dict": lambda v: solution_dict(SimpleNamespace(
        a=np.array([1.0]), x=np.array([2.0]), lam=np.array([]), kkt_residual=v,
        iterations=3, converged=True, source="newton", newton_discrepancy=None)),
    "csm_dict": lambda v: csm_dict(SimpleNamespace(
        recipe="omega_eq7", sign_convention="positive", matrix=np.eye(2),
        labels=("d1", "d2"), eigenvalues=np.array([1.0, v]), symmetry_residual=0.0,
        rank_estimate=2, rank_tol=1e-10, symmetry_tol=1e-8, transform_kind=None,
        note=None)),
    "check_dict": lambda v: check_dict(CheckReport("c", "fail", v, 1e-8, "claim")),
    "detail float": _detail,
    "detail ndarray": lambda v: _detail(np.array([1.0, v])),
    "detail list": lambda v: _detail([1.0, v]),
}


@pytest.mark.parametrize("name", NONFINITE)
@pytest.mark.parametrize("producer", PRODUCERS)
def test_nonfinite_value_renders_as_dumps_at_each_producer(producer, name):
    value, spelling = NONFINITE[name]
    part = PRODUCERS[producer](value)
    _assert_falls_back(part)
    _assert_falls_back({"report": [part]})
    assert re.findall(r"-?\b[A-Za-z]+\b", encode_json(part)).count(spelling) == 1


def test_nonfinite_verify_all_rows_render_as_dumps(monkeypatch, capsys):
    residuals = [value for value, _ in NONFINITE.values()]
    entry = SimpleNamespace(has_analytic=False, run_suite=lambda pipeline: [
        CheckReport(f"c{i}", "fail", value, 1e-8, "claim")
        for i, value in enumerate(residuals)])
    monkeypatch.setattr(cli, "benchmark_names", lambda: ["nonfinite"])
    monkeypatch.setattr(cli, "get_benchmark", lambda name: entry)
    assert main(["verify-all", "--format", "json"]) == 1
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert out == json.dumps(rows, indent=2) + "\n"
    assert np.array_equal([row["residual"] for row in rows], residuals, equal_nan=True)


@pytest.mark.filterwarnings("ignore")    # overflow at parameters near 1e308
def test_nonfinite_sweep_report_renders_as_dumps(capsys, rendered):
    main(["analyze", "--model", "slutsky_hicks", "--method", "fd",
          "--sweep", "p1=1e307:1e308:3"])
    out = capsys.readouterr().out
    nonfinite = [(obj, text) for obj, _, text in rendered if "NaN" in text]
    assert nonfinite
    for obj, text in nonfinite:
        assert text == json.dumps(obj, indent=2).replace("\n", "\n    ")
    _assert_cli_rendered(rendered, out)
