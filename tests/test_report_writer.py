"""The report renderer emits the layout of json.dumps(indent=2) with floats
in a shortest round-trip spelling.

Oracle: a rendered text equals `json.dumps(obj, indent=2)` once every number
token in both texts is respelled as `repr(float(token))`, and each number
token of the rendered text parses to the bit-identical float (an int token
stays the same int token).  Strings, keys and layout are compared byte for
byte.  A document that falls back to `json.dumps` (non-finite values,
non-ASCII or DEL characters, ints beyond 64 bits) is byte-equal to
`json.dumps`.  Reports carry float arrays, so `json.dumps` is given a
`default=` that turns a float64 array into its `tolist()` and refuses
anything else.  A float array from `json_floats` renders byte for byte as
the list of its `tolist()`, whatever its shape and memory layout.
`encode_json` returns ASCII bytes: they are compared as bytes, and decoded
as ASCII only for the number-token oracle.
"""

import io
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


def written(obj) -> bytes:
    return encode_json(obj) + b"\n"


def _ascii(data: bytes) -> str:
    """The text of rendered bytes, which must be ASCII."""
    assert type(data) is bytes
    return data.decode("ascii")


def _lists(value):
    """The oracles' `default=` of `json.dumps`: a float64 array as its lists."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not a float64 array")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, default=_lists)


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
    data = encode_json(obj)
    _assert_same_document(_ascii(data), dumps(obj))
    assert encode_json(obj, 2) == data.replace(b"\n", b"\n    ")


def _assert_falls_back(obj):
    expected = dumps(obj).encode("ascii")
    assert written(obj) == expected + b"\n"
    assert encode_json(obj, 2) == expected.replace(b"\n", b"\n    ")


@pytest.mark.parametrize("obj", [EDGE, [EDGE, [EDGE]], 1.0, json_floats(float("nan")),
                                 "x", 7, None, [], {}, [1.0, 2.0], (0.5,)])
def test_writer_matches_indented_dumps(obj):
    _assert_renders_as_dumps(obj)


def test_edge_documents_fall_back_byte_for_byte():
    for obj in (EDGE, [EDGE, [EDGE]], json_floats(float("nan"))):
        _assert_falls_back(obj)


def test_writer_rejects_unsupported_types():
    for obj in ([object()], {(1, 2): 0.0}, {1: 0.0}):
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
        data = encode_json(obj, depth)
        calls.append((obj, depth, data))
        return data

    monkeypatch.setattr(cli, "encode_json", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return calls


def _assert_cli_rendered(calls, out: str):
    assert calls
    for obj, depth, data in calls:
        expected = dumps(obj).replace("\n", "\n" + "  " * depth)
        _assert_same_document(_ascii(data), expected)
        assert data in out.encode("ascii")
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


class _Pieces(io.BytesIO):
    """A binary stream that records each write."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, data):
        self.pieces.append(bytes(data))
        return super().write(data)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_sweep_document_is_written_as_its_report_bytes(monkeypatch):
    # each report goes to the stream's binary buffer as rendered, unjoined;
    # a stream without one gets the same document as text
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = cli.config_from_mapping({"model": "profit_cd", "sweep": "p=1:3:5"})
    reports, code = cli.cmd_analyze(cfg)
    assert code == 0 and len(reports) == 5
    assert all(type(data) is bytes for data in reports)
    raw = _Pieces()
    stream = io.TextIOWrapper(raw, encoding="utf-8")
    cli._emit_analyze(reports, cfg, stream)
    stream.flush()
    assert max(map(len, raw.pieces)) == max(map(len, reports))
    assert [piece for piece in raw.pieces if piece in reports] == reports
    text = io.StringIO()
    cli._emit_analyze(reports, cfg, text)
    assert raw.getvalue() == text.getvalue().encode("ascii")
    assert len(json.loads(text.getvalue())["reports"]) == 5


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
    {"x": [2 ** 64, 1e16]},                        # int beyond 64 bits
], ids=["non-ascii", "del", "int-2**64"])
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
    walked = ("nan", "infinities", "large int", "floats around nan",
              "café ☃ \x00\t\"\\", "strings", "rows")
    doc = {key: value for key, value in EDGE.items() if key not in walked}
    doc["ascii"] = "".join(map(chr, range(0x7f)))    # every escape but DEL
    doc["max int"] = [2 ** 64 - 1, -2 ** 63]
    _assert_renders_as_dumps(doc)
    _assert_renders_as_dumps([doc, [doc]])


@pytest.mark.parametrize("obj, expected", [
    ({"x": [0.5, np.float64(1e-7), 2.0], "y": np.float64(-2.5e-300)},
     {"x": [0.5, 1e-7, 2.0], "y": -2.5e-300}),
    ({"k": np.int64(1), "m": [np.int64(-2 ** 63)]}, {"k": 1, "m": [-2 ** 63]}),
], ids=["np-float64", "np-int64"])
def test_numpy_scalars_render_as_python_numbers(obj, expected, no_walker):
    assert encode_json(obj) == encode_json(expected)


# A float array from json_floats is rendered by orjson from the array itself;
# its text must be the text of the array's tolist(), byte for byte, for every
# shape, memory layout and value.

SHAPES = [(0,), (3, 0), (0, 3), (1,), (), (40, 41), (80, 81)]
SPECIALS = [-0.0, 5e-324, 2.5e-310, -1e-308, 1e-7, 1e16, -1e16]


def _layouts(array: np.ndarray) -> dict:
    """`array` C-ordered, Fortran-ordered, strided and read-only."""
    strided = np.empty(array.shape[:-1] + (2 * array.shape[-1],) if array.ndim else ())
    if array.ndim:
        strided[..., ::2] = array
        strided = strided[..., ::2]
    else:
        strided[()] = array
    readonly = array.copy()
    readonly.flags.writeable = False
    # both functions return at least 1-d arrays
    return {"C": np.ascontiguousarray(array).reshape(array.shape),
            "F": np.asfortranarray(array).reshape(array.shape),
            "strided": strided, "read-only": readonly}


def _filled(shape, seed: int) -> np.ndarray:
    """An array of `shape` holding the special and boundary values, then
    normally distributed values of spread magnitude."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    pool = SPECIALS + BOUNDARIES + [-v for v in BOUNDARIES]
    values = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 17, size)
    values[:min(size, len(pool))] = pool[:size]
    return values.reshape(shape)


def _assert_renders_as_its_lists(array: np.ndarray):
    data = json_floats(array)
    assert encode_json({"r": data}) == encode_json({"r": array.tolist()})
    if array.ndim:
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert not data.flags.writeable and not np.shares_memory(data, array)
    else:
        assert type(data) is float


@pytest.mark.parametrize("layout", ["C", "F", "strided", "read-only"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_json_floats_array_renders_as_its_lists(shape, layout, no_walker):
    _assert_renders_as_its_lists(_layouts(_filled(shape, len(shape)))[layout])


@pytest.mark.parametrize("layout", ["C", "F", "strided", "read-only"])
def test_random_float_arrays_render_as_their_lists(layout, no_walker):
    values = np.array(_random_floats())
    values = values[:values.size // 37 * 37]
    _assert_renders_as_its_lists(_layouts(values)[layout])
    _assert_renders_as_its_lists(_layouts(values.reshape(-1, 37))[layout])


@pytest.mark.parametrize("extra", [{"nan": float("nan")}, {"café": "☃"}, {"big": 2 ** 64}],
                         ids=["nan", "non-ascii", "int-2**64"])
def test_fallback_document_with_arrays_equals_dumps_of_lists(extra, walker_calls):
    array = _filled((40, 41), 5)
    for laid_out in _layouts(array).values():
        doc = {"r": json_floats(laid_out), "v": json_floats(laid_out[0])}
        doc.update({k: json_floats(v) if isinstance(v, float) else v
                    for k, v in extra.items()})
        expected = json.dumps({"r": array.tolist(), "v": array[0].tolist(), **extra},
                              indent=2)
        assert encode_json(doc) == expected.encode("ascii")
    assert walker_calls


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
        rank_estimate=2, rank_tol=1e-10, transform_kind=None,
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
    assert re.findall(rb"-?\b[A-Za-z]+\b", encode_json(part)).count(spelling.encode()) == 1


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
    nonfinite = [(obj, data) for obj, _, data in rendered if b"NaN" in data]
    assert nonfinite
    for obj, data in nonfinite:
        assert data == dumps(obj).replace("\n", "\n    ").encode("ascii")
    _assert_cli_rendered(rendered, out)


# Scalars take an exact-type fast path in json_floats and _jsonable; NumPy
# scalars, float subclasses and arrays keep the isinstance route.  Either
# way the value comes back as the Python type below, with the same bits.

_F = report._NonFiniteFloat
SCALARS = [  # value, json_floats type, _jsonable type
    (0.1, float, float), (-0.0, float, float), (np.float64(-2.5e-300), float, float),
    (3, float, int), (-2 ** 63, float, int), (np.int64(-7), float, int),
    (True, float, bool), (False, float, bool), (np.bool_(True), float, bool),
    (float("nan"), _F, _F), (float("inf"), _F, _F), (-float("inf"), _F, _F),
    (np.float64("nan"), _F, _F), (np.float64("-inf"), _F, _F),
    (_F(float("inf")), _F, _F), (None, type(None), type(None)),
]


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


@pytest.mark.parametrize("value, floats_type, jsonable_type", SCALARS,
                         ids=[repr(value) for value, _, _ in SCALARS])
def test_scalar_fast_paths_keep_types_and_values(value, floats_type, jsonable_type):
    got = json_floats(value)
    assert type(got) is floats_type
    assert _bits(got) == _bits(None if value is None else float(value))
    got = report._jsonable(value)
    assert type(got) is jsonable_type
    convert = {float: float, _F: float, int: int, bool: bool}
    assert _bits(got) == _bits(None if value is None else convert[jsonable_type](value))


@pytest.mark.parametrize("value", ["", "x", "1.5", "ünï"])
def test_jsonable_returns_a_str_as_it_is(value):
    assert report._jsonable(value) is value
