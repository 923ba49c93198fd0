"""The streaming report writer emits exactly the text of json.dumps(indent=2)."""

import io
import json

import numpy as np
import pytest

from compstat.benchmarks import benchmark_names
from compstat.cli import main
from compstat.report import write_json

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
    stream = io.StringIO()
    write_json(obj, stream)
    return stream.getvalue()


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
       ["list-models", "--format", "json"]]))
def test_cli_json_is_indented_dumps(argv, capsys):
    main(argv)
    out = capsys.readouterr().out
    assert out == _canonical(out)


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
