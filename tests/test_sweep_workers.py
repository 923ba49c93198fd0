"""Multi-point `analyze` in forked workers: the same output, exit code,
stderr, exceptions and warnings as a serial run, and no child left behind.

The number of workers follows `os.sched_getaffinity(0)`, which the tests
replace to choose how many chunks a sweep splits into."""

import os
import re
import threading
import warnings

import pytest

from compstat import cli
from compstat.errors import DomainError, EvaluationError, NonConvergenceError

_TIMINGS = re.compile(r'"timings": \{[^}]*\}')


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` made; asserts at teardown that
    every one of them was reaped."""
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def run(argv, capsys, tmp_path=None):
    """Exit code, stdout, stderr and `--out` text of one `main` call."""
    out = None
    if tmp_path is not None:
        out = tmp_path / "report.txt"
        out.unlink(missing_ok=True)
        argv = argv + ["--out", str(out)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    text = out.read_text() if out is not None else None
    return code, _TIMINGS.sub("", captured.out), captured.err, text and _TIMINGS.sub("", text)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("to_file", [False, True])
def test_forked_sweep_equals_one_worker(fmt, to_file, monkeypatch, capsys, tmp_path,
                                        forks):
    argv = ["analyze", "--model", "slutsky_hicks", "--sweep", "m=0.5:2:5", "--format", fmt]
    where = tmp_path if to_file else None
    cpus(monkeypatch, 1)
    serial = run(argv, capsys, where)
    assert forks == []
    cpus(monkeypatch, 3)
    assert run(argv, capsys, where) == serial
    assert len(forks) == 2
    assert serial[0] == 0 and (serial[3] if to_file else serial[1])


@pytest.mark.parametrize("model, sweep, code", [
    ("profit_cd", "p=3:-1:6", 2),                   # points 4 and 5 do not converge
    ("cost_constrained_profit", "w1=1:-2:5", 1),    # points 2 to 4 fail a check
])
def test_failure_in_second_chunk_sets_the_serial_exit_code(model, sweep, code, monkeypatch,
                                                           capsys, forks):
    argv = ["analyze", "--model", model, "--sweep", sweep, "--format", "table"]
    cpus(monkeypatch, 1)
    with warnings.catch_warnings(record=True) as serial_warnings:
        warnings.simplefilter("always")
        serial = run(argv, capsys)
    cpus(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as forked_warnings:
        warnings.simplefilter("always")
        assert run(argv, capsys) == serial
    assert serial[0] == code
    assert len(forks) == 1
    assert ([(w.category, str(w.message), w.filename, w.lineno) for w in forked_warnings]
            == [(w.category, str(w.message), w.filename, w.lineno) for w in serial_warnings])


def test_compstat_error_in_a_child_is_raised_again(monkeypatch, capsys, forks):
    cfg = cli.config_from_mapping({"model": "efficient_portfolio", "sweep": "s2_2=1:-2:5"})
    cpus(monkeypatch, 1)
    with pytest.raises(DomainError) as serial:
        cli.cmd_analyze(cfg)
    cpus(monkeypatch, 2)                # points 2 to 4, which raise, run in the child
    with pytest.raises(DomainError) as forked:
        cli.cmd_analyze(cfg)
    assert str(forked.value) == str(serial.value)
    assert len(forks) == 1
    argv = ["analyze", "--model", "efficient_portfolio", "--sweep", "s2_2=1:-2:5"]
    code, out, err, _ = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the closed form needs positive mix variances; got [")


def failing_points(monkeypatch, raising):
    """Make `run_point` raise `raising[i]` at sweep point i, where given."""
    real = cli.run_point
    points = {}

    def run_point(entry, a, cfg):
        index = points.setdefault(tuple(a), len(points))
        if index in raising:
            raise raising[index]
        return real(entry, a, cfg)

    cfg = cli.config_from_mapping({"model": "profit_cd", "sweep": "p=1:3:6"})
    for index, a in enumerate(cli.resolve_points(cli._load_entry("profit_cd"), cfg)):
        points[tuple(a)] = index
    monkeypatch.setattr(cli, "run_point", run_point)
    return cfg


def test_lowest_index_error_is_raised(monkeypatch, forks):
    cpus(monkeypatch, 3)                # chunks: points 0-1, 2-3, 4-5
    cfg = failing_points(monkeypatch, {3: NonConvergenceError("point 3"),
                                       4: EvaluationError("point 4")})
    with pytest.raises(NonConvergenceError, match="^point 3$"):
        cli.cmd_analyze(cfg)
    assert len(forks) == 2


def test_error_in_first_chunk_reaps_running_children(monkeypatch, forks):
    cpus(monkeypatch, 2)
    cfg = failing_points(monkeypatch, {0: KeyboardInterrupt()})
    with pytest.raises(KeyboardInterrupt):
        cli.cmd_analyze(cfg)
    assert len(forks) == 1


def test_child_without_a_result_has_its_chunk_run_here(monkeypatch, forks):
    class Unpicklable(Exception):       # a local class: the child cannot pickle it
        pass

    cpus(monkeypatch, 2)
    cfg = failing_points(monkeypatch, {4: Unpicklable("point 4")})
    with pytest.raises(Unpicklable, match="^point 4$"):
        cli.cmd_analyze(cfg)
    assert len(forks) == 1


def test_chunks_whose_child_cannot_start_run_here(monkeypatch, capsys, forks):
    argv = ["analyze", "--model", "slutsky_hicks", "--sweep", "m=0.5:2:5"]
    cpus(monkeypatch, 1)
    serial = run(argv, capsys)
    real_fork = os.fork
    started = []

    def fork_once():                    # the second fork finds no free process
        if started:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        started.append(True)
        return real_fork()

    cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork_once)
    assert run(argv, capsys) == serial
    assert started == [True]


def test_child_warnings_are_shown_once_in_point_order(monkeypatch, capsys, forks):
    real = cli.run_point

    def run_point(entry, a, cfg):
        warnings.warn("no interior optimum at a negative price", RuntimeWarning)
        return real(entry, a, cfg)

    monkeypatch.setattr(cli, "run_point", run_point)
    argv = ["analyze", "--model", "profit_cd", "--sweep", "p=-1:-3:4", "--format", "table"]
    shown = {}
    for count in (1, 2, 4):
        cpus(monkeypatch, count)
        # every point warns at the same line; the default action shows it once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert run(argv, capsys)[0] == 2
        shown[count] = [(w.category, str(w.message), w.lineno) for w in caught]
    assert len(shown[1]) == 1
    assert shown[2] == shown[4] == shown[1]
    assert len(forks) == 1 + 3


def test_single_point_never_forks(monkeypatch, capsys):
    def fork():
        raise AssertionError("a single point must not fork")

    cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", fork)
    assert run(["analyze", "--model", "profit_cd"], capsys)[0] == 0
    assert run(["analyze", "--model", "profit_cd", "--sweep", "p=1:2:1"], capsys)[0] == 0


def test_no_fork_while_other_threads_run(monkeypatch, capsys, forks):
    cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        code = run(["analyze", "--model", "profit_cd", "--sweep", "p=1:2:3"], capsys)[0]
    finally:
        release.set()
        thread.join(timeout=30)
    assert code == 0 and forks == []
    assert not thread.is_alive()


def test_chunks_are_contiguous_and_balanced(monkeypatch):
    cpus(monkeypatch, 3)
    assert cli._chunks(list(range(7))) == [[0, 1], [2, 3], [4, 5, 6]]
    assert cli._chunks([0, 1]) == [[0], [1]]
    cpus(monkeypatch, 1)
    assert cli._chunks(list(range(7))) == [list(range(7))]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["analyze", "--model", "slutsky_hicks", "--format", "table"]
    assert cli.main(argv + ["--at", "m=3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(argv + ["--at", "p=2,2"]) == 0
    second = capsys.readouterr().out
    assert "a=[1.0, 1.0, 3.0]" in first
    assert "a=[2.0, 2.0, 1.0]" in second
