"""Contract of the verify grid, and the memory of a sweep that streams it.

`cli.verify_tasks` returns a `cli.Grid`, not a list.  Over argv drawn for
every suite (padic and seki with fixtures that lack entries or are
missing, several --n-values, usage errors and caps), a grid's `len()`
is its task count, two passes give equal tasks, and every usage error
and cap raises from `verify_tasks` itself, before any task is built, so
the CLI exits 2 or 3 with nothing printed.  Two literal grids pin the
tasks of main and padic, in order.  A sweep of each suite builds its
grid at most three times, and each public sweep takes a one-shot
iterator of tasks as well as a list.  Under the default caps the first reports
come with a traced peak of a few megabytes; a list of the grid's
million tasks took about 300 MB before the first one.
"""

import io
import os
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaflat import cli, mzv_real
from zetaflat.cli import _missing_fixture_report
from zetaflat.connected_sum import telescope_sweep
from zetaflat.errors import CapExceededError
from zetaflat.finite_padic import (
    PADIC_FIXTURES, SEKI_FIXTURES, hoffman_identity_sweep, padic_duality_check,
    residue_sweep)
from zetaflat.mzv_real import duality_sweep, main_identity_check, main_sweep


def grid_of(argv):
    args = cli.build_parser().parse_args(["verify", *argv])
    return cli.verify_tasks(args, cli.caps_of(args))


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    """Fixture directories: with one padic entry only, and with none."""
    partial = tmp_path_factory.mktemp("partial")
    (partial / PADIC_FIXTURES).write_text("1;2;5\n")
    (partial / SEKI_FIXTURES).write_text("2;2;7\n1,1;3;5\n")
    return {"partial": str(partial), "missing": str(tmp_path_factory.mktemp("none"))}


def test_main_grid_is_pinned():
    grid = grid_of(["main", "--max-weight", "2", "--max-upper", "2",
                    "--method", "enum"])
    assert len(grid) == 6 and list(grid) == [
        (main_identity_check, {"k": k, "upper": n, "method": "enum"})
        for k in ((1,), (1, 1), (2,)) for n in (1, 2)]


def test_padic_grid_is_pinned(fixture_dirs):
    with mock.patch.dict(os.environ, ZETAFLAT_FIXTURES_DIR=fixture_dirs["partial"]):
        grid = grid_of(["padic", "--max-weight", "2", "--primes", "2..7",
                        "--n-values", "2,1"])
    check = padic_duality_check
    missing = {"check_id": "padic-duality", "n": 2}
    assert len(grid) == 13 and list(grid) == [
        *[(check, {"k": (1,), "p": p, "n": 1}) for p in (3, 5, 7)],
        *[(check, {"k": (1,), "p": p, "n": 2}) for p in (5, 7)],
        *[(check, {"k": (1, 1), "p": p, "n": 1}) for p in (3, 5, 7)],
        (_missing_fixture_report, {**missing, "k": (1, 1)}),
        *[(check, {"k": (2,), "p": p, "n": 1}) for p in (3, 5, 7)],
        (_missing_fixture_report, {**missing, "k": (2,)})]


@st.composite
def grid_argvs(draw):
    """(argv, fixtures) for any suite: small grids, and now and then a
    value past a cap or out of range."""
    suite = draw(st.sampled_from(cli.VERIFY_SUITES))
    argv = [suite, f"--max-weight={draw(st.integers(-1, 4) | st.just(9))}",
            f"--max-upper={draw(st.integers(-1, 12) | st.just(4097))}"]
    if suite == "duality-r":
        lo = draw(st.integers(-1, 6))
        argv.append(f"--powers={lo}..{draw(st.integers(lo - 1, 13))}")
        for k in draw(st.lists(st.sampled_from(("3", "1,2", "2,2", "1,1,2",
                                                "2,1", "9")), max_size=3)):
            argv.append(f"--index={k}")
    lo = draw(st.integers(0, 30))
    argv.append(f"--primes={lo}..{draw(st.integers(lo - 1, 60) | st.just(211))}")
    exponents = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    argv.append("--n-values=" + ",".join(map(str, exponents)))
    return argv, draw(st.sampled_from((None, "partial", "missing")))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.entry(["verify", *argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(grid_argvs())
def test_grid_contract(fixture_dirs, case):
    argv, fixtures = case
    env = {"ZETAFLAT_FIXTURES_DIR": fixture_dirs[fixtures]} if fixtures else {}
    with mock.patch.dict(os.environ, env):
        try:
            grid = grid_of(argv)
        except (ValueError, CapExceededError, FileNotFoundError):
            code, out, err = run_cli(argv)
            assert code in (2, 3) and out == "" and err, (argv, code)
            return
        tasks = list(grid)
        assert len(grid) == len(tasks) == sum(1 for _ in grid)
        assert list(grid) == tasks
        if len(grid) <= 60:  # the CLI runs it to its end
            code, out, err = run_cli(argv)
            assert code == (2 if not tasks else 0 if "FAIL" not in out else 1), (
                argv, err)


@pytest.mark.parametrize("argv", [
    ["main", "--max-weight", "3", "--max-upper", "6"],
    ["main", "--max-weight", "2", "--max-upper", "4", "--method", "enum"],
    ["telescope", "--max-weight", "3", "--max-upper", "5"],
    ["hoffman-identity", "--max-weight", "3", "--max-upper", "5"],
    ["padic", "--max-weight", "3", "--primes", "3..23"],
    ["seki", "--max-weight", "2", "--primes", "3..11"],
    ["duality-a", "--max-weight", "2", "--primes", "3..11"],
    ["duality-r", "--powers", "3..6"],
    ["transport", "--max-upper", "4"],
    ["log2", "--max-upper", "4"],
], ids=lambda argv: argv[0])
def test_a_sweep_builds_its_grid_at_most_three_times(argv):
    grid = grid_of(argv)
    built = []
    tasks = grid.tasks
    grid.tasks = lambda: (built.append(task) or task for task in tasks())
    assert all(r.passed for r in cli._sweeps(grid))
    assert len(grid) <= len(built) <= 3 * len(grid)


def key(report):
    out = report.to_json_dict()
    del out["elapsed_ms"]
    return out


@pytest.mark.parametrize("sweep,argv", [
    (main_sweep, ["main", "--max-weight", "3", "--max-upper", "6"]),
    (telescope_sweep, ["telescope", "--max-weight", "3", "--max-upper", "4"]),
    (hoffman_identity_sweep, ["hoffman-identity", "--max-weight", "3",
                              "--max-upper", "5"]),
    (residue_sweep, ["padic", "--max-weight", "3", "--primes", "3..23",
                     "--n-values", "1,2"]),
    (duality_sweep, ["duality-r", "--powers", "3..6"]),
], ids=lambda arg: arg[0] if isinstance(arg, list) else None)
def test_a_sweep_takes_an_iterator_of_tasks(monkeypatch, sweep, argv):
    """A sweep handed a one-shot iterator gives the reports it gives for a
    list of the same tasks, main's and telescope's cut into several runs
    by a small budget, so each run's plan meets that run's tasks."""
    monkeypatch.setattr(mzv_real, "FLAT_TABLE_BITS", 300)
    tasks = list(grid_of(argv))
    if sweep in (main_sweep, telescope_sweep):
        assert len(list(mzv_real.budget_runs(tasks, argv[0]))) > 1
    want = [key(r) for r in sweep(tasks)]
    assert len(want) == len(tasks)
    assert [key(r) for r in sweep(iter(tasks))] == want


def test_default_caps_stream_their_first_reports():
    """The first 50 reports of `verify main` at the default caps (weight 8,
    fences to 4096: 1,044,480 checks), and nothing further."""
    tracemalloc.start()
    try:
        grid = grid_of(["main", "--max-weight", "8", "--max-upper", "4096"])
        sweep = cli._sweeps(grid)
        reports = list(islice(sweep, 50))
        sweep.close()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) == 1_044_480
    assert [r.line().split()[2:4] for r in reports] == [
        ["k=1", f"N={n}"] for n in range(1, 51)]
    assert all(r.passed for r in reports)
    assert peak < 32 * 2 ** 20, peak
