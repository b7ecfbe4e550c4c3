"""Contract of the verify grid, and the memory of a sweep that streams it.

`cli.verify_tasks` returns a `cli.Grid` of reports, not a list of tasks.
Over argv drawn for every suite (padic and seki with fixtures that lack
entries or are missing, several --n-values, usage errors and caps), a
grid's `len()` is its number of reports, each a `VerificationReport`, so
no suite builds a (callable, kwargs) task; and every usage error and cap
raises from `verify_tasks` itself, before any check runs, so the CLI exits
2 or 3 with nothing printed.  Two literal grids pin the inputs of main's
and padic's reports, in order.  Each pass over a grid runs its sweep
once, over the grid's axes.  Under the default caps the first reports
come with a traced peak of a few megabytes; a list of the grid's million
tasks took about 300 MB before the first one.
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

from zetaflat import cli
from zetaflat.errors import CapExceededError
from zetaflat.finite_padic import PADIC_FIXTURES, SEKI_FIXTURES
from zetaflat.reports import VerificationReport


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


def inputs_of(grid):
    return [(r.check_id, r.inputs) for r in grid]


def test_main_grid_is_pinned():
    grid = grid_of(["main", "--max-weight", "2", "--max-upper", "2",
                    "--method", "enum"])
    assert len(grid) == 6 and inputs_of(grid) == [
        ("main", {"k": k, "N": n}) for k in ("1", "1,1", "2") for n in "12"]


def test_padic_grid_is_pinned(fixture_dirs):
    with mock.patch.dict(os.environ, ZETAFLAT_FIXTURES_DIR=fixture_dirs["partial"]):
        grid = grid_of(["padic", "--max-weight", "2", "--primes", "2..7",
                        "--n-values", "2,1"])

    def run(k, n, primes):
        return [("padic-duality", {"k": k, "p": p, "n": n}) for p in primes]

    missing = [("padic-duality", {"k": k, "n": "2"}) for k in ("1,1", "2")]
    assert len(grid) == 13 and inputs_of(grid) == [
        *run("1", "1", "357"), *run("1", "2", "57"),
        *run("1,1", "1", "357"), missing[0], *run("2", "1", "357"), missing[1]]


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
        reports = list(grid)
        assert len(grid) == len(reports)
        assert all(type(r) is VerificationReport for r in reports)
        if len(grid) <= 60:  # the CLI prints the same reports
            code, out, err = run_cli(argv)
            good = sum(r.passed for r in reports)
            summary = f"{'PASS' if good == len(reports) else 'FAIL'} {good}/{len(reports)}"
            assert code == (2 if not reports else 0 if good == len(reports) else 1)
            assert out == "".join(f"{r.line()}\n" for r in reports) + (
                f"{summary}\n" if reports else ""), (argv, err)


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
def test_a_sweep_builds_its_grid_at_most_three_times(argv, monkeypatch):
    """Each pass over a grid builds it once: one call of the suite's sweep
    over the grid's axes (transport and log2 call their check per
    instance); two passes give equal reports, as many as `len()` says."""
    sweep = SWEEPS.get(argv[0])
    calls = []
    if sweep:
        real = getattr(cli, sweep)
        monkeypatch.setattr(cli, sweep, lambda *args: calls.append(args) or real(*args))
    grid = grid_of(argv)
    first = [key(r) for r in grid]
    assert len(first) == len(grid) and all(r["pass"] for r in first)
    assert [key(r) for r in grid] == first
    assert len(calls) == (2 if sweep else 0)


SWEEPS = {"main": "main_sweep", "telescope": "telescope_sweep",
          "hoffman-identity": "hoffman_identity_sweep", "padic": "residue_sweep",
          "seki": "residue_sweep", "duality-a": "residue_sweep",
          "duality-r": "duality_columns"}


def key(report):
    out = report.to_json_dict()
    del out["elapsed_ms"]
    return out


def test_default_caps_stream_their_first_reports():
    """The first 50 reports of `verify main` at the default caps (weight 8,
    fences to 4096: 1,044,480 checks), and nothing further."""
    tracemalloc.start()
    try:
        grid = grid_of(["main", "--max-weight", "8", "--max-upper", "4096"])
        sweep = iter(grid)
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
