import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import zetaflat
from zetaflat import cli, finite_padic, mzv_real
from zetaflat.cli import entry, parse_exponents, parse_range, parse_side
from zetaflat.finite_padic import (
    PADIC_FIXTURES,
    SEKI_FIXTURES,
    load_thresholds,
    primes_in,
    save_thresholds,
)
from zetaflat.index_algebra import (
    Index,
    dual,
    format_index,
    indices_up_to_weight,
)
from zetaflat.mzv_real import (
    log2_discretization_check,
    main_identity_check,
    zeta_trunc,
)
from zetaflat.reports import decimal_str


# `python -m zetaflat.cli` in a child process imports the tree under test.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(zetaflat.__file__)),
                  os.environ.get("PYTHONPATH")])))


def run_cli(argv, capsys):
    code = entry(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_examples(capsys):
    code, out, _ = run_cli(["eval", "zeta", "--index", "2", "--upper", "4"],
                           capsys)
    assert code == 0 and out == "49/36\n"
    code, out, _ = run_cli(
        ["eval", "connector", "--N", "5", "--n", "2", "--m", "3"], capsys)
    assert code == 0 and out == "3/10\n"
    code, out, _ = run_cli(["eval", "zeta", "--index", "1,2", "--upper", "1"],
                           capsys)
    assert code == 0 and out == "0/1\n"


def test_eval_variants(capsys):
    cases = [
        (["eval", "zeta-star", "--index", "1,1", "--upper", "3"], "7/4"),
        (["eval", "zeta-flat", "--index", "1", "--upper", "2"], "1/1"),
        (["eval", "zeta-flat", "--index", "2", "--upper", "3"], "5/4"),
        (["eval", "riemann", "--index", "2", "--upper", "3"], "1/4"),
        (["eval", "Z", "--N", "3", "--left", "2,1", "--right", "-"], "11/12"),
        (["eval", "Z", "--N", "3", "--left", "-", "--right", "1,2"], "5/12"),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == expected + "\n"


def test_eval_enum_method_and_decimal(capsys):
    base = ["eval", "zeta", "--index", "1,2", "--upper", "6"]
    _, dp_out, _ = run_cli(base, capsys)
    _, enum_out, _ = run_cli(base + ["--method", "enum"], capsys)
    assert dp_out == enum_out
    code, out, _ = run_cli(base + ["--decimal", "4"], capsys)
    assert code == 0
    frac, dec = out.split()
    assert frac == dp_out.strip()
    assert len(dec.split(".")[1]) == 4


def test_eval_rejects_bad_input(capsys):
    code, _, err = run_cli(["eval", "zeta", "--index", "2,x", "--upper", "4"],
                           capsys)
    assert code == 2 and "error" in err
    code, _, err = run_cli(["eval", "riemann", "--index", "2,1",
                            "--upper", "5"], capsys)
    assert code == 2 and "admissible" in err
    code, _, err = run_cli(["eval", "Z", "--N", "3", "--left", "-",
                            "--right", "-"], capsys)
    assert code == 2


def test_cap_exit_codes(capsys):
    cases = [
        ["eval", "zeta", "--index", "2", "--upper", "5000"],
        ["eval", "zeta", "--index", "3,3,3", "--upper", "4"],
        ["verify", "duality-a", "--primes", "3..211", "--max-weight", "2"],
        ["verify", "padic", "--n-values", "4", "--max-weight", "1"],
        ["verify", "duality-r", "--powers", "4..13"],
        ["trace", "--index", "4,4,1", "--N", "5"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert "cap exceeded" in err


def test_cap_override(capsys):
    code, out, _ = run_cli(["eval", "zeta", "--index", "3,3,3", "--upper", "4",
                            "--cap-weight", "9"], capsys)
    assert code == 0 and out.endswith("\n")


def test_trace_text_and_json(capsys):
    code, out, _ = run_cli(["trace", "--index", "2", "--N", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["Z_2(2 | ) = 5/4", "Z_2( | 2) = 5/4"]
    code, out, _ = run_cli(["trace", "--index", "1,2", "--N", "5", "--json"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == "1,2" and doc["N"] == 5 and doc["all_equal"]
    assert len(doc["stages"]) == 3


def test_verify_main_counts(capsys):
    code, out, _ = run_cli(["verify", "main", "--max-weight", "3",
                            "--max-upper", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    indices = [k for k in indices_up_to_weight(3) if k]
    assert lines[-1] == f"PASS {6 * len(indices)}/{6 * len(indices)}"
    assert all(line.startswith("ok  ") for line in lines[:-1])


def test_verify_json_stream(capsys):
    code, out, err = run_cli(["verify", "log2", "--max-upper", "5", "--json"],
                             capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 5
    for row in rows:
        assert set(row) == {"check_id", "inputs", "lhs", "rhs", "pass",
                            "elapsed_ms"}
        assert row["check_id"] == "log2" and row["pass"] is True
    assert err.strip() == "PASS 5/5"


def test_verify_suites_small(capsys):
    suites = [
        ["verify", "transport", "--max-upper", "8"],
        ["verify", "telescope", "--max-weight", "3", "--max-upper", "5"],
        ["verify", "duality-a", "--primes", "3..13", "--max-weight", "3"],
        ["verify", "antipode", "--primes", "3..13", "--max-weight", "3"],
        ["verify", "hoffman-identity", "--max-weight", "3",
         "--max-upper", "8"],
        ["verify", "padic", "--primes", "3..13", "--max-weight", "2",
         "--n-values", "1,2"],
        ["verify", "seki", "--primes", "3..13", "--max-weight", "2",
         "--n-values", "2"],
    ]
    for argv in suites:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        assert out.splitlines()[-1].startswith("PASS ")


def test_verify_duality_r_default_indices(capsys):
    code, out, _ = run_cli(["verify", "duality-r", "--powers", "4..6"],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5 and lines[-1] == "PASS 4/4"
    assert "k=2,2" in lines[2]


def test_verify_duality_r_csv(capsys):
    code, out, err = run_cli(["verify", "duality-r", "--index", "3",
                              "--powers", "4..6", "--csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,diff_num,diff_den,diff_decimal"
    assert len(lines) == 4
    fences = []
    for line in lines[1:]:
        upper, num, den, dec = line.split(",")
        fences.append(int(upper))
        assert int(num) > 0 and int(den) > 0
        assert dec.startswith("0.")
    assert fences == [16, 32, 64]
    assert err.strip() == "PASS 1/1"


def test_verify_duality_r_csv_equals_per_fence_sums(capsys):
    """Fences 1..2^11 cross the product-tree cutoff; every row matches a
    difference of two per-fence truncated sums.  The defect is 0 at N = 1
    and 1 at N = 2, where the depth-3 sum is still empty; those rows are
    reported but not held to the decrease, so the check passes."""
    code, out, err = run_cli(["verify", "duality-r", "--index", "1,1,2",
                              "--powers", "0..11", "--csv"], capsys)
    assert code == 0 and err.strip() == "PASS 1/1"
    want = ["N,diff_num,diff_den,diff_decimal"]
    for j in range(12):
        n = 2 ** j
        diff = abs(zeta_trunc((1, 1, 2), n) - zeta_trunc((4,), n))
        want.append(f"{n},{diff.numerator},{diff.denominator},"
                    f"{decimal_str(diff)}")
    assert out.splitlines() == want


def test_verify_duality_r_fails_a_rise_after_the_empty_fences(capsys):
    """(1,3,2) and its dual (2,1,3) both have depth 3.  Past the empty
    fences 1 and 2 the defect still rises from N = 4 to N = 8, a real
    failure of the decrease that the exemption must not hide."""
    for powers in ("0..6", "2..6"):
        code, out, _ = run_cli(["verify", "duality-r", "--index", "1,3,2",
                                "--powers", powers, "--json"], capsys)
        report = json.loads(out)
        assert code == 1 and not report["pass"], powers
        assert report["lhs"].split("; ")[-5:] == [
            "0.004629629630", "0.010599106805", "0.009177720515",
            "0.006020037357", "0.003488859653"]
    code, out, _ = run_cli(["verify", "duality-r", "--index", "1,3,2",
                            "--powers", "3..6", "--json"], capsys)
    assert code == 0 and json.loads(out)["pass"]


def fraction_verdict(k, lo, hi, rows):
    """lhs, rhs and pass of a duality-r report, computed as they were
    before the integer verdicts: from `duality_convergence`'s Fraction
    rows, ordered with a set and rendered by decimal_str."""
    diffs = [r.diff for r in rows]
    decs = [r.decimal for r in rows]
    empty = sum(r.upper <= max(k.depth, dual(k).depth) for r in rows)
    held = diffs[empty:]
    passed, want = True, decs
    if any(diffs):
        passed = all(b < a for a, b in zip(held, held[1:]))
        want = decs[:empty] + [decimal_str(d)
                               for d in sorted(set(held), reverse=True)]
    lhs, rhs = "; ".join(decs), "; ".join(want)
    return lhs, rhs, passed and lhs == rhs


@pytest.mark.parametrize("k, lo, hi, change, passed", [
    ((2, 2), 0, 11, None, True),  # self-dual: every defect is 0
    ((1, 1, 2), 0, 12, None, True),  # 1 and 2 lie at or below the depth
    ((1, 2), 4, 9, "tie", False),
    ((3,), 3, 12, "rise", False),
    ((1, 3, 2), 0, 12, None, False),
])
def test_integer_verdicts_equal_fraction_verdicts(k, lo, hi, change, passed,
                                                  monkeypatch):
    """The report built from integer defects over their scales has the
    lhs, rhs and verdict of the one built from Fraction rows.  A tie or a
    rise is forced at the fifth fence by changing k's column there, to
    the defect at the fourth fence or twice it."""
    k = Index(k)

    def column(index, fences):
        values, scales = mzv_real.scaled_column(index, fences)
        if change and index == k:
            theirs, _ = mzv_real.scaled_column(dual(k), fences)
            before = abs(values[3] - theirs[3]) * (scales[4] // scales[3])
            values = values[:4] + [theirs[4] + before * (
                1 if change == "tie" else 2)] + values[5:]
        return values, scales

    report = cli._duality_r_report(k, lo, hi, column=column)
    monkeypatch.setattr(mzv_real, "zeta_trunc_column", lambda index, uppers, _:
                        [Fraction(*pair) for pair in zip(*column(index, uppers))])
    rows = mzv_real.duality_convergence(k, [2 ** j for j in range(lo, hi + 1)])
    assert (report.lhs, report.rhs, report.passed) \
        == fraction_verdict(k, lo, hi, rows)
    assert report.passed == passed


def output_digest(out):
    """sha256 prefix of a CLI's stdout, each JSON report without its
    elapsed_ms."""
    lines = []
    for line in out.splitlines():
        if line.startswith("{"):
            report = json.loads(line)
            del report["elapsed_ms"]
            line = json.dumps(report, sort_keys=True)
        lines.append(line)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# Digests of the output as it was before the duality-r sweep shared
# columns, when each task built a product tree for each side; `trees` is
# the number of trees the sweep builds now (8, 2, 2, 2, 4, 0 before).
@pytest.mark.parametrize("argv, code, trees, digest", [
    (["--json"], 0, [(3,), (1, 2), (2, 2), (1, 1, 2), (4,)],
     "88631ab1b3751ed2"),
    (["--index", "3", "--csv"], 0, [(3,), (1, 2)], "8308330e537d0218"),
    (["--index", "1,1,2", "--powers", "9..12", "--json"], 0,
     [(1, 1, 2), (4,)], "c3085ac78534beca"),
    (["--index", "1,3,2", "--powers", "0..12", "--json"], 1,
     [(1, 3, 2), (2, 1, 3)], "47d63a7d928be7c1"),
    (["--index", "2,2", "--index", "2,2", "--powers", "9..11", "--json"], 0,
     [(2, 2)], "fd8b10d83400c166"),
    (["--powers", "0..3", "--json"], 0, [], "0a31eceb53c88609"),
])
def test_verify_duality_r_builds_each_column_once(argv, code, trees, digest,
                                                  monkeypatch, capsys):
    """(3) and (1,2) are duals of each other and (2,2) is self-dual, so
    the default grid's four indices read five distinct columns, and a
    repeated index reads its columns again; the sweep builds one product
    tree per distinct column and prints the same reports, verdicts and
    exit codes.  A second run builds its trees again: no table outlives
    the sweep."""
    calls = []
    real = mzv_real.harmonic_tree
    monkeypatch.setattr(mzv_real, "harmonic_tree", lambda exps, *rest:
                        calls.append(tuple(exps)) or real(exps, *rest))
    for _ in range(2 if argv == ["--json"] else 1):
        calls.clear()
        got, out, _ = run_cli(["verify", "duality-r", *argv], capsys)
        assert (got, calls, output_digest(out)) == (code, trees, digest)


# One small run of each suite, and more: `main` on the enumeration oracle,
# `duality-r` on the product tree (9..11, and 4..10, pinned while the
# dynamic program still served it), a `padic` grid past the pinned
# thresholds (its missing entries fail) and a run under `--jobs 2`.  The
# digests are those of the package before its three trie walks became
# `chainsum.trie_walk`, so a refactor that changes any report, verdict or
# exit code fails here.
PINNED_RUNS = [
    (["main", "--max-weight", "3", "--max-upper", "6"], 0, "4ba07ea5ff456959"),
    (["main", "--max-weight", "3", "--max-upper", "6", "--method", "enum"], 0,
     "4ba07ea5ff456959"),
    (["transport", "--max-upper", "6"], 0, "a0a29f84ba9de407"),
    (["telescope", "--max-weight", "3", "--max-upper", "6"], 0,
     "07b01226c3262d6d"),
    (["duality-r", "--powers", "3..6"], 0, "f2737f52ea1c5843"),
    (["duality-r", "--powers", "9..11"], 0, "f68507407a88f4e5"),
    (["duality-r", "--powers", "4..10"], 0, "ef2603b825dad6fe"),
    (["duality-a", "--max-weight", "3", "--primes", "3..13"], 0,
     "4a6f10365bea24bc"),
    (["antipode", "--max-weight", "3", "--primes", "3..13"], 0,
     "46e021a576764df0"),
    (["hoffman-identity", "--max-weight", "3", "--max-upper", "6"], 0,
     "8ce7f38681e0feef"),
    (["padic", "--max-weight", "3", "--primes", "3..13"], 0, "e9286a8d70d67a7a"),
    (["seki", "--max-weight", "3", "--primes", "3..13"], 0, "888760a3281d8f3a"),
    (["log2", "--max-upper", "10"], 0, "3250a7eec8f055fa"),
    (["padic", "--max-weight", "6", "--primes", "3..7", "--n-values", "2"], 1,
     "6a9b446c86ef622e"),
    (["main", "--max-weight", "4", "--max-upper", "8", "--jobs", "2"], 0,
     "75bddc3821218d34"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_RUNS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_RUNS])
def test_pinned_report_digests(argv, code, digest, capsys):
    """The --json reports (without elapsed_ms), the summary line and the
    exit code of each run are those pinned."""
    got, out, err = run_cli(["verify", *argv, "--json"], capsys)
    assert (got, output_digest(out + err)) == (code, digest)


# Budgets that cut the pinned weight-3 runs of main (756 bits uncut) and
# telescope (3087 bits) into one run, two runs (the last index alone) and
# one run per index.
@pytest.mark.parametrize("suite, budget, runs", [
    ("main", mzv_real.FLAT_TABLE_BITS, 1), ("main", 700, 2), ("main", 0, 7),
    ("telescope", mzv_real.FLAT_TABLE_BITS, 1), ("telescope", 3000, 2),
    ("telescope", 0, 7),
])
def test_pinned_digests_under_budget_cuts(suite, budget, runs, monkeypatch,
                                          capsys):
    """However `budget_runs` cuts a sweep, its reports, summary line and
    exit code are the pinned ones."""
    argv, code, digest = next(run for run in PINNED_RUNS if run[0] == [
        suite, "--max-weight", "3", "--max-upper", "6"])
    monkeypatch.setattr(mzv_real, "FLAT_TABLE_BITS", budget)
    args = cli.build_parser().parse_args(["verify", *argv])
    tasks = cli.verify_tasks(args, cli.caps_of(args))
    assert len(list(mzv_real.budget_runs(tasks, suite))) == runs
    got, out, err = run_cli(["verify", *argv, "--json"], capsys)
    assert (got, output_digest(out + err)) == (code, digest)


def test_duality_convergence_keeps_no_columns(monkeypatch):
    """A library call computes both of its columns on every call."""
    calls = []
    real = mzv_real.harmonic_tree
    monkeypatch.setattr(mzv_real, "harmonic_tree",
                        lambda *args: calls.append(args) or real(*args))
    fences = [16, 2048]
    first = mzv_real.duality_convergence((1, 2), fences)
    assert mzv_real.duality_convergence((1, 2), fences) == first
    assert mzv_real.duality_convergence((3,), fences) == first
    assert len(calls) == 6


@pytest.mark.parametrize("powers", ["0..1", "1..2", "12..12"])
def test_verify_duality_r_needs_two_ranked_fences(powers, capsys):
    """No convergence index has two fences above its depth (or its dual's)
    in these ranges, so there is no decrease to check."""
    code, out, err = run_cli(["verify", "duality-r", "--powers", powers],
                             capsys)
    assert code == 2 and out == "", powers
    assert err.startswith("error: --powers ") and "index 3," in err, err
    assert "PASS" not in out + err


def test_verify_duality_r_rejects_non_admissible_index_before_reports(capsys):
    code, out, err = run_cli(["verify", "duality-r", "--index", "3",
                              "--index", "2,1", "--powers", "3..5"], capsys)
    assert code == 2 and out == ""
    assert err == "error: index (2, 1) is not admissible\n"


def test_verify_main_methods_agree(capsys):
    """The table walk behind --method dp and the enumeration behind
    --method enum give the same report stream."""
    base = ["verify", "main", "--max-weight", "4", "--max-upper", "9", "--json"]
    streams = []
    for method in ("dp", "enum"):
        code, out, err = run_cli(base + ["--method", method], capsys)
        assert code == 0 and err == "PASS 135/135\n"
        streams.append([{key: row[key] for key in ("check_id", "inputs", "lhs",
                                                   "rhs", "pass")}
                        for row in map(json.loads, out.splitlines())])
    assert streams[0] == streams[1]
    assert len(streams[0]) == 135


def test_verify_method_enum_only_for_main(capsys):
    for suite in cli.VERIFY_SUITES:
        if suite == "main":
            continue
        code, out, err = run_cli(["verify", suite, "--max-weight", "2",
                                  "--max-upper", "3", "--method", "enum"],
                                 capsys)
        assert code == 2 and out == "", suite
        assert err == "error: --method enum applies only to suite main\n"


def test_verify_builds_one_prime_list_per_grid(monkeypatch):
    calls = []

    def counted(lo, hi):
        calls.append((lo, hi))
        return primes_in(lo, hi)

    monkeypatch.setattr(cli, "primes_in", counted)
    for argv in (["padic", "--max-weight", "4", "--primes", "5..199"],
                 ["seki", "--max-weight", "3", "--primes", "2..60",
                  "--n-values", "1,2,3"],
                 ["duality-a", "--max-weight", "3", "--primes", "2..40"],
                 ["antipode", "--max-weight", "3", "--primes", "7..40"]):
        args = cli.build_parser().parse_args(["verify"] + argv)
        calls.clear()
        tasks = cli.verify_tasks(args, cli.caps_of(args))
        assert len(calls) == 1, argv
        # the grid is what a prime list per pinned floor gives
        lo, hi = parse_range(args.primes)
        fixtures = load_thresholds(PADIC_FIXTURES if argv[0] == "padic"
                                   else SEKI_FIXTURES)
        want = []
        for k in indices_up_to_weight(args.max_weight):
            for n in (parse_exponents(args.n_values)
                      if argv[0] in ("padic", "seki") else [None]):
                floor = max(lo, 3 if n in (1, None) else fixtures[(k, n)])
                want += [(k, p, n) for p in primes_in(floor, hi)]
        assert [(kw["k"], kw["p"], kw.get("n")) for _, kw in tasks] == want


def test_every_public_name_resolves():
    for name in zetaflat.__all__:
        assert getattr(zetaflat, name) is not None, name


def test_verify_csv_needs_single_index(capsys):
    code, _, err = run_cli(["verify", "duality-r", "--csv"], capsys)
    assert code == 2 and "--csv" in err
    code, _, _ = run_cli(["verify", "duality-r", "--index", "3", "--index",
                          "1,2", "--powers", "4..5", "--csv"], capsys)
    assert code == 2
    code, _, _ = run_cli(["verify", "main", "--max-weight", "2",
                          "--max-upper", "3", "--csv"], capsys)
    assert code == 2


def without_elapsed(out):
    """`--json` output with each elapsed_ms value cut out, bytes kept."""
    return re.sub(r'"elapsed_ms": [^,}]*', '"elapsed_ms": ', out)


def test_verify_jobs_matches_sequential(capsys):
    # --jobs is accepted and checked, and every sweep runs in one process:
    # each argv prints byte for byte as without it (--json, without the
    # times).
    for argv, jobs in [
            (["verify", "telescope", "--max-weight", "3", "--max-upper", "4"], "3"),
            (["verify", "telescope", "--max-weight", "3", "--max-upper", "4",
              "--json"], "2"),
            (["verify", "padic", "--max-weight", "6", "--primes", "3..7",
              "--n-values", "2", "--json"], "2"),
            (["verify", "main", "--max-weight", "5", "--max-upper", "15"], "2"),
            (["verify", "main", "--max-weight", "5", "--max-upper", "15"], "3"),
            (["verify", "main", "--max-weight", "4", "--max-upper", "9",
              "--method", "enum"], "2"),
            (["verify", "hoffman-identity", "--max-weight", "4",
              "--max-upper", "9"], "2"),
            (["verify", "padic", "--max-weight", "3", "--primes", "3..31",
              "--n-values", "1,2,3"], "2"),
            (["verify", "padic", "--max-weight", "3", "--primes", "3..31",
              "--n-values", "1,2,3"], "3"),
            (["verify", "seki", "--max-weight", "3", "--primes", "3..31",
              "--n-values", "1,3"], "2"),
            (["verify", "duality-a", "--max-weight", "3"], "2"),
            (["verify", "antipode", "--max-weight", "3"], "2"),
            (["verify", "duality-r", "--powers", "4..11"], "2")]:
        _, seq, _ = run_cli(argv, capsys)
        _, par, _ = run_cli(argv + ["--jobs", jobs], capsys)
        assert without_elapsed(seq) == without_elapsed(par)


def test_bad_range_and_unknown_suite(capsys):
    code, _, err = run_cli(["verify", "duality-a", "--primes", "banana",
                            "--max-weight", "2"], capsys)
    assert code == 2 and "range" in err
    with pytest.raises(SystemExit) as exc:
        entry(["verify", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "padic", "--primes", "200..3"],
    ["verify", "main", "--max-upper", "0"],
    ["verify", "duality-r", "--powers", "12..4"],
])
def test_verify_empty_grid_is_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and err.startswith("error: ")
    assert "PASS" not in out + err and "Traceback" not in err


def test_verify_rejects_nonpositive_exponent(capsys):
    for suite in ("padic", "seki"):
        for n in ("0", "-1"):
            code, out, err = run_cli(["verify", suite, "--max-weight", "2",
                                      "--n-values", n], capsys)
            assert code == 2 and err.startswith("error: "), (suite, n)
            assert "PASS" not in out + err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [
    ("--max-weight", "0"), ("--max-weight", "-1"),
    ("--jobs", "0"), ("--jobs", "-1"),
])
def test_verify_nonpositive_counts_name_the_flag(flag, value, capsys):
    for suite in ("main", "padic", "duality-a"):
        code, out, err = run_cli(["verify", suite, "--max-upper", "3",
                                  f"{flag}={value}"], capsys)
        assert code == 2 and out == "", (suite, flag, value)
        assert err == f"error: {flag} must be positive, got {value}\n", \
            (suite, flag, value)


@pytest.mark.parametrize("text", ["1,,2", "abc", "2,x"])
def test_verify_malformed_exponents_name_the_flag(text, capsys):
    for suite in ("padic", "seki"):
        code, out, err = run_cli(["verify", suite, "--max-weight", "2",
                                  "--n-values", text], capsys)
        assert code == 2 and out == "", (suite, text)
        assert err == (f"error: bad --n-values '{text}', expected "
                       f"comma-separated positive integers\n"), (suite, text)


def test_verify_missing_threshold_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZETAFLAT_FIXTURES_DIR", str(tmp_path))
    code, out, err = run_cli(["verify", "seki", "--n-values", "2"], capsys)
    assert code == 2 and err.startswith("error: ")
    assert "seki_thresholds.txt" in err and "PASS" not in out + err


def test_telescope_reports(monkeypatch, capsys):
    """A telescope report ends with its stage count, after elapsed_ms; a
    route whose stages differ anywhere fails with rhs 'stages diverge'; a
    middle stage on a doubled scale is the same value, so its route passes
    with the same report."""
    argv = ["verify", "telescope", "--max-weight", "2", "--max-upper", "3"]
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == 0
    for line in out.splitlines():
        row = json.loads(line)
        assert list(row)[-2:] == ["elapsed_ms", "stages"]
        assert row["stages"] == row["inputs"]["k"].count(",") + 2
    code, plain, _ = run_cli(argv, capsys)
    # The package exports the function connected_sum under the module's name.
    module = sys.modules["zetaflat.connected_sum"]
    real = module.telescope_report

    def doubled(k, upper, stages, started):
        stages = [stages[0], *((2 * a, 2 * s) for a, s in stages[1:-1]),
                  stages[-1]]
        return real(k, upper, stages, started)

    monkeypatch.setattr(module, "telescope_report", doubled)
    assert run_cli(argv, capsys)[:2] == (code, plain) and code == 0

    def diverging(k, upper, stages, started):
        # Stage 1 is the last stage at depth 1 and a middle one at depth 2;
        # it moves by one unit of its own scale.
        stages = list(stages)
        num, den = stages[1]
        stages[1] = num + 1, den
        return real(k, upper, stages, started)

    # telescope_sweep hands each route's stage values to this function.
    monkeypatch.setattr(module, "telescope_report", diverging)
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    *lines, summary = out.splitlines()
    assert summary == "FAIL 0/9" and len(lines) == 9
    for line in lines:
        assert line.startswith("FAIL telescope ")
        assert line.endswith("  rhs=stages diverge")


@pytest.mark.parametrize("suite,name,check_id", [
    ("padic", PADIC_FIXTURES, "padic-duality"),
    ("seki", SEKI_FIXTURES, "seki-lifting")])
def test_partial_fixtures_report_missing_entries(suite, name, check_id,
                                                 tmp_path, monkeypatch, capsys):
    """An (index, n) the fixtures file lacks is one failing report; the
    other checks of the grid still run, each prime walked once, mod p^N
    for N the largest exponent of a check that runs."""
    table = load_thresholds(name)
    dropped = sorted(table)[::3]
    monkeypatch.setenv("ZETAFLAT_FIXTURES_DIR", str(tmp_path))
    save_thresholds(name, {key: p0 for key, p0 in table.items()
                           if key not in dropped})
    walks = []
    real = finite_padic._walk
    monkeypatch.setattr(finite_padic, "_walk", lambda p, n, nodes:
                        walks.append((p, n)) or real(p, n, nodes))
    code, out, _ = run_cli(["verify", suite, "--max-weight", "3",
                            "--primes", "3..23"], capsys)
    assert code == 1
    *lines, summary = out.splitlines()
    want = sorted(f"FAIL {check_id} k={format_index(k)} n={n}  "
                  f"lhs=no pinned threshold  rhs=fixtures record"
                  for k, n in dropped if k.weight <= 3)
    assert want and sorted(l for l in lines if l.startswith("FAIL")) == want
    assert summary == f"FAIL {len(lines) - len(want)}/{len(lines)}"
    pairs = set()
    for line in lines:
        if line.startswith("ok"):
            inputs = dict(t.split("=") for t in line.split()[2:])
            pairs.add((int(inputs["p"]), int(inputs["n"])))
    top = max(n for _, n in pairs)
    assert sorted(walks) == sorted({(p, top) for p, _ in pairs})


def test_verify_prints_each_report_as_it_returns(monkeypatch, capsys):
    def broken(**kwargs):
        raise ValueError("the second check cannot run")

    monkeypatch.setattr(cli, "verify_tasks", lambda args, caps: [
        (log2_discretization_check, {"upper": 3}), (broken, {})])
    code, out, err = run_cli(["verify", "log2"], capsys)
    assert code == 2 and err.startswith("error: ")
    assert out.splitlines() == [log2_discretization_check(upper=3).line()]
    # inside one sweep's run, too
    k = Index((1, 2))
    monkeypatch.setattr(cli, "verify_tasks", lambda args, caps: [
        (main_identity_check, {"k": k, "upper": 4, "method": "dp"}),
        (main_identity_check, {"k": k, "upper": 5, "method": "bogus"})])
    code, out, err = run_cli(["verify", "main"], capsys)
    assert code == 2 and err == "error: unknown evaluation method 'bogus'\n"
    assert out.splitlines() == [main_identity_check(k, 4).line()]


def test_verify_under_jobs_starts_no_process_pool():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from zetaflat.cli import entry; "
         "rc = entry(['verify', 'main', '--max-weight', '2', '--max-upper', "
         "'3', '--jobs', '2']); "
         "print('concurrent.futures' in sys.modules, rc, file=sys.stderr)"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stderr == "False 0\n", proc.stderr
    assert proc.stdout.endswith("PASS 9/9\n")


def test_importing_the_cli_leaves_typing_out():
    # -S keeps site out: a .pth file of the environment may import typing.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, zetaflat.cli; "
         "print('typing' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("hi,fence", [
    ("13", "8192"),
    ("4000000", "2^4000000"),
    ("100000000000", "2^100000000000"),
])
def test_duality_r_fence_cap_before_building_the_fence(hi, fence, capsys):
    code, out, err = run_cli(["verify", "duality-r", f"--powers=0..{hi}"],
                             capsys)
    assert code == 3 and out == ""
    assert err == f"cap exceeded: fence {fence} exceeds cap 4096\n"


def test_closed_stdout_exits_141_without_traceback():
    # The sweep prints far more than a pipe holds, so it is still writing
    # when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "zetaflat.cli", "verify", "main",
         "--max-weight", "5", "--max-upper", "40", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert json.loads(first)["pass"] is True
    assert code == 141 and "Traceback" not in err, err


def test_parse_helpers():
    assert parse_range("3..199") == (3, 199)
    assert parse_range("13") == (13, 13)
    assert parse_side("-") == Index()
    assert parse_side("") == Index()
    assert parse_side("2,1") == Index((2, 1))
    with pytest.raises(ValueError):
        parse_range("a..b")
    assert parse_exponents("3,1,3,2") == [1, 2, 3]


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "zetaflat.cli", "eval", "zeta",
         "--index", "2", "--upper", "4"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout == "49/36\n"


@pytest.mark.parametrize("suite, argv, faulted", [
    ("log2", ["--max-upper", "6"], {"upper": 5}),
    ("hoffman-identity", ["--max-weight", "2", "--max-upper", "4"],
     {"k": "1,1", "N": 3}),
])
@pytest.mark.parametrize("side", [0, 1])
def test_a_side_one_unit_off_fails_its_input(suite, argv, faulted, side,
                                             monkeypatch, capsys):
    """Mutation: one side of one input of log2 or hoffman-identity one unit
    of its scale off, and the suite exits 1 with that input alone failing."""
    module = {"log2": mzv_real, "hoffman-identity": finite_padic}[suite]
    real = module.ratio_report

    def shifted(check_id, inputs, lhs, rhs, started):
        sides = [lhs, rhs]
        if inputs == faulted:
            num, den = sides[side]
            sides[side] = num + 1, den
        return real(check_id, inputs, *sides, started)

    monkeypatch.setattr(module, "ratio_report", shifted)
    code, out, _ = run_cli(["verify", suite, *argv], capsys)
    *lines, summary = out.splitlines()
    named = " ".join(f"{key}={value}" for key, value in faulted.items())
    assert code == 1 and summary == f"FAIL {len(lines) - 1}/{len(lines)}"
    assert [line for line in lines if line.startswith("FAIL")] == [
        line for line in lines if line.startswith(f"FAIL {suite} {named}  ")]


PERFBENCH_CHILD = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "child.py")


@pytest.mark.parametrize("argv", [
    ["main", "--max-weight", "2", "--max-upper", "5"],
    ["telescope", "--max-weight", "2", "--max-upper", "4"],
    ["padic", "--max-weight", "2", "--primes", "3..7", "--n-values", "1,2"],
    ["duality-r", "--powers", "3..5"],
], ids=lambda argv: argv[0])
def test_traced_sweep_passes(argv, tmp_path):
    """A sweep run under the benchmark's tracer passes as a plain one does,
    and its report holds the spans and the two caches the benchmark reads."""
    import marshal

    report = tmp_path / "report"
    proc = subprocess.run(
        [sys.executable, PERFBENCH_CHILD, str(report), "trace", "--",
         "verify", *argv, "--jobs", "1", "--json"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert lines and proc.stderr.splitlines()[-1] == f"PASS {len(lines)}/{len(lines)}"
    with open(report, "rb") as fh:
        data = marshal.load(fh)
    assert data["rc"] == 0 and data["spans"]["names"]
    assert set(data["caches"]) == {"connector", "zeta_residue"}
