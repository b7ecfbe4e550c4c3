"""Property test of the CLI's exit-code contract.

Random argv, built from the parser's flags with small values plus
malformed ranges, index strings and exponent lists, run through
`cli.entry` in-process.  Whatever the input, the exit code is 0, 1, 2 or
3 and no exception escapes; `verify` exits 0 only after a final
`PASS x/x` over x > 0 printed reports, and 1 only after a `FAIL`
summary.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaflat import cli

MAX_WEIGHT = 3
MAX_FENCE = 6
MAX_PRIME = 30
MAX_POWER = 5

MALFORMED_RANGES = ("", "..", "a..b", "3..", "..5", "3...5", "1..2..3", "x",
                    "2.5", "-")
MALFORMED_INDICES = ("", "0", "-1", "2,,1", "a", "1,x", "(2,1)", "2^0", "1^-1",
                     "9", "2;1", ",")
MALFORMED_EXPONENTS = ("", "a", "1,,2", "1.5", "0", "-1", "4", "2;3", ",")


def one_in(n):
    """True about once in n draws (a sampled list, as integer draws favour
    their bounds); it shrinks to False."""
    return st.sampled_from([False] * (n - 1) + [True])


def mostly(good, bad, n=10):
    """`good`, except about once in n draws `bad`."""
    return one_in(n).flatmap(lambda rare: bad if rare else good)


def ranges(top):
    """'LO..HI' with 0 <= LO <= HI <= top, or 'N'; one in four empty,
    negative or junk."""
    bound = st.integers(0, top)
    return mostly(
        st.one_of(
            st.lists(bound, min_size=2, max_size=2).map(
                lambda b: f"{min(b)}..{max(b)}"),
            bound.map(str)),
        st.one_of(
            st.builds(lambda lo, hi: f"{lo}..{hi}",
                      st.integers(-3, top), st.integers(-3, top)),
            st.sampled_from(MALFORMED_RANGES)),
        n=4)


@st.composite
def index_texts(draw):
    """Index text of weight 1..MAX_WEIGHT; rarely empty or junk."""
    if draw(one_in(10)):
        return draw(st.sampled_from(MALFORMED_INDICES))
    parts = [draw(st.integers(1, MAX_WEIGHT))]
    while sum(parts) < MAX_WEIGHT and draw(st.booleans()):
        parts.append(draw(st.integers(1, MAX_WEIGHT - sum(parts))))
    text = ",".join(map(str, parts))
    # also the repetition shorthand: "1^2" is "1,1"
    return text.replace("1,1", "1^2") if draw(st.booleans()) else text


exponent_lists = mostly(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, ns))),
    st.sampled_from(MALFORMED_EXPONENTS))
fences = mostly(st.integers(1, MAX_FENCE), st.integers(-2, 0))
weights = mostly(st.integers(1, MAX_WEIGHT), st.integers(-1, 0))


def opt(flag, value):
    # `--flag=value`, so that a value such as "-3..5" reaches the program
    # instead of being taken for a flag by argparse
    return [f"{flag}={value}"]


@st.composite
def cap_flags(draw):
    flags = []
    for flag, top in (("--cap-weight", MAX_WEIGHT + 1),
                      ("--cap-upper", 2 ** MAX_POWER + 1),
                      ("--cap-prime", MAX_PRIME + 1),
                      ("--cap-exponent", 4)):
        if draw(one_in(10)):
            flags += opt(flag, draw(st.integers(-1, top)))
    return flags


@st.composite
def eval_argv(draw):
    obj = draw(st.sampled_from(("zeta", "zeta-star", "zeta-flat", "riemann",
                                "connector", "Z")))
    argv = ["eval", obj]
    if obj == "connector":
        for flag in ("--N", "--n", "--m"):
            argv += opt(flag, draw(st.integers(-1, MAX_FENCE)))
    elif obj == "Z":
        argv += (opt("--N", draw(fences)) + opt("--left", draw(index_texts()))
                 + opt("--right", draw(index_texts())))
    else:
        argv += opt("--index", draw(index_texts())) + opt("--upper", draw(fences))
        if draw(st.booleans()):
            argv += opt("--method", draw(st.sampled_from(("dp", "enum"))))
    if draw(st.booleans()):
        argv += opt("--decimal", draw(st.integers(-2, 8)))
    return argv + draw(cap_flags())


@st.composite
def verify_argv(draw):
    suite = draw(st.sampled_from(cli.VERIFY_SUITES))
    argv = (["verify", suite]
            + opt("--max-weight", draw(weights))
            + opt("--max-upper", draw(fences))
            + opt("--primes", draw(ranges(MAX_PRIME)))
            + opt("--n-values", draw(exponent_lists))
            + opt("--powers", draw(ranges(MAX_POWER))))
    for _ in range(draw(st.integers(0, 2))):
        argv += opt("--index", draw(index_texts()))
    if draw(st.booleans()):
        argv += opt("--method", draw(st.sampled_from(("dp", "enum"))))
    if draw(st.booleans()):
        argv.append("--json")
    if draw(one_in(2 if suite == "duality-r" else 20)):
        argv.append("--csv")
    return argv + draw(cap_flags())


@st.composite
def trace_argv(draw):
    argv = (["trace"] + opt("--index", draw(index_texts()))
            + opt("--N", draw(fences)))
    if draw(st.booleans()):
        argv.append("--json")
    return argv + draw(cap_flags())


@st.composite
def any_argv(draw):
    command = draw(st.sampled_from(("verify", "verify", "eval", "trace")))
    argv = draw({"verify": verify_argv(), "eval": eval_argv(),
                 "trace": trace_argv()}[command])
    if draw(one_in(20)):
        # an unknown flag, a stray word, or a flag without its value
        argv.append(draw(st.sampled_from(("--bogus", "extra", "--json",
                                          "--max-weight"))))
    return argv


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.entry(argv)
        except SystemExit as e:  # argparse rejects the argv
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(any_argv())
# edges the random draws reach only now and then
# empty fences below the depth, reported but not ranked
@example(["verify", "duality-r", "--powers=0..3", "--json"])
@example(["verify", "duality-r", "--index=1,3,2", "--powers=0..4"])  # a real FAIL
@example(["verify", "duality-r", "--powers=-2..3"])
@example(["verify", "padic", "--max-weight=2", "--primes=a..b"])
@example(["verify", "seki", "--max-weight=2", "--n-values=1,,2"])
@example(["verify", "antipode", "--max-weight=2", "--primes=3..2"])
@example(["verify", "main", "--max-upper=0"])
@example(["verify", "main", "--max-weight=2", "--max-upper=3", "--jobs=0"])
@example(["verify", "hoffman-identity", "--max-weight=2", "--jobs=-1"])
@example(["verify", "padic", "--max-weight=2", "--primes=3..11", "--jobs=2"])
@example(["verify", "seki", "--max-weight=2", "--n-values=1,2", "--jobs=2"])
# duality-r fences on both sides of the product-tree cutoff
@example(["verify", "duality-r", "--powers=0..0"])
@example(["verify", "duality-r", "--index=1,1,2", "--powers=9..12", "--json"])
@example(["verify", "duality-r", "--index=3", "--powers=1..11", "--csv"])
# a top fence far past the cap, whose digits would not print
@example(["verify", "duality-r", "--powers=0..4000000"])
def test_exit_code_contract(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if argv[0] != "verify":
        return
    quiet = "--json" in argv or "--csv" in argv
    lines = (err if quiet else out).splitlines()
    summary = lines[-1] if lines else ""
    if code == 0:
        verdict, _, counts = summary.partition(" ")
        good, _, total = counts.partition("/")
        assert verdict == "PASS" and good == total and int(total) > 0, \
            (argv, summary)
        if "--csv" not in argv:
            assert len(out.splitlines()) - (0 if quiet else 1) == int(total)
    elif code == 1:
        assert summary.startswith("FAIL "), (argv, summary)
    else:
        assert not any(line.startswith("PASS") for line in
                       out.splitlines() + err.splitlines()), (argv, out, err)


def test_decimal_places_past_the_digit_limit_exit_2_at_once():
    """`eval --decimal` at or past the digits a value may print is a usage
    error before any arithmetic: 10^8 places once ran for minutes."""
    import time

    for obj in (["zeta", "--index", "2", "--upper", "4000"],
                ["connector", "--N", "5", "--n", "2", "--m", "3"],
                ["Z", "--N", "3", "--left", "2,1"]):
        for places in (cli.INT_DIGITS, 100_000_000):
            started = time.perf_counter()
            code, out, err = run_in_process(
                ["eval", *obj, "--decimal", str(places)])
            assert time.perf_counter() - started < 0.5, (obj, places)
            assert (code, out) == (2, ""), (obj, places)
            assert err == (f"error: --decimal must be below {cli.INT_DIGITS} "
                           f"places, got {places}\n")
