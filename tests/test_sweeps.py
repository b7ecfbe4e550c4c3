"""Property test: a sweep's reports do not depend on how its tasks are cut.

A small grid of each suite that a sweep serves is cut at random into
contiguous pieces, cuts inside one index's run included, as `--jobs`
cuts it (at index boundaries only).  The reports of the pieces joined,
the reports of one uncut sweep and the report of each task's check
called alone are equal, all but their elapsed time.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetaflat import cli

SUITES = ("main", "hoffman-identity", "telescope", "padic", "seki",
          "duality-a", "antipode", "duality-r")

# Admissible indices of depth <= 3 for duality-r: dual pairs, a self-dual
# index, and (1,3,2), whose defect rises at N = 8.
DUALITY_INDICES = ("3", "1,2", "2,2", "1,1,2", "4", "1,3,2", "2,1,3")


@st.composite
def cut_grids(draw):
    """(tasks, cut points) of a small verify grid."""
    suite = draw(st.sampled_from(SUITES))
    argv = ["verify", suite, f"--max-weight={draw(st.integers(1, 3))}"]
    if suite == "duality-r":
        # Three fences or more, two of them above every depth.
        lo = draw(st.integers(0, 3))
        argv.append(f"--powers={lo}..{draw(st.integers(lo + 3, 7))}")
        for k in draw(st.lists(st.sampled_from(DUALITY_INDICES), max_size=4)):
            argv.append(f"--index={k}")
    elif suite in ("main", "hoffman-identity", "telescope"):
        argv.append(f"--max-upper={draw(st.integers(1, 6))}")
        if suite == "main" and draw(st.booleans()):
            argv.append("--method=enum")
    else:
        lo = draw(st.sampled_from((2, 3, 5, 7)))
        argv.append(f"--primes={lo}..{draw(st.integers(max(lo, 3), 17))}")
        if suite in ("padic", "seki"):
            exponents = draw(st.lists(st.integers(1, 3), min_size=1,
                                      max_size=3, unique=True))
            argv.append("--n-values=" + ",".join(map(str, exponents)))
    args = cli.build_parser().parse_args(argv)
    tasks = cli.verify_tasks(args, cli.caps_of(args))
    assume(tasks)
    cuts = draw(st.lists(st.integers(1, len(tasks)), max_size=6))
    return tasks, sorted({0, len(tasks), *cuts})


def key(report):
    out = report.to_json_dict()
    del out["elapsed_ms"]
    return out


@settings(max_examples=100, deadline=None)
@given(cut_grids())
def test_reports_do_not_depend_on_the_cuts(grid):
    tasks, cuts = grid
    joined = [key(r) for a, b in zip(cuts, cuts[1:])
              for r in cli._sweeps(tasks[a:b])]
    uncut = [key(r) for r in cli._sweeps(tasks)]
    alone = [key(fn(**kwargs)) for fn, kwargs in tasks]
    assert joined == uncut == alone
