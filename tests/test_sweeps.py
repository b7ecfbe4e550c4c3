"""Property tests of the sweeps and the trie walk they share.

A small grid of each suite that a sweep serves is cut at random into
contiguous pieces, cuts inside one index's run included, under a table
budget drawn small enough that the sweeps of main and telescope cut
their own runs too.  The reports of the pieces joined, the reports of
one uncut sweep and the report of each task's check called alone are
equal, all but their elapsed time.

A differential fuzz draws a few indices, a fence, a prime power and a
read order with repeats and gaps.  Every node of the three tries that
`chainsum.trie_walk` walks (strict prefixes exactly and mod p^n, reflected
block forms exactly) equals the dynamic program over its own chain, and
enumeration at small fences; and each sweep, fed that read order, gives
the report of each check called alone; fed no task, it yields nothing.
A run of the residue sweep that mixes exponents 1, 2 and 3 over several
primes, with reports of missing fixtures among its tasks, does the same.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetaflat import cli, mzv_real
from zetaflat.chainsum import (
    Residue,
    endpoint_values,
    eval_enum,
    flat_chain,
    lcm_upto,
    trie_walk,
    zeta_chain,
)
from zetaflat.connected_sum import telescope_sweep
from zetaflat.finite_padic import (
    _walk,
    antipode_duality_check,
    hoffman_duality_check,
    hoffman_identity_check,
    hoffman_identity_sweep,
    padic_duality_check,
    primes_in,
    residue_sweep,
    seki_lifting_check,
)
from zetaflat.index_algebra import Index, trie_order
from zetaflat.mzv_real import (
    _branch,
    _flat_walk,
    duality_sweep,
    main_identity_check,
    main_sweep,
    zeta_trunc,
)

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
    # main's and telescope's sweeps cut their runs within the table budget
    # too: a grid here holds at most 3087 bits.
    budget = draw(st.integers(0, 4000) | st.just(mzv_real.FLAT_TABLE_BITS))
    return tasks, sorted({0, len(tasks), *cuts}), budget


def key(report):
    out = report.to_json_dict()
    del out["elapsed_ms"]
    return out


@settings(max_examples=100, deadline=None)
@given(cut_grids())
def test_reports_do_not_depend_on_the_cuts(grid):
    tasks, cuts, budget = grid
    with mock.patch.object(mzv_real, "FLAT_TABLE_BITS", budget):
        joined = [key(r) for a, b in zip(cuts, cuts[1:])
                  for r in cli._sweeps(tasks[a:b])]
        uncut = [key(r) for r in cli._sweeps(tasks)]
    alone = [key(fn(**kwargs)) for fn, kwargs in tasks]
    assert joined == uncut == alone


INDICES = [Index(k) for k in trie_order(6)]
RESIDUE_CHECKS = (hoffman_duality_check, antipode_duality_check,
                  padic_duality_check, seki_lifting_check)
ENUM_FENCE = 8  # enumeration stays cheap up to here at weight 6


@st.composite
def fuzz_cases(draw):
    """(indices, fence, prime, exponent, reads): each read an (index,
    fence, residue check) triple drawn from those, in any order."""
    ks = draw(st.lists(st.sampled_from(INDICES), min_size=1, max_size=5,
                       unique=True))
    upper = draw(st.integers(2, 24))
    reads = draw(st.lists(st.tuples(st.sampled_from(ks), st.integers(1, upper),
                                    st.sampled_from(RESIDUE_CHECKS)),
                          max_size=8))
    return (ks, upper, draw(st.sampled_from(primes_in(2, 31))),
            draw(st.integers(1, 3)), reads)


@settings(max_examples=100, deadline=None)
@given(fuzz_cases())
def test_trie_walks_and_sweeps_against_their_oracles(case):
    ks, upper, p, n, reads = case
    prefixes = sorted({k[:i] for k in ks for i in range(1, len(k) + 1)})
    branches = sorted({node for k in ks for node in _branch(tuple(k))})
    strict = ((len(m), zeta_chain(m[-1:]).positions[0]) for m in prefixes)
    opening, continuation = flat_chain((2,)).positions
    blocks = ((sum(k), opening if k[-1] == 1 else continuation) for k in branches)
    flats = _flat_walk(upper, branches)
    residues = _walk(p, n, prefixes)
    for tries, chain in ((zip(prefixes, trie_walk(upper, strict)), zeta_chain),
                         (zip(branches, trie_walk(upper, blocks)), flat_chain)):
        for k, layer in tries:
            front, scale = endpoint_values(chain(k), upper)
            assert layer == front, (k, upper)
            if upper <= ENUM_FENCE:
                assert Fraction(sum(layer), scale) == eval_enum(chain(k), upper)
    for k in branches:
        assert flats[k] == sum(endpoint_values(flat_chain(k), upper)[0])
        assert flats[k] == _flat_walk(upper, _branch(k))[k]
    for m in prefixes:
        want = Residue.from_fraction(zeta_trunc(m, p), p ** n).value
        assert residues[m] == want, (m, p, n)

    def residue_task(k, check):
        lifted = check in (padic_duality_check, seki_lifting_check)
        return check, ({"k": k, "p": p, "n": n} if lifted else {"k": k, "p": p})

    runs = [
        (main_sweep, [(main_identity_check, {"k": k, "upper": m, "method": "dp"})
                      for k, m, _ in reads]),
        (hoffman_identity_sweep, [(hoffman_identity_check, {"k": k, "upper": m})
                                  for k, m, _ in reads]),
        (telescope_sweep, [(cli._telescope_report, {"k": k, "upper": m})
                           for k, m, _ in reads]),
        (residue_sweep, [residue_task(k, check) for k, _, check in reads]),
        (duality_sweep, [(cli._duality_r_report, {"k": k, "lo": 0, "hi": 5})
                         for k, _, _ in reads if k.admissible]),
    ]
    for sweep, tasks in runs:
        alone = [key(fn(**kwargs)) for fn, kwargs in tasks]
        assert [key(r) for r in sweep(tasks)] == alone, sweep.__name__
        assert list(sweep([])) == [], sweep.__name__


def mixed_task(k, check, p, n):
    if check is cli._missing_fixture_report:
        return check, {"check_id": "seki-lifting", "k": k, "n": n}
    if check in (padic_duality_check, seki_lifting_check):
        return check, {"k": k, "p": p, "n": n}
    return check, {"k": k, "p": p}


@st.composite
def mixed_runs(draw):
    """A residue sweep's tasks over two to four primes, in any order: a
    lifted check at each exponent 1, 2 and 3, a report of a missing
    fixture, and any further residue checks or reports."""
    primes = draw(st.lists(st.sampled_from(primes_in(2, 31)), min_size=2,
                           max_size=4, unique=True))
    small = [k for k in INDICES if k.weight <= 5]
    lifted = st.sampled_from((padic_duality_check, seki_lifting_check))
    tasks = [mixed_task(draw(st.sampled_from(small)), draw(lifted),
                          primes[n % len(primes)], n) for n in (1, 2, 3)]
    tasks.append(mixed_task(draw(st.sampled_from(small)),
                              cli._missing_fixture_report, None, 2))
    tasks += [mixed_task(*task) for task in draw(st.lists(st.tuples(
        st.sampled_from(small),
        st.sampled_from(RESIDUE_CHECKS + (cli._missing_fixture_report,)),
        st.sampled_from(primes), st.integers(1, 3)), max_size=8))]
    return draw(st.permutations(tasks))


@settings(max_examples=50, deadline=None)
@given(mixed_runs())
def test_residue_sweep_mixes_exponents_and_primes(tasks):
    alone = [key(fn(**kwargs)) for fn, kwargs in tasks]
    assert [key(r) for r in residue_sweep(tasks)] == alone
