"""Property tests of the sweeps and the trie walk they share.

A small grid of each suite that a sweep serves is cut at random into
consecutive slices of its indices (of its cells for the residue suites),
under a table budget drawn small enough that the sweeps of main and
telescope cut their own runs too.  The reports of the slices' sweeps
joined, the reports of the uncut grid and the report of each check called
alone are equal, all but their elapsed time.

A differential fuzz draws a few indices in any order, fences, a prime
power and a residue check.  Every node of the three tries that
`chainsum.trie_walk` walks (strict prefixes exactly and mod p^n, reflected
block forms exactly) equals the dynamic program over its own chain, and
enumeration at small fences; each sweep over those axes gives the report
of each check called alone; over no index or no fence, it yields nothing.
A residue sweep whose cells mix exponents 1, 2 and 3 over several primes,
with reports of missing fixtures among them, does the same.
"""

import sys
from bisect import bisect_left
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetaflat import cli, mzv_real
from zetaflat.chainsum import (
    ChainSpec,
    Residue,
    chain_trie,
    endpoint_values,
    eval_enum,
    flat_chain,
    reflect_chain,
    tilde_chain,
    trie_walk,
    zeta_chain,
)
from zetaflat.connected_sum import telescope_sweep
from zetaflat.finite_padic import (
    PADIC_FIXTURES,
    SEKI_FIXTURES,
    _missing_fixture_report,
    _walk,
    antipode_duality_check,
    hoffman_duality_check,
    hoffman_identity_check,
    hoffman_identity_sweep,
    load_thresholds,
    padic_duality_check,
    primes_in,
    residue_sweep,
    seki_lifting_check,
)
from zetaflat.index_algebra import Index, indices_up_to_weight, parse_index
from zetaflat.mzv_real import (
    duality_columns,
    main_identity_check,
    main_sweep,
    zeta_trunc,
)

SUITES = ("main", "hoffman-identity", "telescope", "padic", "seki",
          "duality-a", "antipode", "duality-r")
RESIDUE_SUITES = {"padic": padic_duality_check, "seki": seki_lifting_check,
                  "duality-a": hoffman_duality_check,
                  "antipode": antipode_duality_check}

# Admissible indices of depth <= 3 for duality-r: dual pairs, a self-dual
# index, and (1,3,2), whose defect rises at N = 8.
DUALITY_INDICES = ("3", "1,2", "2,2", "1,1,2", "4", "1,3,2", "2,1,3")


def duality_reports(ks, lo, hi):
    column = duality_columns(ks)
    return [cli._duality_r_report(k, lo, hi, column=column) for k in ks]


def alone_reports(check, cell, primes):
    """The reports of one residue cell (k, n, first), each check called
    alone."""
    k, n, first = cell
    if first is None:
        return [_missing_fixture_report(check, k, n)]
    return [check(k, p, *([] if n is None else [n])) for p in primes[first:]]


def grid_axes(args):
    """(items, sweep, alone) of a verify grid: its indices (its cells for
    the residue suites), the reports of a sweep over a slice of them, and
    the reports of one item's checks called alone, in grid order."""
    suite, fences = args.suite, range(1, args.max_upper + 1)
    if suite == "duality-r":
        lo, hi = map(int, args.powers.split(".."))
        ks = [parse_index(t) for t in args.index or ("3", "1,2", "2,2", "1,1,2")]
        return (ks, lambda part: duality_reports(part, lo, hi),
                lambda k: [cli._duality_r_report(k, lo, hi)])
    ks = indices_up_to_weight(args.max_weight)
    if suite == "main":
        return (ks, lambda part: main_sweep(part, fences, args.method),
                lambda k: [main_identity_check(k, n, args.method) for n in fences])
    if suite == "hoffman-identity":
        return (ks, lambda part: hoffman_identity_sweep(part, fences),
                lambda k: [hoffman_identity_check(k, n) for n in fences])
    if suite == "telescope":
        return (ks, lambda part: telescope_sweep(part, fences),
                lambda k: [cli._telescope_report(k, n) for n in fences])
    check, lo = RESIDUE_SUITES[suite], int(args.primes.partition("..")[0])
    primes = primes_in(lo, int(args.primes.partition("..")[2]))
    exponents = [None]
    if suite in ("padic", "seki"):
        exponents = sorted(set(map(int, args.n_values.split(","))))
        fixtures = load_thresholds(PADIC_FIXTURES if suite == "padic"
                                   else SEKI_FIXTURES)
    cells = [(k, n, bisect_left(primes, max(lo, 3 if n in (None, 1)
                                                else fixtures[(k, n)])))
             for k in ks for n in exponents]
    return ([cell for cell in cells if cell[2] < len(primes)],
            lambda part: residue_sweep(check, part, primes),
            lambda cell: alone_reports(check, cell, primes))


@st.composite
def cut_grids(draw):
    """(args, cut points into the grid's items, table budget) of a small
    verify grid."""
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
    items = grid_axes(args)[0]
    assume(items)
    cuts = draw(st.lists(st.integers(1, len(items)), max_size=6))
    # main's and telescope's sweeps cut their runs within the table budget
    # too: a grid here holds at most 3087 bits.
    budget = draw(st.integers(0, 4000) | st.just(mzv_real.FLAT_TABLE_BITS))
    return args, sorted({0, len(items), *cuts}), budget


def key(report):
    out = report.to_json_dict()
    del out["elapsed_ms"]
    return out


@settings(max_examples=100, deadline=None)
@given(cut_grids())
def test_reports_do_not_depend_on_the_cuts(grid):
    args, cuts, budget = grid
    items, sweep, alone = grid_axes(args)
    with mock.patch.object(mzv_real, "FLAT_TABLE_BITS", budget):
        joined = [key(r) for a, b in zip(cuts, cuts[1:])
                  for r in sweep(items[a:b])]
        uncut = [key(r) for r in cli.verify_tasks(args, cli.caps_of(args))]
    assert joined == uncut == [key(r) for item in items for r in alone(item)]


INDICES = [Index(k) for k in indices_up_to_weight(6)]
RESIDUE_CHECKS = (hoffman_duality_check, antipode_duality_check,
                  padic_duality_check, seki_lifting_check)
ENUM_FENCE = 8  # enumeration stays cheap up to here at weight 6


def right_chains(ks):
    """The reflected right chains of the suffixes of `ks`, as the
    connected sums of their routes read them."""
    return [reflect_chain(tilde_chain(k[j:])) for k in ks for j in range(1, len(k))]


def check_trie(chains, upper):
    """Every node of the chains' trie, keyed by itself and walked at
    `upper`, is the final layer of the dynamic program over its own chain,
    and at small fences its sum is the enumeration."""
    trie = chain_trie({spec.positions[:i]: ChainSpec(spec.positions[:i])
                       for spec in chains for i in range(1, spec.length + 1)})
    walk = list(trie_walk(upper, trie))
    assert [node for node, _ in walk] == [node for node, _ in trie]
    for node, layer in walk:
        front, scale = endpoint_values(ChainSpec(node), upper)
        assert layer == front, (node, upper)
        if upper <= ENUM_FENCE:
            assert Fraction(sum(layer), scale) == eval_enum(ChainSpec(node), upper)


@st.composite
def fuzz_cases(draw):
    """(indices, fence, prime, exponent, fences): distinct indices in any
    order, and fences up to the fence in any order, with repeats."""
    ks = draw(st.lists(st.sampled_from(INDICES), min_size=1, max_size=5,
                       unique=True))
    upper = draw(st.integers(0, 24))
    fences = draw(st.lists(st.integers(1, max(upper, 1)), max_size=4))
    return (ks, upper, draw(st.sampled_from(primes_in(2, 31))),
            draw(st.integers(1, 3)), fences)


@settings(max_examples=100, deadline=None)
@given(fuzz_cases())
def test_trie_walks_and_sweeps_against_their_oracles(case):
    ks, upper, p, n, fences = case
    for chains in ([zeta_chain(k) for k in ks], [flat_chain(k) for k in ks],
                   right_chains(ks)):
        check_trie(chains, upper)
    strict = {k[:i]: zeta_chain(k[:i]) for k in ks for i in range(1, len(k) + 1)}
    residues = _walk(p, n, chain_trie(strict))
    assert sorted(residues) == sorted(strict)
    for m, residue in residues.items():
        assert residue == Residue.from_fraction(zeta_trunc(m, p), p ** n).value

    admissible = [k for k in ks if k.admissible]
    runs = [
        ("main", lambda ks, fences: main_sweep(ks, fences),
         lambda k, m: main_identity_check(k, m)),
        ("hoffman-identity", hoffman_identity_sweep, hoffman_identity_check),
        ("telescope", telescope_sweep, cli._telescope_report),
    ]
    for name, sweep, check in runs:
        alone = [key(check(k, m)) for k in ks for m in fences]
        assert [key(r) for r in sweep(ks, fences)] == alone, name
        assert list(sweep([], fences)) == list(sweep(ks, [])) == [], name
    for check in RESIDUE_CHECKS:
        lifted = check in (padic_duality_check, seki_lifting_check)
        cells = [(k, n if lifted else None, 0) for k in ks]
        alone = [key(r) for cell in cells for r in alone_reports(check, cell, [p])]
        assert [key(r) for r in residue_sweep(check, cells, [p])] == alone
        assert list(residue_sweep(check, [], [p])) == []
    alone = [key(cli._duality_r_report(k, 0, 5)) for k in admissible]
    assert [key(r) for r in duality_reports(admissible, 0, 5)] == alone


@pytest.mark.parametrize("upper", [1, 2, 28])
def test_right_chains_enter_weakly_from_zero(upper):
    """The reflected right chain of (3,) enters weakly with a factor
    1/(N - n), from n = 0, and that of (2, 1, 1) has such a weak position
    after strict ones; that of (1,) is strict.  Each node walks to its
    oracles, at N = 1 over empty bands too."""
    chains = [reflect_chain(tilde_chain(s)) for s in ((1,), (3,), (2, 1, 1))]
    weak = [[(i, pos.weight.harm) for i, pos in enumerate(spec.positions)
             if not pos.strict_before] for spec in chains]
    assert weak == [[], [(0, 0), (1, 0)], [(2, 0)]]
    check_trie(chains, upper)


def test_sweeps_take_no_fork(monkeypatch):
    """Telescope and main dp grids give the reports of each check called
    alone without the one-off paths a sweep once took for a read again or
    a small fence raising (`connected_sum.endpoint_values`,
    `connected_sum.telescope`, `mzv_real.zeta_flat`); and the sweep builds
    the right chain of each suffix once."""
    indices = indices_up_to_weight(4)
    suffixes = sorted({k[j:] for k in indices for j in range(1, len(k))})
    grids = [
        (main_sweep, range(8), main_identity_check, []),
        (telescope_sweep, range(1, 8), cli._telescope_report, suffixes),
    ]
    # The package exports the function connected_sum under the module's name.
    connected_sum = sys.modules["zetaflat.connected_sum"]
    built = []
    real = connected_sum.tilde_chain
    monkeypatch.setattr(connected_sum, "tilde_chain",
                        lambda l: built.append(tuple(l)) or real(l))
    for sweep, fences, check, rights in grids:
        alone = [key(check(k, n)) for k in indices for n in fences]
        built.clear()

        def fork(*args, **kwargs):
            raise AssertionError(f"a sweep took a one-off path: {args}")

        with mock.patch.multiple(connected_sum, endpoint_values=fork, telescope=fork), \
                mock.patch.object(mzv_real, "zeta_flat", fork):
            assert [key(r) for r in sweep(indices, fences)] == alone, sweep.__name__
        assert sorted(built) == rights


@st.composite
def mixed_runs(draw):
    """(check, cells, primes) of a residue sweep over two to four primes:
    cells (k, n, first) in any order, n None for the unlifted checks; a
    lifted check has a cell at each exponent 1, 2 and 3 and one of a
    missing fixture, a cell's first prime anywhere in the list or past it."""
    primes = draw(st.lists(st.sampled_from(primes_in(2, 31)), min_size=2,
                           max_size=4, unique=True))
    small = [k for k in INDICES if k.weight <= 5]
    check = draw(st.sampled_from(RESIDUE_CHECKS))
    lifted = check in (padic_duality_check, seki_lifting_check)
    first = st.integers(0, len(primes))
    exponent = st.integers(1, 3) if lifted else st.none()
    cells = draw(st.lists(st.tuples(st.sampled_from(small), exponent, first),
                          max_size=8))
    if lifted:
        cells += [(draw(st.sampled_from(small)), n, draw(first)) for n in (1, 2, 3)]
        cells.append((draw(st.sampled_from(small)), draw(exponent), None))
    return check, draw(st.permutations(cells)), primes


@settings(max_examples=50, deadline=None)
@given(mixed_runs())
def test_residue_sweep_mixes_exponents_and_primes(run):
    check, cells, primes = run
    alone = [key(r) for cell in cells for r in alone_reports(check, cell, primes)]
    assert [key(r) for r in residue_sweep(check, cells, primes)] == alone
