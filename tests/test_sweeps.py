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

import random
import sys
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
from zetaflat.index_algebra import Index, indices_up_to_weight
from zetaflat.mzv_real import (
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
    tasks = list(cli.verify_tasks(args, cli.caps_of(args)))
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


INDICES = [Index(k) for k in indices_up_to_weight(6)]
RESIDUE_CHECKS = (hoffman_duality_check, antipode_duality_check,
                  padic_duality_check, seki_lifting_check)
ENUM_FENCE = 8  # enumeration stays cheap up to here at weight 6


def right_chains(ks):
    """The reflected right chains of the suffixes of `ks`, as the
    connected sums of their routes read them."""
    return [reflect_chain(tilde_chain(k[j:])) for k in ks for j in range(1, len(k))]


def check_trie(chains, upper):
    """Every node of the chains' trie, walked at `upper`, is the final layer
    of the dynamic program over its own chain, and at small fences its sum
    is the enumeration."""
    nodes = chain_trie(chains)
    for node, layer in zip(nodes, trie_walk(upper, nodes), strict=True):
        front, scale = endpoint_values(ChainSpec(node), upper)
        assert layer == front, (node, upper)
        if upper <= ENUM_FENCE:
            assert Fraction(sum(layer), scale) == eval_enum(ChainSpec(node), upper)


@st.composite
def fuzz_cases(draw):
    """(indices, fence, prime, exponent, reads): each read an (index,
    fence, residue check) triple drawn from those, in any order."""
    ks = draw(st.lists(st.sampled_from(INDICES), min_size=1, max_size=5,
                       unique=True))
    upper = draw(st.integers(0, 24))
    reads = draw(st.lists(st.tuples(st.sampled_from(ks),
                                    st.integers(1, max(upper, 1)),
                                    st.sampled_from(RESIDUE_CHECKS)),
                          max_size=8))
    return (ks, upper, draw(st.sampled_from(primes_in(2, 31))),
            draw(st.integers(1, 3)), reads)


@settings(max_examples=100, deadline=None)
@given(fuzz_cases())
def test_trie_walks_and_sweeps_against_their_oracles(case):
    ks, upper, p, n, reads = case
    for chains in ([zeta_chain(k) for k in ks], [flat_chain(k) for k in ks],
                   right_chains(ks)):
        check_trie(chains, upper)
    strict = chain_trie(map(zeta_chain, ks))
    for node, residue in zip(strict, _walk(p, n, strict), strict=True):
        m = tuple(pos.weight.harm for pos in node)
        assert residue == Residue.from_fraction(zeta_trunc(m, p), p ** n).value

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
    """Telescope and main dp grids, read in shuffled order with repeats,
    give the reports of each check called alone with the one-off paths a
    sweep once took for a read again or a small fence raising
    (`connected_sum.endpoint_values`, `connected_sum.telescope`,
    `mzv_real.zeta_flat`); and the sweep builds the right chain of each
    suffix once."""
    rng, indices = random.Random(26), indices_up_to_weight(4)
    suffixes = sorted({k[j:] for k in indices for j in range(1, len(k))})
    grids = [
        (main_sweep, [(main_identity_check, {"k": k, "upper": n, "method": "dp"})
                      for k in indices for n in range(8)], []),
        (telescope_sweep, [(cli._telescope_report, {"k": k, "upper": n})
                           for k in indices for n in range(1, 8)], suffixes),
    ]
    # The package exports the function connected_sum under the module's name.
    connected_sum = sys.modules["zetaflat.connected_sum"]
    built = []
    real = connected_sum.tilde_chain
    monkeypatch.setattr(connected_sum, "tilde_chain",
                        lambda l: built.append(tuple(l)) or real(l))
    for sweep, grid, rights in grids:
        tasks = grid + rng.choices(grid, k=60)
        rng.shuffle(tasks)
        alone = [key(fn(**kwargs)) for fn, kwargs in tasks]
        built.clear()

        def fork(*args, **kwargs):
            raise AssertionError(f"a sweep took a one-off path: {args}")

        with mock.patch.multiple(connected_sum, endpoint_values=fork, telescope=fork), \
                mock.patch.object(mzv_real, "zeta_flat", fork):
            assert [key(r) for r in sweep(tasks)] == alone, sweep.__name__
        assert len(tasks) == len(grid) + 60 and sorted(built) == rights


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
