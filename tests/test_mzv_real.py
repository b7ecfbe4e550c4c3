"""Tests for the rational-valued sums and the duality discrepancy.

Pinned tolerances below follow the sweep-then-pin protocol: the exact
quantity was computed once with this code base, doubled, rounded up at
the third significant digit, and frozen.  They are regression tripwires,
not mathematical claims; the mathematical claim is only that the
difference tends to zero.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaflat import _kernels, mzv_real
from zetaflat._kernels import harmonic_tree, scaled_quotient
from zetaflat.chainsum import (
    ChainSpec,
    Position,
    REFLECTED,
    Weight,
    chain_trie,
    endpoint_values,
    eval_dp,
    eval_enum,
    flat_chain,
    lcm_upto,
    zeta_chain,
)
from zetaflat.cli import CONVERGENCE_INDICES
from zetaflat.index_algebra import (
    coarsenings,
    dual,
    indices_up_to_weight,
)
from zetaflat.reports import decimal_str, fraction_str
from zetaflat.mzv_real import (
    TREE_GAP,
    ConvergenceRow,
    discrepancy,
    duality_convergence,
    duality_sweep,
    log2_discretization_check,
    main_identity_check,
    main_sweep,
    riemann_sum,
    scaled_column,
    zeta_flat,
    zeta_star_trunc,
    zeta_trunc,
    zeta_trunc_column,
)

# |zeta_trunc(k, 4096) - zeta_trunc(dual(k), 4096)|, doubled and rounded up
DUALITY_GAP_AT_4096 = {
    (3,): Fraction(121, 25000),
    (1, 2): Fraction(121, 25000),
    (1, 1, 2): Fraction(119, 5000),
}

# |riemann_sum(k, 4096) - zeta_trunc(k, 4096)|, doubled and rounded up
RIEMANN_GAP_AT_4096 = {
    (2,): Fraction(869, 100000),
    (3,): Fraction(123, 5000),
    (1, 2): Fraction(99, 5000),
}


def test_known_values():
    assert zeta_trunc((2,), 4) == Fraction(49, 36)
    assert zeta_trunc((1, 2), 4) == Fraction(5, 12)
    assert zeta_trunc((1, 1), 1) == 0
    assert zeta_star_trunc((1, 1), 3) == Fraction(7, 4)
    assert zeta_star_trunc((2,), 3) == zeta_trunc((2,), 3)
    assert zeta_flat((2,), 3) == Fraction(5, 4)
    assert zeta_flat((1,), 2) == 1
    assert riemann_sum((2,), 3) == Fraction(1, 4)
    assert riemann_sum((2,), 2) == 0


def test_methods_agree():
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for n in (1, 3, 7):
            assert zeta_trunc(k, n, "dp") == zeta_trunc(k, n, "enum")
            if k.admissible:
                assert zeta_flat(k, n, "dp") == zeta_flat(k, n, "enum")
    with pytest.raises(ValueError):
        zeta_trunc((2,), 5, "float")


def test_main_identity_small_grid():
    """The identity behind everything: strict sum equals block sum.

    It holds for every nonempty index, with no admissibility needed; the
    full-size grid lives in the acceptance suite.
    """
    for k in indices_up_to_weight(5):
        if not k:
            continue
        for n in range(1, 16):
            assert zeta_trunc(k, n) == zeta_flat(k, n), (k, n)


def test_star_equals_weak_chain():
    """The weak-chain star sum against its expansion over coarsenings."""
    for k in indices_up_to_weight(5):
        if not k:
            continue
        for n in (1, 2, 5, 11):
            want = sum((zeta_trunc(l, n) for l in coarsenings(k)), Fraction(0))
            assert zeta_star_trunc(k, n) == want, (k, n)


def test_riemann_non_coincidence_witness():
    assert riemann_sum((3,), 20) != zeta_trunc((3,), 20)


def test_riemann_approaches_strict_sum():
    for k, bound in RIEMANN_GAP_AT_4096.items():
        gap = abs(riemann_sum(k, 4096) - zeta_trunc(k, 4096))
        assert 0 < gap < bound, k


def test_duality_convergence_monotone_and_pinned():
    uppers = [2 ** j for j in range(4, 13)]
    for k, bound in DUALITY_GAP_AT_4096.items():
        rows = duality_convergence(k, uppers)
        diffs = [r.diff for r in rows]
        assert all(b < a for a, b in zip(diffs, diffs[1:])), k
        assert 0 < diffs[-1] < bound, k


def test_duality_convergence_self_dual_is_zero():
    rows = duality_convergence((2, 2), [2 ** j for j in range(4, 9)])
    assert all(r.diff == 0 for r in rows)
    assert all(r.decimal == "0.000000000000" for r in rows)


def test_duality_difference_antisymmetry():
    for n in (5, 10, 17):
        a = zeta_trunc((3,), n) - zeta_trunc((1, 2), n)
        b = zeta_trunc((1, 2), n) - zeta_trunc((3,), n)
        assert a == -b
        assert duality_convergence((3,), [n])[0].diff == \
            duality_convergence((1, 2), [n])[0].diff


def test_discrepancy_holds_small_grid():
    for k in indices_up_to_weight(5):
        if not k or not k.admissible:
            continue
        for n in range(1, 13):
            br = discrepancy(k, n)
            assert br.holds, (k, n)
            assert br.lhs == zeta_trunc(k, n) - zeta_trunc(dual(k), n)


def test_discrepancy_term_shape():
    br = discrepancy((3,), 3)
    assert br.lhs == zeta_trunc((3,), 3) - zeta_trunc((1, 2), 3)
    # block form of (3) has two weak relations, the reflected dual form
    # one; nonempty tie patterns: 3 + 1
    assert len(br.terms) == 4
    assert {t.sign for t in br.terms} == {1, -1}
    for t in br.terms:
        assert t.tied
        assert all(p.strict_before for p in t.spec.positions)
        assert t.value == eval_dp(t.spec, 3)


def test_discrepancy_closed_form_for_weight_three():
    """The defect of (3) against (1,2) collapses to one mixed sum."""
    closed = ChainSpec((Position(REFLECTED, True),
                        Position(Weight(harm=2), False)))
    assert eval_dp(closed, 3) == Fraction(7, 8)
    for n in range(1, 41):
        want = zeta_trunc((3,), n) - zeta_trunc((1, 2), n)
        assert eval_dp(closed, n) == want, n


def test_discrepancy_enum_method():
    br = discrepancy((2, 2), 8, method="enum")
    assert br.holds
    assert br.lhs == 0  # self-dual


def test_log2_known_values():
    r = log2_discretization_check(1)
    assert r.passed and r.lhs == "1/1"
    r = log2_discretization_check(2)
    assert r.passed and r.lhs == "5/6"
    for n in range(1, 61):
        assert log2_discretization_check(n).passed


def test_log2_sides_equal_their_fraction_sums():
    """lhs is the alternating partial sum A(2N - 1), rhs the harmonic tail
    H(2N - 1) - H(N - 1), both summed here in Fractions."""
    alternating, harmonic = [Fraction(0)], [Fraction(0)]
    for j in range(1, 800):
        alternating.append(alternating[-1] + Fraction((-1) ** (j - 1), j))
        harmonic.append(harmonic[-1] + Fraction(1, j))
    for n in range(1, 401):
        r = log2_discretization_check(n)
        assert r.lhs == fraction_str(alternating[2 * n - 1]), n
        assert r.rhs == fraction_str(harmonic[2 * n - 1] - harmonic[n - 1]), n


def test_fraction_str_renders_fractions_and_ints_as_before():
    """Fractions and ints are rendered from their own numerator and
    denominator, anything else through Fraction(q); either way the
    string is that of Fraction(q), signs and zero included."""
    values = [Fraction(0), Fraction(-0), Fraction(3, 4), Fraction(-3, 4),
              Fraction(6, -8), Fraction(10 ** 40, 7), Fraction(-5), 0, -0,
              7, -7, 10 ** 50, True, False, "3/4", "-6/8", 0.5, -2.25]
    for q in values:
        f = Fraction(q)
        assert fraction_str(q) == f"{f.numerator}/{f.denominator}", q
    assert [fraction_str(q) for q in (0, -7, Fraction(-3, 4))] == [
        "0/1", "-7/1", "-3/4"]


def test_convergence_row_rendering():
    rows = duality_convergence((3,), [16])
    assert isinstance(rows[0], ConvergenceRow)
    assert rows[0].upper == 16
    # decimal string is presentation only; exact value drives the tests
    assert rows[0].decimal == decimal_str(rows[0].diff)
    assert rows[0].decimal.startswith("0.")


@pytest.mark.parametrize("method", ["dp", "enum"])
def test_trunc_column_equals_per_fence(method, monkeypatch):
    """One dynamic program per index serves every fence; enumeration
    stays one fence at a time and never touches it."""
    calls = []
    real = mzv_real.endpoint_values
    monkeypatch.setattr(mzv_real, "endpoint_values",
                        lambda *args: calls.append(args) or real(*args))
    fences = list(range(26))
    for k in indices_up_to_weight(5):
        if not k:
            continue
        want = [zeta_trunc(k, n) for n in fences]
        calls.clear()
        column = zeta_trunc_column(k, fences, method)
        assert column == want, k
        # no tuple fits below a fence at or under the depth
        assert not any(column[:k.depth + 1]), k
        assert len(calls) == (1 if method == "dp" else 0), k
    assert zeta_trunc_column((1, 2), [], method) == []
    with pytest.raises(ValueError):
        zeta_trunc_column((1, 2), [5, -1], method)


def test_duality_convergence_unsorted_fences_with_duplicate():
    # the second list leaves a gap for the product tree
    for fences in ([8, 3, 8, 1, 5], [TREE_GAP + 8, 3, 0, TREE_GAP + 8, 1]):
        for k in [(3,), (1, 2), (2, 2), (1, 1, 2)]:
            rows = duality_convergence(k, fences)
            assert [r.upper for r in rows] == fences
            for r in rows:
                want = abs(eval_dp(zeta_chain(k), r.upper)
                           - eval_dp(zeta_chain(dual(k)), r.upper))
                assert r.diff == want and r.decimal == decimal_str(want), \
                    (k, r)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 31, 32, 33, 64, 65, 130, 1000])
def test_scaled_quotient_every_quotient_length(bits):
    """scaled_quotient(x, scale, den) == x * scale // den where den divides
    x * scale: den = d e for divisors d, e of `bits` bits, scale = f e and
    x = a d, so the quotient is a f.  a runs through 0, 1 and every length
    up to `bits` (a power of two, all ones or random) and f through one
    bit, half and all of `bits`, so quotients take every length up to
    2 bits, on both sides of the full-product branch."""
    rng = random.Random(bits)
    top = 1 << bits - 1
    branches = set()
    e = rng.getrandbits(bits) | top
    for d in (top, 2 * top - 1, rng.getrandbits(bits) | top):
        for f in (1, rng.getrandbits(bits // 2) | 1 << bits // 2 >> 1,
                  rng.getrandbits(bits) | top):
            for length in range(bits + 1):
                low = 1 << length >> 1
                for a in (low, (1 << length) - 1, rng.getrandbits(length) | low):
                    x, scale, den = a * d, f * e, d * e
                    assert scaled_quotient(x, scale, den) == a * f, (d, f, a)
                    branches.add(den.bit_length() - scale.bit_length() - max(
                        x.bit_length() - den.bit_length() + 1, 0) - 2 > 0)
    assert branches == ({False} if bits <= 2 else {False, True})


def tree_values(k, fences):
    """The product-tree kernel's output for zeta_chain(k): the sum below
    each fence N times lcm(1..N)^weight."""
    weight = sum(k)
    return harmonic_tree(list(k), fences,
                         [lcm_upto(n) ** weight for n in fences])


@pytest.mark.parametrize("leaf", [1, 3, _kernels.LEAF_STEPS])
def test_harmonic_tree_equals_enumeration(leaf, monkeypatch):
    # with short leaves, the gaps of the sparse list run through inner
    # nodes of the tree
    monkeypatch.setattr(_kernels, "LEAF_STEPS", leaf)
    for fences in (list(range(13)), [0, 1, 5, 12]):
        for k in indices_up_to_weight(5):
            if not k:
                continue
            for n, got in zip(fences, tree_values(k, fences)):
                want = eval_enum(zeta_chain(k), n) * lcm_upto(n) ** k.weight
                assert got == want, (k, n)


def test_harmonic_tree_equals_endpoint_partial_sums():
    """Sparse fences on both sides of the cutoff: long gaps run through
    many tree levels, short ones stay inside one leaf."""
    fences = sorted([2, 3, 17, 100, 700, TREE_GAP - 1, TREE_GAP,
                     TREE_GAP + 1, 1500, 2 ** 11])
    for k in CONVERGENCE_INDICES:
        for side in (k, tuple(dual(k))):
            front, scale = endpoint_values(zeta_chain(side), fences[-1])
            got = tree_values(side, fences)
            for n, value in zip(fences, got):
                want = Fraction(sum(front[:n]), scale)
                assert Fraction(value, lcm_upto(n) ** sum(side)) == want, \
                    (side, n)


@settings(max_examples=15, deadline=None)
@given(exps=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       fences=st.lists(st.integers(0, TREE_GAP + 64), max_size=5),
       top=st.integers(TREE_GAP - 2, TREE_GAP + 64),
       repeats=st.integers(0, 3),
       leaf=st.sampled_from([1, 3, _kernels.LEAF_STEPS]))
def test_harmonic_tree_against_endpoint_dp(exps, fences, top, repeats, leaf):
    """Differential test of the product tree against the endpoint DP:
    any exponents of depth <= 4, sorted fences with repeats on both sides
    of TREE_GAP, and leaves of 1, 3 or LEAF_STEPS steps, so that the
    diagonal slots of leaves and of inner nodes both meet in products.
    A last fence, repeated, lies TREE_GAP past the others: the row
    renormalised at the top fence is multiplied over that gap and
    renormalised again, and must end where a one-fence tree, which
    multiplies the whole range at once, ends."""
    fences = sorted(fences + [top] + fences[:repeats])
    far = fences[-1] + TREE_GAP
    front, scale = endpoint_values(zeta_chain(exps), fences[-1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "LEAF_STEPS", leaf)
        got = tree_values(exps, fences + [far, far])
    for n, value in zip(fences, got):
        assert Fraction(value, lcm_upto(n) ** sum(exps)) \
            == Fraction(sum(front[:n]), scale), n
    assert got[-2:] == tree_values(exps, [far]) * 2


def test_harmonic_tree_edge_fences():
    """Repeated fences, fences 0 and 1, and fences at or below the depth,
    where no tuple fits and the value is 0."""
    fences = [0, 0, 1, 1, 2, 3, 3, 4, 5, 6, 6, 40, 40]
    for k in [(1,), (2,), (2, 1), (1, 1, 2), (1, 3, 1, 1), (1,) * 5]:
        got = tree_values(k, fences)
        assert got == [zeta_trunc(k, n, "enum") * lcm_upto(n) ** sum(k)
                       for n in fences], k
        assert not any(v for n, v in zip(fences, got) if n <= len(k)), k
        assert all(v for n, v in zip(fences, got) if n > len(k)), k


def read_columns(k, fences, *, column):
    """What a duality-r check reads: the columns of k and of its dual."""
    return column(k, fences), column(dual(k), fences)


@settings(max_examples=25, deadline=None)
@given(ks=st.lists(st.sampled_from([k for k in indices_up_to_weight(5)
                                    if k and k.admissible]),
                   min_size=1, max_size=4),
       fences=st.lists(st.integers(0, 200), min_size=1, max_size=5,
                       unique=True),
       leaf=st.sampled_from([1, 3, _kernels.LEAF_STEPS]))
def test_duality_sweep_shared_entries_equal_columns_alone(ks, fences, leaf):
    """Differential test of the table of product-tree entries that
    `duality_sweep` shares among its columns: 1-4 admissible indices of
    weight <= 5 (top exponents 2-5, repeats, any order), every gap on the
    tree, and leaves of 1, 3 or LEAF_STEPS steps.  Every column the sweep
    yields equals the column computed alone and, at fences <= 12,
    enumeration; each of two sweeps starts from an empty table."""
    fences = tuple(sorted(fences))
    tasks = [(read_columns, {"k": k, "fences": fences}) for k in ks]
    tables = []
    real = mzv_real.harmonic_tree
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "LEAF_STEPS", leaf)
        patch.setattr(mzv_real, "TREE_GAP", 1)
        patch.setattr(mzv_real, "harmonic_tree", lambda exps, *rest:
                      tables.append(-1 if rest[2] is None else len(rest[2]))
                      or real(exps, *rest))
        for _ in range(2):
            tables.clear()
            swept = list(duality_sweep(tasks))
            assert tables[:1] in ([], [0])
            for k, columns in zip(ks, swept):
                for index, (values, scales) in zip((k, dual(k)), columns):
                    assert (values, scales) == scaled_column(index, fences), \
                        index
                    for n, value, scale in zip(fences, values, scales):
                        if n <= 12:
                            assert Fraction(value, scale) == eval_enum(
                                zeta_chain(index), n), (index, n)


@pytest.mark.parametrize("fences, tree", [
    ([TREE_GAP - 1], False),
    ([TREE_GAP], True),
    (list(range(TREE_GAP + 1)), False),
    ([5, 5 + TREE_GAP], True),
    ([2 * TREE_GAP, 3, 0, 1, 2 * TREE_GAP, 1, 2], True),
])
def test_trunc_column_dispatch_by_largest_gap(fences, tree, monkeypatch):
    """A gap of TREE_GAP or more between sorted fences (from 0) sends the
    column to the product tree, and a dense column, whatever its top,
    stays on the DP; either way the values, in the order and multiplicity
    asked for, equal zeta_trunc at each fence."""
    calls = []
    for name in ("endpoint_values", "harmonic_tree"):
        real = getattr(mzv_real, name)
        monkeypatch.setattr(mzv_real, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    for k in [(1, 2), (1, 1, 2), (3,)]:
        calls.clear()
        column = zeta_trunc_column(k, fences)
        assert calls == ["harmonic_tree" if tree else "endpoint_values"], k
        assert len(column) == len(fences)
        # every fence of the sparse columns, eight of the dense one
        step = max(1, len(fences) // 8)
        for n, value in list(zip(fences, column))[::step]:
            assert value == eval_dp(zeta_chain(k), n), (k, n)


@pytest.mark.parametrize("upper", [TREE_GAP - 1, TREE_GAP, 4096])
def test_zeta_trunc_single_fence_dispatch(upper, monkeypatch):
    """One fence of TREE_GAP or more is a gap from 0, so zeta_trunc takes
    the product tree there and the endpoint DP below; both equal the
    plain dynamic program."""
    calls = []
    real = mzv_real.harmonic_tree
    monkeypatch.setattr(mzv_real, "harmonic_tree",
                        lambda *args: calls.append(args) or real(*args))
    for k in CONVERGENCE_INDICES:
        calls.clear()
        assert zeta_trunc(k, upper) == eval_dp(zeta_chain(k), upper), k
        assert len(calls) == (upper >= TREE_GAP), k


@pytest.fixture
def flat_walks(monkeypatch):
    """The list of (fence, nodes) of every trie walk `main_sweep` makes
    during a test."""
    walks = []
    real = mzv_real.trie_walk
    monkeypatch.setattr(mzv_real, "trie_walk", lambda upper, nodes:
                        walks.append((upper, list(nodes))) or real(upper, nodes))
    return walks


def test_flat_walk_matches_oracles(flat_walks):
    """Every index of weight <= 6 at fences 0..16, read by `main_sweep`
    from one walk of the trie of all their block forms per fence, equals
    enumeration; zeta_flat, one dynamic program over a block form, keeps
    its messages for an empty index and a negative fence."""
    tasks = [(main_identity_check, {"k": k, "upper": n, "method": "dp"})
             for k in indices_up_to_weight(6) for n in range(17)]
    for (_, kwargs), report in zip(tasks, main_sweep(tasks), strict=True):
        k, n = kwargs["k"], kwargs["upper"]
        assert report.rhs == fraction_str(eval_enum(flat_chain(k), n)), (k, n)
    assert [n for n, nodes in flat_walks] == list(range(17))
    assert all(len(nodes) == 63 for _, nodes in flat_walks)
    with pytest.raises(ValueError, match="need a nonempty index"):
        zeta_flat((), 5)
    with pytest.raises(ValueError, match="upper fence must be non-negative"):
        zeta_flat((1, 2), -1)


def test_sweep_walks_each_fence_once(flat_walks, capsys):
    """verify main hands its grid to one `main_sweep` call, which walks
    the whole trie at each fence once, at its first read, and every later
    check reads that walk; fence 1 holds no tuple and walks zero layers."""
    from zetaflat.cli import main

    assert main(["verify", "main", "--max-weight", "4", "--max-upper", "9"]) == 0
    capsys.readouterr()
    assert sorted((n, len(nodes)) for n, nodes in flat_walks) == [
        (n, 15) for n in range(1, 10)]


def _key(report):
    out = report.to_json_dict()
    del out["elapsed_ms"]
    return out


def test_sweep_past_the_table_budget(flat_walks, monkeypatch):
    """Under a budget of 300 bits, `budget_runs` cuts main's grid of weight
    3 and fences 1..6 only where the index changes: the indices of weight
    <= 2 in one run (3 nodes * 2 * 6^2 = 216 bits), and each index of
    weight 3 in a run of its own, past the budget alone (3 * 3 * 36 = 324).
    Each run walks the trie of its own block forms once per fence, a
    one-index run too, and holds a fence's table, one value per index of
    the run, read in place, from its first read to its last read in the
    run only: a one-index run holds none across fences.  Every report
    equals its check called alone."""
    tasks = [(main_identity_check, {"k": k, "upper": n, "method": "dp"})
             for k in indices_up_to_weight(3) for n in range(1, 7)]
    alone = [_key(fn(**kwargs)) for fn, kwargs in tasks]
    flat_walks.clear()
    monkeypatch.setattr(mzv_real, "FLAT_TABLE_BITS", 300)
    runs = [[kwargs["k"] for _, kwargs in run]
            for run, *_ in mzv_real.budget_runs(tasks, "main")]
    assert sum(runs, []) == [kwargs["k"] for _, kwargs in tasks]
    assert [list(dict.fromkeys(run)) for run in runs] == [
        [(1,), (1, 1), (2,)], [(1, 1, 1)], [(1, 2)], [(2, 1)], [(3,)]]
    run_of = [r for r, run in enumerate(runs) for _ in run]
    reads = {}  # (run, fence) -> places of its first and last read
    for i, (_, kwargs) in enumerate(tasks):
        place = run_of[i], kwargs["upper"]
        reads[place] = reads.get(place, (i,))[0], i
    sweep = mzv_real.main_sweep(tasks)
    for i, report in enumerate(sweep):
        assert _key(report) == alone[i]
        frame = sweep.gi_frame.f_locals
        tables, k, upper = frame["tables"], tasks[i][1]["k"], tasks[i][1]["upper"]
        assert sorted(tables) == [n for (r, n), (first, end) in sorted(reads.items())
                                  if r == run_of[i] and first <= i < end]
        assert all(len(values) == len(set(runs[run_of[i]]))
                   for values, _ in tables.values())
        if upper in tables:  # the value just read stays in place
            values, lam = tables[upper]
            assert Fraction(values[frame["places"][k]], lam ** sum(k)) == (
                zeta_flat(k, upper))
    assert flat_walks == [(n, chain_trie(map(flat_chain, set(run))))
                          for run in runs for n in range(1, 7)]


def test_sweep_computes_each_lcm_once(monkeypatch, capsys):
    """main_sweep keeps each fence's lcm(1..N) with its walk, so fences
    past the size of the lcm cache are not computed again per index."""
    import math

    from zetaflat.cli import main

    calls = []
    real = math.lcm
    monkeypatch.setattr(math, "lcm", lambda *args: calls.append(len(args))
                        or real(*args))
    lcm_upto.cache_clear()
    assert main(["verify", "main", "--max-weight", "2", "--max-upper", "80"]) == 0
    capsys.readouterr()
    assert len(calls) <= 81


def test_sweep_fails_on_one_changed_flat_value(monkeypatch, capsys):
    """main_sweep decides on integers: add 1 to the flat value of (2, 1)
    at fence 7 and verify main exits 1 with that one check failing, its
    sides the two values as fraction_str renders them."""
    import json

    from zetaflat.cli import main

    k, fence = (2, 1), 7
    strict = zeta_trunc(k, fence)
    flat = zeta_flat(k, fence) + Fraction(1, lcm_upto(fence) ** 3)
    assert strict != flat
    real, target = mzv_real.trie_walk, flat_chain(k).positions

    def walk(upper, nodes):
        for node, layer in zip(nodes, real(upper, nodes)):
            shifted = (upper, node) == (fence, target)
            yield [layer[0] + 1, *layer[1:]] if shifted else layer

    monkeypatch.setattr(mzv_real, "trie_walk", walk)
    assert main(["verify", "main", "--max-weight", "4", "--max-upper", "9",
                 "--json"]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == "FAIL 134/135"
    failed = [r for r in map(json.loads, out.splitlines()) if not r["pass"]]
    assert [(r["inputs"], r["lhs"], r["rhs"]) for r in failed] == [
        ({"k": "2,1", "N": "7"}, fraction_str(strict), fraction_str(flat))]
