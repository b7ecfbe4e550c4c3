"""Truncated multiple harmonic sums over the rationals.

The central pair: the strict truncated sum

    zeta_trunc(k, N)  =  sum over 0 < n_1 < ... < n_r < N of prod 1/n_i^k_i

and its reflected block form zeta_flat(k, N), a sum with one variable per
unit of weight, weak inequalities inside blocks, and a factor 1/(N - n) at
each block opening.  The two are equal for every admissible k and every N;
this module also carries the fully strict Riemann-sum variant (which is
NOT equal), the weak-inequality star sum, the exact duality discrepancy
decomposition, and the convergence table for the duality defect.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from ._kernels import harmonic_tree
from .chainsum import (
    endpoint_values,
    equality_strata,
    eval_dp,
    eval_enum,
    flat_chain,
    lcm_upto,
    reflect_chain,
    riemann_chain,
    trie_walk,
    zeta_chain,
    zeta_star_chain,
)
from .index_algebra import as_index, dual, format_index
from .reports import decimal_str, make_report


def _eval(spec, upper, method):
    if method == "dp":
        return eval_dp(spec, upper)
    if method == "enum":
        return eval_enum(spec, upper)
    raise ValueError(f"unknown evaluation method {method!r}")


def zeta_trunc(k, upper, method="dp") -> Fraction:
    """Strict truncated sum of depth len(k) below the fence `upper`.

    The dynamic-programming path is a one-fence `zeta_trunc_column`, so a
    fence of TREE_GAP or more takes the product tree.
    """
    return zeta_trunc_column(k, [upper], method)[0]


# A column with a gap of at least this many steps between its fences goes
# to the product tree.  On one fence (Python 3.11, 2-core x86 VM; table in
# BENCH_big_fence.json) the tree overtakes the endpoint DP between
# N = 512 and 1024 at depths 2-8 and wins 6-15x at N = 4096.
TREE_GAP = 1024


def zeta_trunc_column(k, uppers, method="dp") -> list:
    """zeta_trunc(k, N) for each fence N in `uppers`, in their order.

    A sparse column (a gap of TREE_GAP or more between consecutive
    fences, counted from 0) multiplies the steps of each gap in a product
    tree (`harmonic_tree`), so its work grows with the fences asked for,
    not with every n below the top one.  Any other column reads every
    value as a partial sum of the final layer of one dynamic program at
    the top fence: for a dense column that is one cheap step per fence,
    where the tree would pay a row update and a division over a
    denominator near ((N-1)!)^max(k) at each fence (3.6-8x slower on
    0..1200).  Both paths give each value exactly, as an integer over
    lcm(1..N)^weight.  Enumeration (and a negative fence, which raises)
    still goes one fence at a time.
    """
    uppers = list(uppers)
    spec = zeta_chain(k)
    if method != "dp" or min(uppers, default=-1) < 0:
        return [_eval(spec, n, method) for n in uppers]
    fences = sorted(set(uppers))
    if max(b - a for a, b in zip([0] + fences, fences)) >= TREE_GAP:
        scales = [lcm_upto(n) ** spec.degree for n in fences]
        exps = [p.weight.harm for p in spec.positions]
        values = map(Fraction, harmonic_tree(exps, fences, scales), scales)
    else:
        front, scale = endpoint_values(spec, fences[-1])
        values, run, prev = [], 0, 0
        for n in fences:
            run += sum(front[prev:n])
            prev = n
            values.append(Fraction(run, scale))
    table = dict(zip(fences, values))
    return [table[n] for n in uppers]


def zeta_star_trunc(k, upper, method="dp") -> Fraction:
    """Weak-inequality variant; equals the sum of zeta_trunc over coarsenings."""
    return _eval(zeta_star_chain(k), upper, method)


# The two steps of the weight trie, a block opening (strict, 1/(N - n))
# and a continuation (weak, 1/n): the positions of flat_chain((2,)).
_OPENING, _CONTINUATION = flat_chain((2,)).positions


def _flat_walk(upper, nodes, keep=None):
    """{k: zeta_flat(k, N) * lcm(1..N)^weight(k)} for k in `nodes`, N = upper,
    or only for those k also in `keep`.

    The block form of k is its parent's in the weight trie (see
    `trie_order`) plus a block opening, strict with factor 1/(N - n), if k
    ends in 1, else a weak continuation with factor 1/n: a `trie_walk` step
    at depth weight(k).  `nodes` must be closed under parents and in trie
    order, and the fence at least 2."""
    steps = ((sum(k), _OPENING if k[-1] == 1 else _CONTINUATION) for k in nodes)
    return {k: sum(layer) for k, layer in zip(nodes, trie_walk(upper, steps))
            if keep is None or k in keep}


def _branch(k):
    """k and its ancestors in the weight trie, in trie order."""
    return [k[:i] + (j,) for i, part in enumerate(k) for j in range(1, part + 1)]


def runs(tasks, fits):
    """`tasks` cut only where the index changes into runs: `fits(run, group)`
    is asked of each index's group in turn, the first with an empty run,
    and a group that fails opens a run."""
    run = []
    for _, group in groupby(tasks, lambda task: task[1]["k"]):
        if not fits(run, group := list(group)) and run:
            yield run
            run = []
        run += group
    if run:
        yield run


# Bits a sweep's tables hold over a run of top weight W and top fence N
# whose branches cover `nodes` weight-trie nodes (2^W - 1 on a full grid):
# a table per fence in main, up to W times as much in telescope's left
# layers and waiting stages.  So weight 8 is one run up to N = 256 in main
# (10 MiB of values) and N = 89 in telescope; an index past it runs alone.
TABLE_BITS = {"main": lambda nodes, w, n: nodes * w * n ** 2,
              "telescope": lambda nodes, w, n: nodes * w ** 2 * (n + 1) ** 2}
FLAT_TABLE_BITS = 1 << 27


def budget_runs(tasks, sweep):
    """`runs` of `tasks` within FLAT_TABLE_BITS by the estimate of `sweep`, each
    with {index: place}, its nodes in trie order and its fences' last tasks."""
    covered, tops = set(), (0, 0)

    def fits(run, group):
        nonlocal covered, tops
        k = tuple(group[0][1]["k"])
        own = set(_branch(k)), (sum(k), max(kw["upper"] for _, kw in group))
        grown = covered | own[0], tuple(map(max, tops, own[1]))
        joins = TABLE_BITS[sweep](len(grown[0]), *grown[1]) <= FLAT_TABLE_BITS
        covered, tops = grown if joins else own
        return joins

    for run in runs(tasks, fits):
        ks = {k: i for i, k in enumerate({tuple(kw["k"]): 0 for _, kw in run})}
        yield run, ks, sorted({node for k in ks for node in _branch(k)}), {
            kwargs["upper"]: i for i, (_, kwargs) in enumerate(run)}


def zeta_flat(k, upper, method="dp") -> Fraction:
    """Reflected block form of a nonempty index; equals zeta_trunc.

    The dynamic-programming path walks k's branch of the weight trie at
    the fence (`_flat_walk`), one step per unit of weight, which costs
    what one dynamic program over flat_chain(k) costs.  `main_sweep`
    shares one walk per fence among many indices.
    """
    if method != "dp":
        return _eval(flat_chain(k), upper, method)
    k = as_index(k)
    if not k:
        raise ValueError("need a nonempty index")
    if 0 <= upper <= 1:
        return Fraction(0)  # the first variable needs 1 <= n <= N - 1
    k = tuple(k)
    return Fraction(_flat_walk(upper, _branch(k))[k],
                    lcm_upto(upper) ** sum(k))


def main_identity_check(k, upper, method="dp"):
    """Check the paper's identity zeta_trunc(k, N) == zeta_flat(k, N)."""
    started = time.perf_counter()
    return make_report("main", {"k": format_index(k), "N": upper},
                       zeta_trunc(k, upper, method),
                       zeta_flat(k, upper, method), started)


def main_sweep(tasks):
    """`main_identity_check` for each (check, kwargs) task, in order, swept
    in `budget_runs`.  An index reads its strict sums from one
    `zeta_trunc_column` to its run's top fence.  A fence's first read in a
    run walks the run's branches; the fence keeps lcm(1..N) and a list of
    the run's indices' values, each taken as read, until its last read.
    Any other read (again, --method enum, fences 0 and 1) takes `zeta_flat`."""
    for run, ks, nodes, last in budget_runs(tasks, "main"):
        top, column_of, tables = max(last), None, {}
        for i, (_, kwargs) in enumerate(run):
            started = time.perf_counter()
            upper, method = kwargs["upper"], kwargs["method"]
            if kwargs["k"] != column_of:
                column_of = kwargs["k"]
                k = as_index(column_of)
                name, place, weight = format_index(k), ks[k], k.weight
                column = zeta_trunc_column(k, range(top + 1), method)
            if upper not in tables:
                dp = method == "dp" and upper > 1
                values = _flat_walk(upper, nodes, ks) if dp else {}
                tables[upper] = list(map(values.get, ks)), lcm_upto(upper)
            values, lam = tables[upper] if last[upper] > i else tables.pop(upper)
            value, values[place] = values[place], None
            flat = (zeta_flat(k, upper, method) if value is None
                    else Fraction(value, lam ** weight))
            yield make_report("main", {"k": name, "N": upper},
                              column[upper], flat, started)


def riemann_sum(k, upper, method="dp") -> Fraction:
    """Fully strict variant of zeta_flat; converges to the same limit but
    differs from zeta_trunc at finite fences (the weak in-block
    inequalities carry real mass)."""
    return _eval(riemann_chain(k), upper, method)


DiscrepancyTerm = namedtuple("DiscrepancyTerm", ("sign", "tied", "spec", "value"))


class DiscrepancyBreakdown(namedtuple("DiscrepancyBreakdown",
                                      ("index", "upper", "lhs", "terms"))):
    """Exact decomposition of zeta_trunc(k, N) - zeta_trunc(dual(k), N).

    The defect of the duality at a finite fence is a signed sum of fully
    strict chain sums with mixed factors: the strata of the reflected block
    form of k that tie at least one weak relation, minus the strata of the
    reflected image of the block form of dual(k).  `lhs` is the defect;
    the term values always add up to it exactly.
    """

    __slots__ = ()

    def signed_total(self) -> Fraction:
        return sum((t.sign * t.value for t in self.terms), Fraction(0))

    @property
    def holds(self) -> bool:
        return self.lhs == self.signed_total()


def discrepancy(k, upper, method="dp") -> DiscrepancyBreakdown:
    """Decompose the duality defect of an admissible index exactly."""
    k = as_index(k)
    kd = dual(k)
    side_a = flat_chain(k)
    side_b = reflect_chain(flat_chain(kd))
    # Reflecting the dual's block form reproduces the weights of k's own
    # block form position by position; only the relation pattern differs.
    # That is the combinatorial heart of the duality, so check it here.
    for p, q in zip(side_a.positions, side_b.positions):
        if p.weight != q.weight:
            raise AssertionError(
                f"weight mismatch between block forms of {tuple(k)} and its dual")
    lhs = zeta_trunc(k, upper, method) - zeta_trunc(kd, upper, method)
    terms = []
    for sign, spec in ((1, side_a), (-1, side_b)):
        for tied, merged in equality_strata(spec):
            if not tied:
                continue
            terms.append(DiscrepancyTerm(
                sign=sign, tied=tied, spec=merged,
                value=_eval(merged, upper, method)))
    return DiscrepancyBreakdown(index=k, upper=upper, lhs=lhs, terms=tuple(terms))


def log2_discretization_check(upper):
    """Alternating harmonic partial sum against its reflected tail form.

    sum_{n=1}^{2N-1} (-1)^(n-1)/n  ==  sum_{n=0}^{N-1} 1/(N+n), exactly.
    """
    started = time.perf_counter()
    den = lcm_upto(2 * upper - 1)
    q = [den // j for j in range(1, 2 * upper)]  # 1/j over den, j < 2N
    lhs = Fraction(sum(q[::2]) - sum(q[1::2]), den)
    rhs = Fraction(sum(q[upper - 1:]), den)
    return make_report("log2", {"upper": upper}, lhs, rhs, started)


class ConvergenceRow(namedtuple("ConvergenceRow", ("upper", "diff", "decimal"))):
    """|zeta_trunc(k, N) - zeta_trunc(dual(k), N)| at one fence N, exact
    and as a decimal string."""

    __slots__ = ()


def duality_convergence(k, uppers, method="dp", *,
                        column=zeta_trunc_column) -> list:
    """Table of |zeta_trunc(k, N) - zeta_trunc(dual(k), N)| over fences N,
    each side read as `column(index, tuple of fences, method)`."""
    k = as_index(k)
    kd = dual(k)
    uppers = tuple(uppers)
    diffs = [abs(a - b) for a, b in zip(column(k, uppers, method),
                                        column(kd, uppers, method))]
    return [ConvergenceRow(upper=n, diff=d, decimal=decimal_str(d))
            for n, d in zip(uppers, diffs)]


def duality_sweep(tasks):
    """The report of each (check, kwargs) task, in order; the checks read
    their columns through one cache local to the sweep, so each distinct
    (index, fences) column is computed once, at its first read."""
    column = lru_cache(maxsize=None)(zeta_trunc_column)
    for check, kwargs in tasks:
        yield check(**kwargs, column=column)
