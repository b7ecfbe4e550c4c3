"""Truncated multiple harmonic sums over the rationals.

The central pair: the strict truncated sum

    zeta_trunc(k, N)  =  sum over 0 < n_1 < ... < n_r < N of prod 1/n_i^k_i

and its reflected block form zeta_flat(k, N), a sum with one variable per
unit of weight, weak inequalities inside blocks, and a factor 1/(N - n) at
each block opening.  The two are equal for every admissible k and every N;
`main_sweep` checks that over a grid, reading the block forms of a run
from one walk of their chain trie per fence.  This module also carries
the fully strict Riemann-sum variant (which is NOT equal), the
weak-inequality star sum, the exact duality discrepancy decomposition,
and the convergence table for the duality defect.
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, groupby

from ._kernels import harmonic_tree
from .chainsum import (
    chain_trie,
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
from .reports import decimal_str, make_report, ratio_report


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
# BENCH_big_fence_share.json) the tree overtakes the endpoint DP between
# N = 192 and 448 at depths 2-4 (at 384 on (1,2)) and is 1.4-4.5x faster
# at 512; at depth 1 it trails by at most 0.05 ms until it wins at 1024.
TREE_GAP = 384


def zeta_trunc_column(k, uppers, method="dp") -> list:
    """zeta_trunc(k, N) for each fence N in `uppers`, in their order: from
    one `scaled_column` at the sorted distinct fences, or by enumeration
    (and for a negative fence, which raises) one fence at a time."""
    uppers = list(uppers)
    if method != "dp" or min(uppers, default=-1) < 0:
        return [_eval(zeta_chain(k), n, method) for n in uppers]
    fences = sorted(set(uppers))
    table = dict(zip(fences, map(Fraction, *scaled_column(k, fences))))
    return [table[n] for n in uppers]


def scaled_column(k, fences, entries=None, keep=False):
    """(values, scales), integers with zeta_trunc(k, N) = value / scale at
    the ascending distinct fences N, every scale lcm(1..M)^weight(k).

    A sparse column (a gap of TREE_GAP or more between fences, counted
    from 0) multiplies the steps of each gap in a product tree
    (`harmonic_tree`, sharing `entries` as `keep` says), with M = N, so
    its work grows with the fences asked for, not with every n below the
    top one.  Any other column reads its values as partial sums of the
    final layer of one dynamic program at the top fence M: one cheap
    step per fence, where the tree would pay a one-step product, a row
    update and a renormalisation (2.7-5x slower on 0..1200).
    """
    spec, gaps = zeta_chain(k), list(zip((0, *fences), fences))
    if max(b - a for a, b in gaps) >= TREE_GAP:
        scales = [lcm_upto(n) ** spec.degree for n in fences]
        exps = [p.weight.harm for p in spec.positions]
        return harmonic_tree(exps, fences, scales, entries, keep), scales
    front, scale = endpoint_values(spec, fences[-1])
    runs = accumulate(sum(front[a:b]) for a, b in gaps)
    return list(runs), [scale] * len(fences)


def zeta_star_trunc(k, upper, method="dp") -> Fraction:
    """Weak-inequality variant; equals the sum of zeta_trunc over coarsenings."""
    return _eval(zeta_star_chain(k), upper, method)


def _trie(chains):
    """(nodes, mask, places) of a dict of chains: `compress(trie_walk(N,
    nodes), mask)` yields the layers of the chains of their `chain_trie`
    at N, in trie order, the one of key k at places[k]."""
    nodes = chain_trie(chains.values())
    ends = {spec.positions for spec in chains.values()}
    mask = [node in ends for node in nodes]
    place = {node: i for i, node in enumerate(compress(nodes, mask))}
    return nodes, mask, {key: place[spec.positions] for key, spec in chains.items()}


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
# whose block forms' trie has `nodes` nodes (2^W - 1 on a full grid): a
# table per fence in main, up to W times as much in telescope's left
# layers and stages.  So weight 8 is one run up to N = 256 in main
# (10 MiB of values) and N = 89 in telescope; an index past it runs alone.
TABLE_BITS = {"main": lambda nodes, w, n: nodes * w * n ** 2,
              "telescope": lambda nodes, w, n: nodes * w ** 2 * (n + 1) ** 2}
FLAT_TABLE_BITS = 1 << 27


def budget_runs(tasks, sweep):
    """`runs` of `tasks` within FLAT_TABLE_BITS by the estimate of `sweep`,
    each with {index: block form} of its indices, each compiled once, in
    the order of their first tasks, and its fences' last tasks."""
    covered, tops, forms = set(), (0, 0), {}

    def fits(run, group):
        nonlocal covered, tops
        k = tuple(group[0][1]["k"])
        if k not in forms:
            forms[k] = flat_chain(k)
        own = set(chain_trie([forms[k]])), (sum(k), max(kw["upper"] for _, kw in group))
        grown = covered | own[0], tuple(map(max, tops, own[1]))
        joins = TABLE_BITS[sweep](len(grown[0]), *grown[1]) <= FLAT_TABLE_BITS
        covered, tops = grown if joins else own
        return joins

    for run in runs(tasks, fits):
        yield run, {k: forms[k] for k in dict.fromkeys(
            tuple(kwargs["k"]) for _, kwargs in run)}, {
            kwargs["upper"]: i for i, (_, kwargs) in enumerate(run)}


def zeta_flat(k, upper, method="dp") -> Fraction:
    """Reflected block form of a nonempty index; equals zeta_trunc.

    One dynamic program over flat_chain(k); `main_sweep` shares one trie
    walk per fence among many indices.
    """
    return _eval(flat_chain(k), upper, method)


def main_identity_check(k, upper, method="dp"):
    """Check the paper's identity zeta_trunc(k, N) == zeta_flat(k, N)."""
    started = time.perf_counter()
    return make_report("main", {"k": format_index(k), "N": upper},
                       zeta_trunc(k, upper, method),
                       zeta_flat(k, upper, method), started)


def main_sweep(tasks):
    """`main_identity_check` for each (check, kwargs) task, in order, swept
    in `budget_runs`; a task of another method than "dp" is called alone.
    An index reads its strict sums from one `scaled_column` to its run's
    top fence.  A fence's first read in a run walks the trie of the run's
    block forms; the fence keeps lcm(1..N) and a list of the run's
    indices' values, read by place, until its last task.  The sides meet
    as integers over their scales (`ratio_report`)."""
    for run, forms, last in budget_runs(tasks, "main"):
        top, column_of, tables = max(last), None, {}
        nodes, mask, places = _trie(forms)
        for i, (check, kwargs) in enumerate(run):
            if kwargs["method"] != "dp":
                yield check(**kwargs)
                continue
            started = time.perf_counter()
            upper = kwargs["upper"]
            if kwargs["k"] != column_of:
                column_of = kwargs["k"]
                k = as_index(column_of)
                name, place, weight = format_index(k), places[k], k.weight
                column, scales = scaled_column(k, range(top + 1))
            if upper not in tables:
                tables[upper] = [sum(layer) for layer in compress(
                    trie_walk(upper, nodes), mask)], lcm_upto(upper)
            values, lam = tables[upper] if last[upper] > i else tables.pop(upper)
            yield ratio_report("main", {"k": name, "N": upper},
                               (column[upper], scales[upper]),
                               (values[place], lam ** weight), started)


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
    lhs = sum(q[::2]) - sum(q[1::2]), den
    rhs = sum(q[upper - 1:]), den
    return ratio_report("log2", {"upper": upper}, lhs, rhs, started)


class ConvergenceRow(namedtuple("ConvergenceRow", ("upper", "diff", "decimal"))):
    """|zeta_trunc(k, N) - zeta_trunc(dual(k), N)| at one fence N, exact
    and as a decimal string."""

    __slots__ = ()


def duality_convergence(k, uppers, method="dp") -> list:
    """Table of |zeta_trunc(k, N) - zeta_trunc(dual(k), N)| over fences N,
    each side read from one `zeta_trunc_column`."""
    k = as_index(k)
    kd = dual(k)
    uppers = tuple(uppers)
    diffs = [abs(a - b) for a, b in zip(zeta_trunc_column(k, uppers, method),
                                        zeta_trunc_column(kd, uppers, method))]
    return [ConvergenceRow(upper=n, diff=d, decimal=decimal_str(d))
            for n, d in zip(uppers, diffs)]


def duality_sweep(tasks):
    """The report of each (check, kwargs) task, in order.  The checks read
    the `scaled_column`s of kwargs["k"] and its dual through a cache local
    to the sweep, each computed once, at its first read, and sharing a
    table of tree entries while a later column of its top exponent comes."""
    tasks = list(tasks)
    later = Counter(max(k) for k in dict.fromkeys(
        k for _, kwargs in tasks for k in (kwargs["k"], dual(kwargs["k"]))))
    entries = {}

    @lru_cache(maxsize=None)
    def column(k, fences):
        later[max(k)] -= 1
        return scaled_column(k, fences, entries, later[max(k)] > 0)

    for check, kwargs in tasks:
        yield check(**kwargs, column=column)
