"""Connectors, connected sums, and the telescoping route between the
strict truncated sum and its reflected block form.

The connector C_N(n, m) = binom(m, n) / binom(N, n) couples a strict
ascending chain on the left to a reflected block chain on the right.  Two
transport identities move one exponent at a time across the connector;
depth many applications telescope zeta_trunc(k, N+1) into
zeta_flat(k, N+1), and `telescope` materializes the whole route as a
trace of equal-valued connected sums.

Both sides of a connected sum are endpoint values of the shared chain
engine: zeta_chain(left) at fence N+1 pinned at its last variable v, and
the reflected tilde_chain(right) at fence N, read at N - u, pinned at its
first variable u.  The connector couples them through the inner sums
sum_{u >= v} binom(u, v) b[N - u], which `binomial_sums` forms for every
v at once by additions only (a Taylor shift by 1), over the denominator
lcm_v binom(N, v).

`telescope` and `connected_sum` evaluate one stage at a time, as
Fractions, and stay the independent path; `verify telescope` runs
`telescope_sweep`, which gives the same stages, integers over their
scales, from trie walks its routes share: of the left chains, the
reflected right chains and the block forms.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import comb, lcm
from operator import mul

from .chainsum import (
    endpoint_values,
    eval_dp,
    flat_chain,
    lcm_upto,
    reflect_chain,
    tilde_chain,
    trie_walk,
    zeta_chain,
)
from .index_algebra import Index, as_index, format_index
from .mzv_real import _trie, budget_runs
from .reports import fraction_str, make_report, ratio_report


@lru_cache(maxsize=1 << 13)
def connector(upper, n, m) -> Fraction:
    """binom(m, n) / binom(N, n) for 0 <= n <= m <= N.

    The per-pair transport checks and `eval connector` read it.  The
    cache stays because the benchmark reads its `cache_info()`; 8192
    entries hold every pair (n, m) of a fence up to N = 126, and the
    bound keeps it from growing by N^2 / 2 entries per fence.
    """
    if not 0 <= n <= m <= upper:
        raise ValueError(f"need 0 <= n <= m <= N, got n={n}, m={m}, N={upper}")
    return Fraction(comb(m, n), comb(upper, n))


def transport_weight_down_check(upper, n, m):
    """A harmonic factor crosses the connector:

    (1/n) C_N(n, m)  ==  sum_{n <= b <= m} C_N(n, b) (1/b),  0 < n <= m <= N.
    """
    started = time.perf_counter()
    if not 0 < n <= m <= upper:
        raise ValueError(f"need 0 < n <= m <= N, got n={n}, m={m}, N={upper}")
    lhs = Fraction(1, n) * connector(upper, n, m)
    rhs = sum((connector(upper, n, b) * Fraction(1, b) for b in range(n, m + 1)),
              Fraction(0))
    return make_report("transport1", {"N": upper, "n": n, "m": m},
                       lhs, rhs, started)


def transport_weight_up_check(upper, n, m):
    """A harmonic factor re-emerges reflected on the far side:

    sum_{n < a <= m} (1/a) C_N(a, m)  ==  sum_{n <= b < m} C_N(n, b) / (N - b),
    for 0 <= n < m <= N.
    """
    started = time.perf_counter()
    if not 0 <= n < m <= upper:
        raise ValueError(f"need 0 <= n < m <= N, got n={n}, m={m}, N={upper}")
    lhs = sum((Fraction(1, a) * connector(upper, a, m) for a in range(n + 1, m + 1)),
              Fraction(0))
    rhs = sum((connector(upper, n, b) * Fraction(1, upper - b)
               for b in range(n, m)), Fraction(0))
    return make_report("transport2", {"N": upper, "n": n, "m": m},
                       lhs, rhs, started)


def transport_failures(which, upper):
    """The pairs (n, m), m then n ascending, where transport `which` fails
    at fence N: transport1 over 0 < n <= m <= N, transport2 over
    0 <= n < m <= N.

    Every term binom(b, n) / (b binom(N, n)) or binom(b, n) / ((N - b)
    binom(N, n)) is an integer over D = lcm_v binom(N, v) lcm(1..N), so
    each side is a running sum of integers: in m for transport1 and for
    transport2's rhs, in a descending for transport2's lhs.  Each pair is
    compared on its own, as the per-pair checks compare it.
    """
    row = [comb(upper, v) for v in range(upper + 1)]
    den = lcm(*row)
    cofactors = [den // c for c in row]
    harm = lcm_upto(upper)
    inverses = [0] + [harm // b for b in range(1, upper + 1)]  # 1/b over harm
    bad = []
    if which == 1:
        rhs = [0] * (upper + 1)  # rhs[n]: sum over n <= b <= m
        for m in range(1, upper + 1):
            for n in range(1, m + 1):
                term = comb(m, n) * cofactors[n]
                rhs[n] += term * inverses[m]
                if term * inverses[n] != rhs[n]:
                    bad.append((n, m))
        return bad
    rhs = [0] * upper  # rhs[n]: sum over n <= b < m
    for m in range(1, upper + 1):
        for n in range(m):
            rhs[n] += comb(m - 1, n) * cofactors[n] * inverses[upper - m + 1]
        # lhs[n]: sum over n < a <= m, accumulated from a = m down
        lhs = list(accumulate(comb(m, a) * cofactors[a] * inverses[a]
                              for a in range(m, 0, -1)))[::-1]
        bad += [(n, m) for n in range(m) if lhs[n] != rhs[n]]
    return bad


def connected_sum(upper, left, right) -> Fraction:
    """The connector-coupled double sum Z_N(left | right).

    Boundary cases are definitions, not computations: an empty right side
    means zeta_trunc(left, N+1), an empty left side zeta_flat(right, N+1).
    Both sides empty is rejected.  Otherwise the sum over v <= u of
    A[v] C_N(v, u) B[u] is formed over the denominator lcm_v binom(N, v).
    """
    left = as_index(left)
    right = as_index(right)
    if upper < 1:
        raise ValueError("the fence N must be at least 1")
    if not left and not right:
        raise ValueError("connected sum needs at least one nonempty side")
    if not right:
        return eval_dp(zeta_chain(left), upper + 1)
    if not left:
        return eval_dp(flat_chain(right), upper + 1)
    right_values = endpoint_values(reflect_chain(tilde_chain(right)), upper)
    left_values = endpoint_values(zeta_chain(left), upper + 1)
    return Fraction(*_middle_stages(right_values, _binomials(upper), [left_values])[0])


def binomial_sums(x) -> list:
    """[sum_{u >= v} binom(u, v) x[u] for v in range(len(x))], by additions.

    These are the coefficients of p(t + 1) for p(t) = sum_u x[u] t^u.
    With the tail sum (T y)[w] = sum_{u > w} y[u], the hockey stick
    binom(u, v) = sum_{w < u} binom(w, v - 1) makes sum v the total of
    T^v x.  On x reversed, T is one pass of running sums that drops its
    last entry, which is the total: len(x)^2 / 2 additions in all.
    """
    run, out = x[::-1], []
    while run:
        run = list(accumulate(run))
        out.append(run.pop())
    return out


def _binomials(upper):
    """(cofactors, den): den = lcm_v binom(N, v), cofactor v = den / binom(N, v)."""
    row = [1]
    for v in range(1, upper + 1):
        row.append(row[-1] * (upper + 1 - v) // v)
    den = lcm(*row)
    return [den // b for b in row], den


def _middle_stages(right, binomials, lefts):
    """(num, den) of Z_N(left | right) for the endpoint values (a, sa) of
    zeta_chain(left) at fence N + 1 or above, for each left side in `lefts`.

    With (b, sb) = `right`, the endpoint values of the reflected tilde
    chain at N, and (cofactors, den) = `binomials`, the sum is
    sum_v a[v] cofactor[v] sum_{u >= v} binom(u, v) b[N - u] / (sa sb den).
    """
    (b, sb), (cofactors, den) = right, binomials
    w = list(map(mul, cofactors, binomial_sums(b[::-1])))
    return [(sum(map(mul, a, w)), sa * sb * den) for a, sa in lefts]


class TelescopeStage(namedtuple("TelescopeStage", ("left", "right", "value"))):
    """One connected sum Z_N(left | right) of a telescoping route."""

    __slots__ = ()

    def line(self, upper) -> str:
        return (f"Z_{upper}({format_index(self.left)} | "
                f"{format_index(self.right)}) = {fraction_str(self.value)}")


class TelescopeTrace(namedtuple("TelescopeTrace", ("index", "upper", "stages"))):
    """The full telescoping route for one index at one fence.

    Stage j carries left = k[: r - j] and right = k[r - j :]; stage 0 is
    the strict truncated sum at N+1, stage r the reflected block form at
    N+1, and every stage in between a genuine connected sum.  All stage
    values are equal exactly when the route telescopes.
    """

    __slots__ = ()

    @property
    def all_equal(self) -> bool:
        return all(s.value == self.stages[0].value for s in self.stages)

    def to_text(self) -> str:
        return "\n".join(s.line(self.upper) for s in self.stages)

    def to_json_dict(self) -> dict:
        return {
            "index": format_index(self.index),
            "N": self.upper,
            "stages": [
                {"left": format_index(s.left), "right": format_index(s.right),
                 "value": fraction_str(s.value)}
                for s in self.stages
            ],
            "all_equal": self.all_equal,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def telescope(k, upper) -> TelescopeTrace:
    """Evaluate every stage of the telescoping route for a nonempty index."""
    k = as_index(k)
    if not k:
        raise ValueError("need a nonempty index")
    if upper < 1:
        raise ValueError("the fence N must be at least 1")
    r = k.depth
    stages = []
    for j in range(r + 1):
        left = Index(k[:r - j])
        right = Index(k[r - j:])
        stages.append(TelescopeStage(
            left=left, right=right, value=connected_sum(upper, left, right)))
    return TelescopeTrace(index=k, upper=upper, stages=tuple(stages))


def telescope_report(name, upper, stages, started):
    """The `verify telescope` report of one route from its stage values,
    each an integer pair (num, den), den > 0, in any terms, for the index
    that `format_index` renders as `name`: stage 0 against stage r if every
    stage equals stage 0 by cross-multiplication, else "stages diverge".

    The end stages are zeta_trunc(k, N+1) and zeta_flat(k, N+1) by the
    boundary convention of connected_sum.
    """
    num, den = stages[0]
    last = (stages[-1] if all(a * den == num * b for a, b in stages[1:])
            else "stages diverge")
    return ratio_report("telescope", {"k": name, "N": upper}, stages[0],
                        last, started, notes={"stages": len(stages)})


def telescope_sweep(tasks):
    """`telescope_report` of each (check, kwargs) task of `tasks`, in
    order, swept in `budget_runs`, each run read once with tables of its
    own (`_telescope_run`)."""
    for run, forms, last in budget_runs(tasks, "telescope"):
        yield from _telescope_run(run, forms, last)


def _telescope_run(run, forms, last):
    """The reports of a run of `telescope_sweep`, from one read of its
    tasks, planned by `budget_runs` (forms, last).  One walk of the strict
    chains' trie at the top fence + 1 gives every left layer and stage 0
    (endpoint values of zeta_chain(left) at v <= N do not depend on the
    fence).  A fence's first read walks the trie of the block forms at
    N + 1 for stage r and the trie of the right chains at N; each right
    layer, on the fence's binomial cofactors, at once gives the middle
    stage of every route of the run that ends in its suffix
    (`_middle_stages`), and is dropped.  Each stage is an integer pair; a
    fence keeps each route's middle stages and last numerator until its
    last task."""
    top = max(last) + 1
    lefts = {m: zeta_chain(m) for m in dict.fromkeys(
        k[:i] for k in forms for i in range(1, len(k) + 1))}
    rights = {s: reflect_chain(tilde_chain(s)) for s in dict.fromkeys(
        k[j:] for k in forms for j in range(1, len(k)))}
    (nodes, _, at), (blocks, block_mask, place), (right, right_mask, order) = map(
        _trie, (lefts, forms, rights))
    lefts = {m: (layer, lcm_upto(top) ** sum(m)) for m, layer in zip(
        sorted(lefts, key=at.get), trie_walk(top, nodes))}  # one node per left
    routes = {s: ([], []) for s in sorted(rights, key=order.get)}
    for k in forms:  # the (place, stage) and the left side of each middle
        for j in range(1, len(k)):
            routes[k[j:]][0].append((place[k], len(k) - j - 1))
            routes[k[j:]][1].append(lefts[k[:j]])
    ks, tables = sorted(forms, key=place.get), {}
    for i, (_, kwargs) in enumerate(run):
        started = time.perf_counter()
        k, n = kwargs["k"], kwargs["upper"]
        if n not in tables:
            binomials = _binomials(n)
            table = [[*[None] * (len(m) - 1), sum(layer)] for m, layer in zip(
                ks, compress(trie_walk(n + 1, blocks), block_mask))]
            formed = [_middle_stages((layer, lcm_upto(n) ** sum(s)),
                                     binomials, sides)
                      for (s, (_, sides)), layer in zip(routes.items(), compress(
                          trie_walk(n, right), right_mask))]
            for (targets, _), values in zip(routes.values(), formed):
                for (p, j), value in zip(targets, values):
                    table[p][j] = value
            tables[n] = table, lcm_upto(n + 1)
        table, lam = tables[n] if last[n] > i else tables.pop(n)
        (front, scale), (*middles, flat) = lefts[k], table[place[k]]
        stages = [(sum(front[:n + 1]), scale), *middles, (flat, lam ** sum(k))]
        yield telescope_report(format_index(k), n, stages, started)
