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

`telescope` and `connected_sum` evaluate one stage at a time and stay the
independent path; `verify telescope` runs `telescope_sweep`, which gives
the same stages from the left layers, right sides and `_flat_walk`s that
its routes share.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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
from .mzv_real import _flat_walk, budget_runs
from .reports import fraction_str, make_report


@lru_cache(maxsize=1 << 13)
def connector(upper, n, m) -> Fraction:
    """binom(m, n) / binom(N, n) for 0 <= n <= m <= N.

    A transport sweep reads one fence at a time, and 8192 entries hold
    every pair (n, m) of a fence up to N = 126, so the bound costs no
    hits there while keeping the cache from growing by N^2 / 2 entries
    per fence.
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
    left_values = endpoint_values(zeta_chain(left), upper + 1)
    return _connected_sums(right, upper, _binomials(upper), [left_values])[0]


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


def _connected_sums(right, upper, binomials, lefts):
    """Z_N(left | right) for the endpoint values (a, sa) of zeta_chain(left)
    at fence N + 1 or above, for each left side in `lefts`.

    With (b, sb) the endpoint values of the reflected tilde_chain(right)
    at N, and (cofactors, den) = `binomials`, the sum is
    sum_v a[v] cofactor[v] sum_{u >= v} binom(u, v) b[N - u] / (sa sb den).
    """
    b, sb = endpoint_values(reflect_chain(tilde_chain(right)), upper)
    cofactors, den = binomials
    w = list(map(mul, cofactors, binomial_sums(b[::-1])))
    return [Fraction(sum(map(mul, a, w)), sa * sb * den) for a, sa in lefts]


@dataclass(frozen=True)
class TelescopeStage:
    left: Index
    right: Index
    value: Fraction

    def line(self, upper) -> str:
        return (f"Z_{upper}({format_index(self.left)} | "
                f"{format_index(self.right)}) = {fraction_str(self.value)}")


@dataclass(frozen=True)
class TelescopeTrace:
    """The full telescoping route for one index at one fence.

    Stage j carries left = k[: r - j] and right = k[r - j :]; stage 0 is
    the strict truncated sum at N+1, stage r the reflected block form at
    N+1, and every stage in between a genuine connected sum.  All stage
    values are equal exactly when the route telescopes.
    """

    index: Index
    upper: int
    stages: tuple

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


def telescope_report(k, upper, values, started):
    """The `verify telescope` report of one route from its stage values.

    The end stages are zeta_trunc(k, N+1) and zeta_flat(k, N+1) by the
    boundary convention of connected_sum.
    """
    last = values[-1] if all(v == values[0] for v in values) else "stages diverge"
    return make_report("telescope", {"k": format_index(k), "N": upper},
                       values[0], last, started, notes={"stages": len(values)})


def telescope_sweep(tasks):
    """`telescope_report` of each (check, kwargs) task, in order, swept in
    `budget_runs`.  In a run, one `trie_walk` of the prefix trie at the top
    fence + 1 gives every left layer and stage 0 (endpoint values of
    zeta_chain(left) at v <= N do not depend on the fence); the first read
    of a (suffix, fence) evaluates its right side, on the fence's binomial
    cofactors, for every route ending in it (`_connected_sums`); stage r
    comes from one `_flat_walk` per fence + 1 that keeps the run's indices.
    Stages are popped as read, and a fence's tables go after its last task
    in the run.  A route read again, its stages taken, runs `telescope`."""
    for run, ks, nodes, last in budget_runs(tasks, "telescope"):
        routes = [(as_index(kwargs["k"]), kwargs["upper"]) for _, kwargs in run]
        top = max(last) + 1
        prefixes = sorted({k[:i] for k in ks for i in range(1, len(k) + 1)})
        steps = {e: zeta_chain((e,)).positions[0] for e in {m[-1] for m in prefixes}}
        layers = trie_walk(top, ((len(m), steps[m[-1]]) for m in prefixes))
        lefts = {m: (layer, lcm_upto(top) ** sum(m)) for m, layer in zip(prefixes, layers)}
        readers, fences, middles = {}, {}, {}
        for k, n in dict.fromkeys(routes):
            for j in range(1, k.depth):
                readers.setdefault((k[j:], n), []).append(k[:j])
        for i, (k, n) in enumerate(routes):
            started = time.perf_counter()
            if n not in fences:
                fences[n] = _binomials(n), lcm_upto(n + 1), _flat_walk(n + 1, nodes, ks)
            binomials, lcm_n, flats = fences[n] if last[n] > i else fences.pop(n)
            if k not in flats:  # a route read before: its stages are taken
                values = [stage.value for stage in telescope(k, n).stages]
            else:
                front, scale = lefts[k]
                values = [Fraction(sum(front[:n + 1]), scale)]
                for j in range(k.depth - 1, 0, -1):
                    right = k[j:]
                    if (right, n) in readers:  # its first read
                        stage_lefts = readers.pop((right, n))
                        middles.update(zip(
                            ((left, right, n) for left in stage_lefts),
                            _connected_sums(right, n, binomials,
                                            [lefts[left] for left in stage_lefts])))
                    values.append(middles.pop((k[:j], right, n)))
                values.append(Fraction(flats.pop(k), lcm_n ** k.weight))
            del binomials, flats  # past the fence's last task, its tables go
            yield telescope_report(k, n, values, started)
        del lefts  # before the next run's
