"""Duality congruences for truncated sums at prime fences.

Everything here works one prime coordinate at a time: a congruence that
holds "for all primes" (or all but finitely many) is checked by reducing
the exact truncated sums mod p, or mod p^n for the lifted statements, and
sweeping p over a configurable range.  No completed quotient object is
ever built; a sweep over a prime range is the desk-scale certificate.

The lifted congruences mod p^n with n >= 2 can genuinely fail at small
primes.  For those, the sweep-then-pin protocol applies: a one-off sweep
records the smallest prime P0 from which the check passes through the top
of the range, and the pinned thresholds live in a committed fixtures file
(see `load_thresholds`).  Thresholds are measured, never guessed.

Strict residues mod p^n come from walks of the trie of strict chains
(`_walk`, on `chainsum.trie_walk`), 0 for a chain deeper than p - 1.  A
check reads them through its `zeta` keyword, zeta(m, p, n) =
zeta_trunc(m, p) mod p^n: by default from a walk of each index's
prefixes, and in `residue_sweep` from one walk per prime mod p^N of one
trie built per sweep (`residue_lookups`).
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from math import comb
from pathlib import Path

from .chainsum import (
    Residue,
    chain_trie,
    endpoint_values,
    eval_dp_mod,
    flat_chain,
    flat_support_chain,
    hoffman_weak_chain,
    trie_walk,
    zeta_chain,
)
from .index_algebra import (
    Index,
    as_index,
    coarsenings,
    format_index,
    hoffman_dual,
    indices_up_to_weight,
    oplus,
    oslash,
    parse_index,
    refinements,
    shift_vectors,
    squeeze_lattice,
)
from .mzv_real import _trie
from .reports import make_report, ratio_report

_MR_BASES = (2, 7, 61)
_PRIME_CAP = 1 << 31


def is_prime(m) -> bool:
    """Deterministic Miller-Rabin with bases 2, 7, 61.

    This base set is exact for every m below 4759123141, comfortably
    above the enforced cap of 2^31.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"need an integer, got {m!r}")
    if m >= _PRIME_CAP:
        raise ValueError(f"primality testing is capped below 2^31, got {m}")
    if m < 2:
        return False
    for b in _MR_BASES:
        if m == b:
            return True
        if m % b == 0:
            return False
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primes_in(lo, hi) -> list:
    """All primes p with lo <= p <= hi, ascending."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def _checked(k, p, n):
    """k as an Index, once p is a prime, n a positive integer and k nonempty."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"exponent must be a positive integer, got {n!r}")
    k = as_index(k)
    if not k:
        raise ValueError("need a nonempty index")
    return k


def _walk(p, n, nodes):
    """zeta_trunc(m, p) mod p^n for the strict chain m of each node of a
    `chain_trie`, in its order."""
    mod = p ** n
    return [sum(layer) % mod for layer in trie_walk(p, nodes, mod)]


@lru_cache(maxsize=1 << 14)
def _zeta_residue(k, p, n):
    """zeta_trunc(k, p) mod p^n as an int, from a walk of k's prefixes."""
    return _walk(p, n, chain_trie([zeta_chain(k)]))[-1]


def _star(k, p, n, *, zeta=_zeta_residue):
    return sum(zeta(tuple(l), p, n) for l in coarsenings(k))


def zeta_mod(k, p, n=1) -> Residue:
    """The strict truncated sum at fence p, reduced mod p^n.

    Every denominator lies in [1, p-1], so reduction never meets a
    non-unit.
    """
    return Residue(_zeta_residue(tuple(_checked(k, p, n)), p, n), p ** n)


def zeta_star_mod(k, p, n=1) -> Residue:
    """The weak-inequality variant mod p^n, as a sum over coarsenings."""
    return Residue(_star(_checked(k, p, n), p, n), p ** n)


def hoffman_duality_check(k, p, *, zeta=_zeta_residue):
    """Check that the weak sum at k and at its Hoffman dual cancel mod p."""
    started = time.perf_counter()
    k = _checked(k, p, 1)
    lhs = Residue(_star(k, p, 1, zeta=zeta), p)
    rhs = Residue(-_star(hoffman_dual(k), p, 1, zeta=zeta), p)
    return make_report(
        "hoffman-duality", {"k": format_index(k), "p": p}, lhs, rhs, started)


def antipode_duality_check(k, p, *, zeta=_zeta_residue):
    """Check the refinement-sum reflection of the strict sum mod p.

    The strict sum at k equals (-1)^depth times the sum of the strict
    sums over all refinements of k.
    """
    started = time.perf_counter()
    k = _checked(k, p, 1)
    lhs = Residue(zeta(tuple(k), p, 1), p)
    total = sum(zeta(tuple(l), p, 1) for l in refinements(k))
    rhs = Residue(-total if k.depth % 2 else total, p)
    return make_report(
        "antipode-duality", {"k": format_index(k), "p": p}, lhs, rhs, started)


def flat_mod_identity_check(k, p):
    """Check the mod-p collapse of the reflected block sum.

    At fence p the reflected factors 1/(p-m) turn into -1/m, one sign per
    block, so the block sum is congruent to (-1)^depth times the plain
    harmonic sum over the same tuple set.
    """
    started = time.perf_counter()
    k = _checked(k, p, 1)
    lhs = eval_dp_mod(flat_chain(k), p, p)
    support = eval_dp_mod(flat_support_chain(k), p, p)
    rhs = -support if k.depth % 2 else support
    return make_report(
        "flat-mod", {"k": format_index(k), "p": p}, lhs, rhs, started)


def hoffman_identity_check(k, upper):
    """Check the binomial identity between a weak chain and its dual.

    The weak chain for k reaching the fence equals the weak chain for the
    Hoffman dual l with an alternating binomial attached to the final
    variable: sum over 1 <= m_1 <= ... <= m_s <= N of
    (-1)^(m_s - 1) binom(N, m_s) / (m_1^l_1 ... m_s^l_s).  Exact in Q.
    Both sides read the final layer of a dynamic program at fence N.
    """
    task = (hoffman_identity_check, {"k": k, "upper": upper})
    return next(hoffman_identity_sweep([task]))


def hoffman_identity_sweep(tasks):
    """`hoffman_identity_check` for each (check, kwargs) task, in order;
    each index reads its fences from one pair of dynamic programs at the
    top fence of the tasks."""
    tasks = list(tasks)
    top = max((kwargs["upper"] for _, kwargs in tasks), default=0)
    fronts_of = None
    for _, kwargs in tasks:
        started = time.perf_counter()
        k, upper = as_index(kwargs["k"]), kwargs["upper"]
        if upper < 1:
            raise ValueError("the fence must be at least 1")
        if k != fronts_of:
            # All factors are harmonic, so entries at v <= N are those of
            # fence N.
            fronts_of = k
            front, scale = endpoint_values(hoffman_weak_chain(k), top)
            dual_front, dual_scale = endpoint_values(
                hoffman_weak_chain(hoffman_dual(k)), top)
        lhs = sum(front[:upper + 1]), scale
        rhs = sum((-1) ** (v - 1) * comb(upper, v) * dual_front[v]
                  for v in range(1, upper + 1)), dual_scale
        yield ratio_report("hoffman-identity", {"k": format_index(k), "N": upper},
                           lhs, rhs, started)


@lru_cache(maxsize=16)
def _lattice(k, n):
    """(i, m) for every index m that the lifted reflection of k mod p^n
    weighs by p^i; the same for every prime."""
    return tuple((i, tuple(m)) for i in range(n)
                 for shift in shift_vectors(k.depth, i)
                 for m in squeeze_lattice(oplus(shift, k), oslash(shift, k)))


def padic_duality_check(k, p, n=1, *, zeta=_zeta_residue):
    """Check the lifted reflection of the strict sum mod p^n.

    The strict sum at k is congruent mod p^n to (-1)^depth times
    sum over 0 <= i < n of p^i times the strict sums at all indices m
    squeezed between l (+) k and l (/) k, for every non-negative shift
    vector l of total i.  At n=1 only i=0 survives and the squeeze
    degenerates to the plain refinement sum.
    """
    started = time.perf_counter()
    k = _checked(k, p, n)
    lhs = Residue(zeta(tuple(k), p, n), p ** n)
    total = sum(zeta(m, p, n) * p ** i for i, m in _lattice(k, n))
    rhs = Residue(-total if k.depth % 2 else total, p ** n)
    return make_report(
        "padic-duality",
        {"k": format_index(k), "p": p, "n": n}, lhs, rhs, started)


def seki_lifting_check(k, p, n=1, *, zeta=_zeta_residue):
    """Check the lifted cancellation of weak sums with appended ones.

    Both truncated series sum p^i times the weak sum at the index with i
    ones appended, i < n; the check passes when the series for k and for
    its Hoffman dual cancel mod p^n.  At n=1 this is the plain weak-sum
    cancellation mod p.
    """
    started = time.perf_counter()
    k = _checked(k, p, n)

    def series(base):
        return sum(p ** i * _star(Index(base + (1,) * i), p, n, zeta=zeta)
                   for i in range(n))

    lhs = Residue(series(tuple(k)), p ** n)
    rhs = Residue(-series(tuple(hoffman_dual(k))), p ** n)
    return make_report(
        "seki-lifting",
        {"k": format_index(k), "p": p, "n": n}, lhs, rhs, started)


def residue_lookups(weight, top):
    """The `zeta` of the residue checks of weight <= `weight` at n <= top:
    zeta(m, p, n) reads one walk of p's trie mod p^top of the strict
    chains up to weight weight + top - 1 (`_walk`), made at p's first
    read, mod p^n; every denominator is below p."""
    nodes, _, places = _trie({tuple(m): zeta_chain(m) for m in
                              indices_up_to_weight(weight + top - 1)})
    walks = {}

    def zeta(m, p, n):
        if p not in walks:
            walks[p] = _walk(p, top, nodes)
        return walks[p][places[m]] % p ** n
    return zeta


def residue_sweep(tasks):
    """The report of each (check, kwargs) task of the four residue checks,
    in order, read through `residue_lookups` at the tasks' largest weight
    and exponent; a task without a prime is called as it is."""
    tasks = list(tasks)
    zeta = residue_lookups(
        max((as_index(kw["k"]).weight for _, kw in tasks), default=0),
        max((kw.get("n", 1) for _, kw in tasks if "p" in kw), default=1))
    for check, kwargs in tasks:
        yield check(**kwargs, zeta=zeta) if "p" in kwargs else check(**kwargs)


def min_passing_prime(check, k, n, lo=3, hi=199, *, zeta=_zeta_residue):
    """Smallest P0 with `check(k, p, n)` passing for every prime in [P0, hi].

    Walks the range downward and stops at the first failure, so the
    result certifies the whole tail.  Returns None when even the largest
    prime in range fails.  The check reads its residues through `zeta`.
    """
    best = None
    for p in reversed(primes_in(lo, hi)):
        if not check(k, p, n, zeta=zeta).passed:
            break
        best = p
    return best


PADIC_FIXTURES = "padic_thresholds.txt"
SEKI_FIXTURES = "seki_thresholds.txt"

_DATA_DIR = Path(__file__).resolve().parent / "data"


def fixtures_dir() -> Path:
    """Directory holding pinned threshold files.

    Defaults to the packaged data directory; the ZETAFLAT_FIXTURES_DIR
    environment variable points somewhere else (used by the pinning tool
    and by tests that exercise regression detection).
    """
    override = os.environ.get("ZETAFLAT_FIXTURES_DIR")
    return Path(override) if override else _DATA_DIR


def load_thresholds(name) -> dict:
    """Read an 'index;n;P0' fixtures file into {(index, n): P0}."""
    table = {}
    for raw in (fixtures_dir() / name).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        text, n, p0 = line.split(";")
        table[(parse_index(text), int(n))] = int(p0)
    return table


def save_thresholds(name, table) -> Path:
    """Write {(index, n): P0} in the line format load_thresholds reads."""
    path = fixtures_dir() / name
    lines = [f"{format_index(key)};{n};{p0}"
             for (key, n), p0 in sorted(table.items())]
    path.write_text("\n".join(lines) + "\n")
    return path
