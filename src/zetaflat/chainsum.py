"""Compilation and exact evaluation of constrained chain sums.

A chain sum ranges over integer tuples 0 R n_1 R n_2 ... R n_k R N where
each relation R is < or <=, and each position contributes a factor
1/((N - n)^a * n^e).  Truncated multiple harmonic sums, their reflected
Riemann-sum forms, weak-inequality star variants, and the boundary sums
behind the duality discrepancy all compile to this shape.

Two exact evaluators share the compiled form: `eval_enum` enumerates every
tuple directly and is kept as the trusted oracle; `eval_dp` is the
prefix-sum dynamic program used everywhere at scale.  The program's final
layer holds the value at each endpoint v, the sum over the tuples whose
last variable is v; `endpoint_values` returns that layer, and connected
sums and the binomial identity are built from it.  `eval_dp_mod` runs
the dynamic program in Z/m.  All three run on the pure-Python kernels in
`zetaflat._kernels`, on rows per (weight, fence): cached denominators (the
exact program plans multipliers from them) and their inverses mod m.
`trie_walk` runs it over the trie of several chains (`chain_trie`), once
per fence for a prefix they share.

Internally values are integers scaled by lcm(1..N)^degree, so no rational
reduction happens until the final Fraction is formed.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from ._kernels import dp_sum, dp_sum_mod, enum_sum
from .errors import NonUnitError
from .index_algebra import as_index, boundary_set_tilde


class Weight(namedtuple("Weight", ("refl", "harm"))):
    """Per-position factor 1/((N - n)^refl * n^harm)."""

    __slots__ = ()

    def __new__(cls, refl=0, harm=0):
        if refl < 0 or harm < 0:
            raise ValueError("weight exponents must be non-negative")
        if refl + harm < 1:
            raise ValueError("a weight needs total degree at least 1")
        return super().__new__(cls, refl, harm)

    @property
    def degree(self):
        return self.refl + self.harm

    def denominator_at(self, n, upper):
        return (upper - n) ** self.refl * n ** self.harm


HARMONIC = Weight(harm=1)
REFLECTED = Weight(refl=1)


class Position(namedtuple("Position", ("weight", "strict_before"))):
    """A chain position: its weight, and whether the relation entering it
    is strict."""

    __slots__ = ()


class ChainSpec:
    """A compiled chain: positions with entering relations, plus the
    relation against the upper fence N (strict by default)."""

    __slots__ = ("positions", "terminal_strict")

    def __init__(self, positions, terminal_strict=True):
        if not positions:
            raise ValueError("a chain needs at least one position")
        for pos in positions:
            if not isinstance(pos, Position):
                raise ValueError(f"expected Position, got {pos!r}")
        self.positions = positions
        self.terminal_strict = terminal_strict

    def __eq__(self, other):
        if not isinstance(other, ChainSpec):
            return NotImplemented
        return (self.positions, self.terminal_strict) == (
            other.positions, other.terminal_strict)

    def __hash__(self):
        return hash((self.positions, self.terminal_strict))

    def __repr__(self):
        return (f"ChainSpec(positions={self.positions!r}, "
                f"terminal_strict={self.terminal_strict!r})")

    @property
    def length(self):
        return len(self.positions)

    @property
    def degree(self):
        return sum(p.weight.degree for p in self.positions)


def zeta_chain(k) -> ChainSpec:
    """Strictly increasing chain with factors 1/n_i^k_i."""
    k = as_index(k)
    if not k:
        raise ValueError("need a nonempty index")
    return ChainSpec(tuple(Position(Weight(harm=p), True) for p in k))


def zeta_star_chain(k) -> ChainSpec:
    """Weakly increasing chain (strict against both fences)."""
    k = as_index(k)
    if not k:
        raise ValueError("need a nonempty index")
    return ChainSpec(tuple(
        Position(Weight(harm=p), i == 0) for i, p in enumerate(k)))


def hoffman_weak_chain(k) -> ChainSpec:
    """Weakly increasing chain allowed to reach the fence: 1 <= n_1 <= ... <= n_r <= N."""
    return ChainSpec(zeta_star_chain(k).positions, terminal_strict=False)


def flat_chain(k) -> ChainSpec:
    """The reflected block form of a nonempty index.

    One position per unit of weight; relations are strict exactly where a
    block of k opens (and against both fences); the factor is 1/(N - n) at
    block-opening positions and 1/n elsewhere.  Defined for every index;
    admissibility only matters for the N -> infinity limit.
    """
    return _block_chain(as_index(k), REFLECTED, strict_only_at_starts=True)


def flat_support_chain(k) -> ChainSpec:
    """Same tuple set as flat_chain(k) but with every factor 1/n."""
    return _block_chain(as_index(k), HARMONIC, strict_only_at_starts=True)


def riemann_chain(k) -> ChainSpec:
    """Fully strict variant of flat_chain(k): the plain Riemann sum shape.

    Only admissible indices are accepted; for the others the sum this
    shape discretizes does not converge.
    """
    k = as_index(k)
    if not k.admissible:
        raise ValueError(f"index {tuple(k)} is not admissible")
    return _block_chain(k, REFLECTED, strict_only_at_starts=False)


def tilde_chain(l) -> ChainSpec:
    """The right-hand chain of a connected sum.

    Factors as in flat_chain, but the strict gaps follow the block
    openings instead of preceding them: the relation after position j
    (the terminal one for j = weight) is strict exactly when j opens a
    block, which keeps each factor 1/(N - m) away from zero; the relation
    entering position 1 is strict.
    """
    l = as_index(l)
    if not l:
        raise ValueError("need a nonempty index")
    starts = boundary_set_tilde(l)
    return ChainSpec(tuple(
        Position(REFLECTED if j in starts else HARMONIC, j == 1 or j - 1 in starts)
        for j in range(1, l.weight + 1)),
        terminal_strict=l.weight in starts)


def _block_chain(k, start_weight, strict_only_at_starts):
    if not k:
        raise ValueError("need a nonempty index")
    opening = Position(start_weight, True)
    inside = Position(HARMONIC, not strict_only_at_starts)
    # Each part p opens a block: one opening position, then p - 1 inside.
    return ChainSpec(sum(((opening,) + (inside,) * (p - 1) for p in k), ()))


def reflect_chain(spec: ChainSpec) -> ChainSpec:
    """Reverse a chain through n -> N - n.

    Positions reverse and their factor exponents swap roles; the relation
    entering the first new position is the old terminal relation, relation
    j >= 2 is the old relation entering mirror position, and the new
    terminal relation is the old first one.  Value-preserving for any spec
    and any N.
    """
    k = spec.length
    old = spec.positions
    positions = []
    for j in range(k):
        mirror = old[k - 1 - j]
        w = Weight(refl=mirror.weight.harm, harm=mirror.weight.refl)
        strict = spec.terminal_strict if j == 0 else old[k - j].strict_before
        positions.append(Position(w, strict))
    return ChainSpec(tuple(positions), terminal_strict=old[0].strict_before)


def equality_strata(spec: ChainSpec):
    """Split a chain over the equality pattern of its weak relations.

    Yields (pattern, merged) pairs, one per subset of the weak interior
    relations: the pattern is the frozenset of (0-based) positions fused
    into their predecessor, and merged is the fully strict chain with the
    tied positions fused and their exponents added.  The values of the
    merged chains over a common fence sum to the value of `spec`.
    Requires a chain that is strict against both fences.
    """
    if not spec.positions[0].strict_before or not spec.terminal_strict:
        raise ValueError("stratification needs strict fences")
    weak = [i for i in range(1, spec.length) if not spec.positions[i].strict_before]
    for mask in range(1 << len(weak)):
        tied = frozenset(weak[j] for j in range(len(weak)) if mask >> j & 1)
        merged_weights = []
        for i, pos in enumerate(spec.positions):
            if i in tied:
                prev = merged_weights[-1]
                merged_weights[-1] = Weight(
                    refl=prev.refl + pos.weight.refl,
                    harm=prev.harm + pos.weight.harm)
            else:
                merged_weights.append(pos.weight)
        merged = ChainSpec(tuple(Position(w, True) for w in merged_weights))
        yield tied, merged


@lru_cache(maxsize=64)
def lcm_upto(n):
    """lcm(1..n), or 1 for n <= 1: the product of p^floor(log_p n), p prime."""
    sieve, lcm = bytearray([1]) * (n + 1), 1
    for p in range(2, n + 1):
        if sieve[p]:
            power = p
            while power * p <= n:
                power *= p
            if power > p:
                sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
            lcm *= power
    return lcm


def _bands(spec, upper):
    k = spec.length
    stricts = [p.strict_before for p in spec.positions]
    lbs = [0] * k
    lbs[0] = 1 if stricts[0] else 0
    for i in range(1, k):
        lbs[i] = lbs[i - 1] + (1 if stricts[i] else 0)
    ubs = [0] * k
    ubs[k - 1] = upper - 1 if spec.terminal_strict else upper
    for i in range(k - 2, -1, -1):
        ubs[i] = ubs[i + 1] - (1 if stricts[i + 1] else 0)
    return stricts, lbs, ubs


def _plan(spec, upper, modulus=None, multipliers=False):
    """Rows and bands for evaluating `spec` at fence `upper`.

    Without a modulus, row i holds the exact denominator of position i at
    each n up to the fence (`_denominator_row`, cached), or with
    `multipliers` a lazy iterator of what `dp_sum` multiplies by:
    lam // den[n] for n on band i alone, lam = lcm(1..upper)^degree of
    position i, so no zero off the band is divided.  With a modulus, the
    inverse of the denominator mod `modulus` (`_residue_row`).
    Returns None when the tuple set is empty.  Raises ValueError if some
    reachable point has a zero denominator (a weight undefined there), and
    with a modulus NonUnitError at the first band point, in (position, n)
    order, whose denominator is not a unit.
    """
    if upper < 0:
        raise ValueError("upper fence must be non-negative")
    stricts, lbs, ubs = _bands(spec, upper)
    if any(lb > ub for lb, ub in zip(lbs, ubs)):
        return None
    weights = [pos.weight for pos in spec.positions]
    for i, w in enumerate(weights):
        # A weight is undefined only at n = 0 (harmonic part) or n = upper
        # (reflected part), the two ends a band can reach.
        if w.harm and lbs[i] == 0:
            n = 0
        elif w.refl and ubs[i] == upper:
            n = upper
        else:
            continue
        raise ValueError(
            f"weight at position {i + 1} undefined at n={n} "
            f"(zero denominator with fence {upper})")
    if modulus is None:
        rows = [_denominator_row(w.refl, w.harm, upper) for w in weights]
        if multipliers:
            lcm = lcm_upto(upper)
            rows = [map((lcm ** w.degree).__floordiv__, row[lo:hi + 1])
                    for row, w, lo, hi in zip(rows, weights, lbs, ubs)]
        return rows, stricts, lbs, ubs
    rows = [_residue_row(w.refl, w.harm, upper, modulus) for w in weights]
    for i, row in enumerate(rows):
        try:
            n = row.index(0, lbs[i], ubs[i] + 1)
        except ValueError:
            continue
        value = weights[i].denominator_at(n, upper) % modulus
        raise NonUnitError(
            f"denominator {value} at position {i + 1}, n={n} "
            f"is not a unit mod {modulus}",
            position=i + 1, n=n, value=value, modulus=modulus)
    return rows, stricts, lbs, ubs


@lru_cache(maxsize=256)
def _denominator_row(refl, harm, upper):
    """(upper - n)^refl * n^harm for 0 <= n <= upper, as a tuple.

    `verify main --max-weight 8` reads 85 rows up to fence 40 and 205 up
    to fence 100 (`cache_info().misses`): the two step rows of the
    `zeta_flat` walk at each fence from 2, and one row per exponent at
    the top fence for the strict columns.  Under the default caps (fence
    4096, weight 8) a row takes at most 190 KB, so the cache stays under
    50 MB.
    """
    return tuple((upper - n) ** refl * n ** harm for n in range(upper + 1))


@lru_cache(maxsize=64)
def _inverse_table(upper, modulus):
    """inv[i] = 1/i mod modulus for 0 <= i <= upper, and 0 where i is no unit.

    Built by inv[i] = -(modulus // i) * inv[modulus % i], which holds
    whenever modulus % i is a unit (for a prime power p^n, at every
    i < p); the other entries fall back to pow.  Kept as a compact array
    when the modulus fits in 64 bits.  The cache holds the table mod p^N
    of each of the 46 primes up to 199 that a sweep walks once.
    """
    inv = [0] * (upper + 1)
    for i in range(1, upper + 1):
        r = i % modulus
        if r < i:
            inv[i] = inv[r]
        elif inv[modulus % r]:
            inv[i] = -(modulus // r) * inv[modulus % r] % modulus
        elif math.gcd(r, modulus) == 1:
            inv[i] = pow(r, -1, modulus)
    return array("q", inv) if modulus < 1 << 63 else inv


def _residue_row(refl, harm, upper, modulus):
    """1/((upper - n)^refl * n^harm) mod modulus for 0 <= n <= upper.

    An entry is 0 exactly where the denominator is not a unit: a factor
    with a positive exponent has no inverse there.  Built from the cached
    `_inverse_table` at each call: a trie walk plans each distinct
    position once per (fence, modulus).
    """
    inv = _inverse_table(upper, modulus)
    row = inv if harm == 1 else [pow(x, harm, modulus) for x in inv]
    if refl:
        row = [pow(x, refl, modulus) * y % modulus
               for x, y in zip(reversed(inv), row)]
    return tuple(row)


def eval_enum(spec: ChainSpec, upper) -> Fraction:
    """Sum the chain by direct enumeration (the oracle evaluator)."""
    plan = _plan(spec, upper)
    if plan is None:
        return Fraction(0)
    scale = lcm_upto(upper) ** spec.degree
    return Fraction(enum_sum(*plan, scale), scale)


def endpoint_values(spec: ChainSpec, upper):
    """The final layer of the prefix-sum dynamic program, as (front, scale).

    front[v] / scale, for 0 <= v <= upper, is the chain sum over the
    tuples whose last variable equals v; the scale is
    lcm(1..upper)^degree, even where no tuple fits.
    """
    plan = _plan(spec, upper, multipliers=True)
    scale = lcm_upto(upper) ** spec.degree
    if plan is None:
        return [0] * (upper + 1), scale
    return dp_sum(*plan, [1] + [0] * upper), scale


def eval_dp(spec: ChainSpec, upper) -> Fraction:
    """Sum the chain by the prefix-sum dynamic program (the workhorse)."""
    front, scale = endpoint_values(spec, upper)
    return Fraction(sum(front), scale)


def chain_trie(chains):
    """Every prefix of the positions of the compiled `chains`, sorted.

    A prefix sorts before its extensions, and the extensions of a node
    sort directly after it, so this is a depth-first pre-order of the
    chains' trie: a node's parent is the last node before it one
    position shorter.
    """
    return sorted({spec.positions[:i] for spec in chains
                   for i in range(1, spec.length + 1)})


def trie_walk(upper, nodes, modulus=None):
    """The final layer of the dynamic program at each node of a chain trie.

    `nodes` are tuples of positions in pre-order (`chain_trie`), each the
    chain of its positions strict against the fence N = upper.  Each
    distinct position is planned once, on the band [1, N - 1], or [0, N -
    1] where it enters weakly without a factor 1/n, and a node's layer is
    its parent's extended by it through `dp_sum` (scaled by
    lcm(1..N)^degree) or, with a modulus, through `dp_sum_mod`; an empty
    band gives a zero layer.  Yields each node's layer, which the walk
    reads again and so must not be changed.
    """
    kernel = dp_sum if modulus is None else dp_sum_mod
    extra = () if modulus is None else (modulus,)
    plans, zeros = {}, [0] * (upper + 1)
    layers = [[1] + [0] * upper]
    for node in nodes:
        plan = plans.get(pos := node[-1])
        if plan is None:  # () once planned empty
            band = Position(pos.weight, pos.strict_before or pos.weight.harm > 0)
            plan = _plan(ChainSpec((band,)), upper, modulus, multipliers=True)
            plan = plans[pos] = plan and ([tuple(plan[0][0])], [pos.strict_before],
                                          *plan[2:], *extra) or ()
        del layers[len(node):]
        layers.append(kernel(*plan, layers[-1]) if plan else zeros)
        yield layers[-1]


def eval_dp_mod(spec: ChainSpec, upper, modulus) -> Residue:
    """Sum the chain in Z/modulus.

    Every per-position denominator on the feasible band must be a unit;
    otherwise NonUnitError identifies the first offender.  The kernel
    multiplies by inverse denominators taken from tables cached per
    (upper, modulus), so nothing is inverted per band point.  When the
    exact value has a denominator coprime to the modulus, this equals the
    exact value reduced.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    plan = _plan(spec, upper, modulus)
    if plan is None:
        return Residue(0, modulus)
    start = [1] + [0] * upper
    return Residue(sum(dp_sum_mod(*plan, modulus, start)), modulus)


class Residue:
    """An element of Z/modulus with explicit, checked inversion."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError("modulus must be an integer >= 2")
        self.value = value % modulus
        self.modulus = modulus

    def __eq__(self, other):
        if not isinstance(other, Residue):
            return NotImplemented
        return (self.value, self.modulus) == (other.value, other.modulus)

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"Residue(value={self.value!r}, modulus={self.modulus!r})"

    def _match(self, other):
        if not isinstance(other, Residue):
            raise TypeError(f"cannot combine Residue with {other!r}")
        if other.modulus != self.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")
        return other

    def __add__(self, other):
        other = self._match(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other):
        other = self._match(other)
        return Residue(self.value - other.value, self.modulus)

    def __mul__(self, other):
        other = self._match(other)
        return Residue(self.value * other.value, self.modulus)

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def inverse(self) -> Residue:
        try:
            inv = pow(self.value, -1, self.modulus)
        except ValueError:
            raise NonUnitError(
                f"{self.value} is not a unit mod {self.modulus}",
                value=self.value, modulus=self.modulus) from None
        return Residue(inv, self.modulus)

    @classmethod
    def from_fraction(cls, q, modulus) -> Residue:
        q = Fraction(q)
        den = cls(q.denominator, modulus).inverse()
        return cls(q.numerator, modulus) * den

    def __str__(self):
        return f"{self.value} mod {self.modulus}"
