"""Combinatorics of exponent indices.

An index is a finite tuple of positive integers.  This module is pure
combinatorics on such tuples: weight and depth, the two block
decompositions and the dualities built on them, the comma/plus refinement
order with coarsening and refinement enumerations and the intervals
between two indices, block-boundary position sets, and the shift
operations pairing a non-negative vector with an index.

Everything here is exact and deterministic; enumerations come back sorted
lexicographically so downstream sweeps and reports are reproducible.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass


class Index(tuple):
    """A finite sequence of positive integers.

    The empty index is a valid value; operations with no sensible meaning
    on it reject it explicitly.  Indices compare, hash, and iterate exactly
    like the underlying tuples.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(
                    f"index entries must be positive integers, got {p!r}")
        return super().__new__(cls, parts)

    @property
    def weight(self):
        return sum(self)

    @property
    def depth(self):
        return len(self)

    @property
    def admissible(self):
        """True when the index is nonempty and its last entry is >= 2."""
        return len(self) > 0 and self[-1] >= 2

    def __repr__(self):
        return f"Index({tuple(self)!r})"


def as_index(k) -> Index:
    return k if isinstance(k, Index) else Index(k)


_TOKEN = re.compile(r"(\d+)(?:\^(\d+))?")


def parse_index(text: str) -> Index:
    """Parse index text like "2,3,1" into an Index.

    A token "v^r" repeats the entry v exactly r times, so "1^4,2" means
    (1,1,1,1,2).  The empty string is the empty index.
    """
    text = text.strip()
    if not text:
        return Index()
    parts = []
    for token in text.split(","):
        token = token.strip()
        m = _TOKEN.fullmatch(token)
        if m is None:
            raise ValueError(f"bad index token {token!r}")
        value = int(m.group(1))
        count = int(m.group(2)) if m.group(2) is not None else 1
        if count < 1:
            raise ValueError(f"repetition count must be positive in {token!r}")
        parts.extend([value] * count)
    return Index(parts)


def format_index(k) -> str:
    """Inverse of parse_index, without the repetition shorthand."""
    return ",".join(str(p) for p in as_index(k))


@dataclass(frozen=True)
class ABDecomposition:
    """Run-length block decomposition of an index.

    Each block is a pair (a, b) of positive integers.  In the "admissible"
    flavor a block (a, b) stands for the segment ({1}^(a-1), b+1); the last
    entry of the index being >= 2 makes this parse exist and be unique.  In
    the "hoffman" flavor every block but the last reads the same way, while
    the final block (a, b) stands for ({1}^(a-1), b) with b >= 1 arbitrary,
    which covers every nonempty index.
    """

    pairs: tuple
    flavor: str

    def __post_init__(self):
        if self.flavor not in ("admissible", "hoffman"):
            raise ValueError(f"unknown decomposition flavor {self.flavor!r}")
        if not self.pairs:
            raise ValueError("decomposition needs at least one block")
        for a, b in self.pairs:
            if a < 1 or b < 1:
                raise ValueError(f"block entries must be positive, got {(a, b)}")

    def reconstruct(self) -> Index:
        parts = []
        last = len(self.pairs) - 1
        for i, (a, b) in enumerate(self.pairs):
            parts.extend([1] * (a - 1))
            if self.flavor == "hoffman" and i == last:
                parts.append(b)
            else:
                parts.append(b + 1)
        return Index(parts)


def ab_decompose(k) -> ABDecomposition:
    """Unique admissible-flavor decomposition of an admissible index."""
    k = as_index(k)
    if not k.admissible:
        raise ValueError(f"index {tuple(k)} is not admissible")
    pairs = []
    i = 0
    while i < len(k):
        a = 1
        while k[i] == 1:
            a += 1
            i += 1
        pairs.append((a, k[i] - 1))
        i += 1
    return ABDecomposition(tuple(pairs), "admissible")


def hoffman_decompose(k) -> ABDecomposition:
    """Unique hoffman-flavor decomposition of a nonempty index."""
    k = as_index(k)
    if not k:
        raise ValueError("cannot decompose the empty index")
    pairs = []
    i = 0
    r = len(k)
    while True:
        a = 1
        while i < r - 1 and k[i] == 1:
            a += 1
            i += 1
        if i == r - 1:
            pairs.append((a, k[i]))
            return ABDecomposition(tuple(pairs), "hoffman")
        pairs.append((a, k[i] - 1))
        i += 1


def dual(k) -> Index:
    """Duality on admissible indices: reverse the blocks and swap roles.

    Under ({1}^(a_1-1), b_1+1, ..., {1}^(a_s-1), b_s+1) the image is
    ({1}^(b_s-1), a_s+1, ..., {1}^(b_1-1), a_1+1).  An involution that
    preserves weight.
    """
    dec = ab_decompose(k)
    swapped = tuple((b, a) for a, b in reversed(dec.pairs))
    return ABDecomposition(swapped, "admissible").reconstruct()


def hoffman_dual(k) -> Index:
    """Duality on nonempty indices swapping the two block roles in place.

    Under the hoffman-flavor parse ({1}^(a_1-1), b_1+1, ..., {1}^(a_s-1), b_s)
    the image is (a_1, {1}^(b_1-1), a_2+1, ..., a_s+1, {1}^(b_s-1)).  An
    involution that preserves weight.
    """
    dec = hoffman_decompose(k)
    parts = []
    for i, (a, b) in enumerate(dec.pairs):
        parts.append(a if i == 0 else a + 1)
        parts.extend([1] * (b - 1))
    return Index(parts)


def _comma_positions(k) -> frozenset:
    """Positions in {1..weight-1} where k places a part boundary."""
    acc = 0
    out = set()
    for p in k[:-1]:
        acc += p
        out.add(acc)
    return frozenset(out)


def _from_commas(weight, commas) -> Index:
    cuts = [0] + sorted(commas) + [weight]
    return Index(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))


def coarsenings(k) -> list:
    """All indices obtained from k by merging adjacent parts (comma -> plus).

    Contains k itself and the single-part index (weight,); exactly
    2^(depth-1) elements, sorted lexicographically.
    """
    k = as_index(k)
    if not k:
        raise ValueError("the empty index has no coarsenings")
    w = k.weight
    commas = sorted(_comma_positions(k))
    out = []
    for take in range(len(commas) + 1):
        for sub in itertools.combinations(commas, take):
            out.append(_from_commas(w, sub))
    return sorted(out)


def refinements(k) -> list:
    """All indices that coarsen to k (plus -> comma within each part).

    Exactly prod(2^(k_i - 1)) elements, sorted lexicographically.
    """
    k = as_index(k)
    if not k:
        raise ValueError("the empty index has no refinements")
    per_part = [compositions_of(p) for p in k]
    out = []
    for combo in itertools.product(*per_part):
        parts = []
        for piece in combo:
            parts.extend(piece)
        out.append(Index(parts))
    return sorted(out)


def squeeze_lattice(coarse, fine) -> list:
    """All indices m with coarse a coarsening of m and m one of fine.

    Generated directly: their comma sets are commas(coarse) | S for every
    subset S of commas(fine) - commas(coarse), so 2^|difference| indices
    instead of every refinement of coarse filtered by `refines`.  Empty
    when coarse is not a coarsening of fine; sorted lexicographically.
    """
    coarse = as_index(coarse)
    fine = as_index(fine)
    if not coarse or not fine:
        raise ValueError("the empty index has no refinements")
    w = coarse.weight
    base = _comma_positions(coarse)
    commas = _comma_positions(fine)
    if fine.weight != w or not base <= commas:
        return []
    extra = sorted(commas - base)
    out = []
    for take in range(len(extra) + 1):
        for sub in itertools.combinations(extra, take):
            out.append(_from_commas(w, base.union(sub)))
    return sorted(out)


def compositions_of(w) -> list:
    """All compositions of the positive integer w, sorted lexicographically."""
    if w < 1:
        raise ValueError("compositions are defined for positive integers")
    out = []
    for take in range(w):
        for sub in itertools.combinations(range(1, w), take):
            out.append(_from_commas(w, sub))
    return sorted(out)


def indices_of_weight(w) -> list:
    """Alias for compositions_of, reading the integer as an index weight."""
    return compositions_of(w)


def indices_up_to_weight(w) -> list:
    """All nonempty indices of weight <= w, in (weight, lex) order."""
    out = []
    for v in range(1, w + 1):
        out.extend(compositions_of(v))
    return out


def refines(coarse, fine) -> bool:
    """True when coarse arises from fine by merging adjacent parts."""
    coarse = as_index(coarse)
    fine = as_index(fine)
    if coarse.weight != fine.weight or not coarse or not fine:
        return False
    return _comma_positions(coarse) <= _comma_positions(fine)


def boundary_set(k) -> frozenset:
    """Positions opening a block of k, final fence included.

    For k = (k_1, ..., k_r) of weight w this is {1, k_1+1, k_1+k_2+1, ...,
    w+1}: the positions, in a chain of w variables fenced by 0 and N, where
    the relation tightens to strict.
    """
    k = as_index(k)
    if not k:
        raise ValueError("the empty index has no boundary set")
    out = {1}
    acc = 0
    for p in k:
        acc += p
        out.add(acc + 1)
    return frozenset(out)


def boundary_set_tilde(k) -> frozenset:
    """Block-opening positions of k without the final fence."""
    k = as_index(k)
    if not k:
        raise ValueError("the empty index has no boundary set")
    return frozenset(boundary_set(k) - {k.weight + 1})


def oplus(shift, k) -> Index:
    """Entrywise sum of a non-negative shift vector and an index."""
    k = as_index(k)
    shift = _check_shift(shift, len(k))
    return Index(s + p for s, p in zip(shift, k))


def oslash(shift, k) -> Index:
    """Interleaved combination (s_1+1, {1}^(k_1-1), ..., s_r+1, {1}^(k_r-1)).

    Same weight as oplus(shift, k), and oplus(shift, k) is always one of its
    coarsenings: each oslash block (s_i+1, {1}^(k_i-1)) merges to s_i + k_i.
    """
    k = as_index(k)
    shift = _check_shift(shift, len(k))
    parts = []
    for s, p in zip(shift, k):
        parts.append(s + 1)
        parts.extend([1] * (p - 1))
    return Index(parts)


def _check_shift(shift, depth):
    shift = tuple(shift)
    if len(shift) != depth:
        raise ValueError(
            f"shift length {len(shift)} does not match index depth {depth}")
    for s in shift:
        if not isinstance(s, int) or s < 0:
            raise ValueError(f"shift entries must be non-negative integers, got {s!r}")
    return shift


def shift_vectors(depth, total):
    """All non-negative integer vectors of the given length summing to total."""
    if depth < 0 or total < 0:
        raise ValueError("depth and total must be non-negative")
    if depth == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in shift_vectors(depth - 1, total - first):
            yield (first,) + rest
