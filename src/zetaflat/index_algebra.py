"""Combinatorics of exponent indices.

An index is a finite tuple of positive integers.  This module is pure
combinatorics on such tuples: weight and depth, the two dualities, the
comma/plus refinement order with its intervals (coarsenings, refinements
and all compositions of a weight are special cases), block-boundary
position sets, and the shift operations pairing a non-negative vector
with an index.

All of it reads one encoding: an index of weight w is its comma set, the
subset of {1..w-1} where its parts end.  Merging parts deletes commas,
Hoffman's duality complements the set, and the duality of multiple zeta
values complements it in {1..w-2} and reflects it.

Everything here is exact and deterministic; enumerations come back sorted
lexicographically so downstream sweeps and reports are reproducible.
"""

from __future__ import annotations

import itertools
import re


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


def _nonempty(k, what) -> Index:
    k = as_index(k)
    if not k:
        raise ValueError(f"the empty index has no {what}")
    return k


def _commas(k) -> frozenset:
    """The comma set of k: the positions in {1..weight-1} where a part ends."""
    return frozenset(itertools.accumulate(k[:-1]))


def _from_commas(weight, commas) -> Index:
    """The index of the given weight whose comma set is `commas`."""
    cuts = [0, *sorted(commas), weight]
    # Cuts strictly increase, so every part is a positive int already.
    return tuple.__new__(Index, [b - a for a, b in zip(cuts, cuts[1:])])


def dual(k) -> Index:
    """Duality on admissible indices: the reflected comma-set complement.

    For k of weight w the image has comma set {w-1-c : c in {1..w-2} not a
    comma of k}; on the word ({1}^(a_1-1), b_1+1, ..., {1}^(a_s-1), b_s+1)
    this is ({1}^(b_s-1), a_s+1, ..., {1}^(b_1-1), a_1+1).  An involution
    that preserves weight.
    """
    k = as_index(k)
    if not k.admissible:
        raise ValueError(f"index {tuple(k)} is not admissible")
    w = k.weight
    commas = _commas(k)
    return _from_commas(w, {w - 1 - c for c in range(1, w - 1) if c not in commas})


def hoffman_dual(k) -> Index:
    """Hoffman's comma/plus duality on nonempty indices.

    The image of k of weight w has the complement of k's comma set in
    {1..w-1} as its comma set: every comma becomes a plus and every plus a
    comma.  An involution that preserves weight.
    """
    k = _nonempty(k, "Hoffman dual")
    w = k.weight
    return _from_commas(w, set(range(1, w)) - _commas(k))


def squeeze_lattice(coarse, fine) -> list:
    """All indices m with coarse a coarsening of m and m one of fine.

    Their comma sets are commas(coarse) | S for every subset S of
    commas(fine) - commas(coarse), so the interval has 2^|difference|
    elements.  Empty when coarse is not a coarsening of fine.  Keeping a
    comma before dropping it, position by position, yields the indices
    in lexicographic order.
    """
    coarse = _nonempty(coarse, "refinements")
    fine = _nonempty(fine, "refinements")
    w = coarse.weight
    base = _commas(coarse)
    commas = _commas(fine)
    if fine.weight != w or not base <= commas:
        return []
    commas = sorted(commas)
    choices = [(True,) if c in base else (True, False) for c in commas]
    return [_from_commas(w, itertools.compress(commas, keep))
            for keep in itertools.product(*choices)]


def coarsenings(k) -> list:
    """All indices obtained from k by merging adjacent parts (comma -> plus).

    Contains k itself and the single-part index (weight,); exactly
    2^(depth-1) elements, sorted lexicographically.
    """
    k = _nonempty(k, "coarsenings")
    return squeeze_lattice((k.weight,), k)


def refinements(k) -> list:
    """All indices that coarsen to k (plus -> comma within each part).

    Exactly prod(2^(k_i - 1)) elements, sorted lexicographically.
    """
    k = _nonempty(k, "refinements")
    return squeeze_lattice(k, (1,) * k.weight)


def compositions_of(w) -> list:
    """All compositions of the positive integer w, sorted lexicographically."""
    if w < 1:
        raise ValueError("compositions are defined for positive integers")
    return squeeze_lattice((w,), (1,) * w)


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
    return _commas(coarse) <= _commas(fine)


def boundary_set_tilde(k) -> frozenset:
    """Positions opening a block of k: {1, k_1+1, ..., k_1+...+k_(r-1)+1}.

    The comma set shifted by one, with 1 added: the positions, in a chain
    of w variables fenced below by 0, where the relation tightens to strict.
    """
    k = _nonempty(k, "boundary set")
    return frozenset({1, *(c + 1 for c in _commas(k))})


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
