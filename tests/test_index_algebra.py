"""Tests for the index combinatorics.

The package encodes an index by its comma set; these tests check it
against a second encoding built here from scratch: an index of weight w is
a binary word of length w carrying a 1 exactly where a part starts.
Reversing and complementing the word is the block-swap duality;
complementing the separator subset is the comma/plus duality.  The
enumerations are checked against all 2^(w-1) words of a weight, filtered
with `refines`, so no oracle calls the enumerator it checks.
"""

import itertools

import pytest

from zetaflat.index_algebra import (
    Index,
    boundary_set_tilde,
    compositions_of,
    coarsenings,
    dual,
    format_index,
    hoffman_dual,
    indices_up_to_weight,
    oplus,
    oslash,
    parse_index,
    refinements,
    refines,
    shift_vectors,
    squeeze_lattice,
)


def word_of(k):
    bits = []
    for p in k:
        bits.append(1)
        bits.extend([0] * (p - 1))
    return bits


def index_of_word(bits):
    assert bits and bits[0] == 1
    parts = []
    for b in bits:
        if b == 1:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def words_of_weight(w):
    """Every index of weight w, one per word starting with its 1."""
    return [index_of_word((1,) + rest)
            for rest in itertools.product((0, 1), repeat=w - 1)]


def dual_oracle(k):
    """Reverse-and-complement word transform, defined only off the parse."""
    return index_of_word([1 - b for b in reversed(word_of(k))])


def separator_set(k):
    acc = 0
    out = set()
    for p in k[:-1]:
        acc += p
        out.add(acc)
    return out


def index_of_separators(w, seps):
    cuts = [0] + sorted(seps) + [w]
    return tuple(cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1))


def hoffman_oracle(k):
    """Complement the separator subset of {1..w-1}."""
    w = sum(k)
    comp = set(range(1, w)) - separator_set(k)
    return index_of_separators(w, comp)


def admissible_indices_up_to(w):
    return [k for k in indices_up_to_weight(w) if k.admissible]


def test_index_basics():
    k = Index((2, 3, 1))
    assert k.weight == 6
    assert k.depth == 3
    assert not k.admissible
    assert Index((2, 3)).admissible
    assert not Index().admissible
    assert Index() == ()
    assert k == (2, 3, 1)
    assert hash(k) == hash((2, 3, 1))


def test_index_rejects_bad_entries():
    for bad in [(0,), (-1, 2), (2, 0), ("2",), (1.5,)]:
        with pytest.raises(ValueError):
            Index(bad)


def test_parse_index():
    assert parse_index("2,3,1") == (2, 3, 1)
    assert parse_index("1^4") == (1, 1, 1, 1)
    assert parse_index("1^4,2") == (1, 1, 1, 1, 2)
    assert parse_index("2^3") == (2, 2, 2)
    assert parse_index(" 2 , 3 ") == (2, 3)
    assert parse_index("") == ()
    assert parse_index("  ") == ()


def test_parse_index_errors():
    for bad in ["0", "-1", "a", "2,,3", "1^0", "1^", "^2", "2 3", "1,0"]:
        with pytest.raises(ValueError):
            parse_index(bad)


def test_format_index_roundtrip():
    for k in indices_up_to_weight(6):
        assert parse_index(format_index(k)) == k
    assert format_index(()) == ""


def test_dual_known_values():
    assert dual((2,)) == (2,)
    assert dual((3,)) == (1, 2)
    assert dual((1, 2)) == (3,)
    assert dual((2, 3)) == (1, 2, 2)
    assert dual((4,)) == (1, 1, 2)
    assert dual((2, 2)) == (2, 2)
    assert dual((1, 3)) == (1, 3)


def test_dual_matches_word_oracle():
    for k in admissible_indices_up_to(10):
        assert dual(k) == dual_oracle(k)


def test_dual_involution_and_weight():
    for k in admissible_indices_up_to(10):
        d = dual(k)
        assert d.admissible
        assert d.weight == k.weight
        assert dual(d) == k


def test_dual_rejects_non_admissible():
    for k in [(), (1,), (2, 1), (1, 1)]:
        with pytest.raises(ValueError, match="is not admissible"):
            dual(k)


def test_hoffman_dual_known_values():
    assert hoffman_dual((1,)) == (1,)
    assert hoffman_dual((2,)) == (1, 1)
    assert hoffman_dual((1, 1)) == (2,)
    assert hoffman_dual((1, 2)) == (2, 1)
    assert hoffman_dual((2, 1)) == (1, 2)
    assert hoffman_dual((3, 1, 1)) == (1, 1, 3)


def test_hoffman_dual_matches_separator_oracle():
    for k in indices_up_to_weight(10):
        assert hoffman_dual(k) == hoffman_oracle(k)


def test_hoffman_dual_involution_and_weight():
    for k in indices_up_to_weight(10):
        d = hoffman_dual(k)
        assert d.weight == k.weight
        assert hoffman_dual(d) == k


def test_hoffman_dual_rejects_empty():
    with pytest.raises(ValueError):
        hoffman_dual(())


def test_coarsenings_known():
    assert coarsenings((2,)) == [(2,)]
    assert sorted(coarsenings((2, 3, 1))) == sorted([(2, 3, 1), (2, 4), (5, 1), (6,)])
    assert (5, 1) in coarsenings((2, 3, 1))
    assert (9,) in coarsenings((1, 4, 2, 2))


def test_coarsenings_shape():
    for k in indices_up_to_weight(7):
        cs = coarsenings(k)
        assert len(cs) == 2 ** (k.depth - 1)
        assert len(set(cs)) == len(cs)
        assert cs == sorted(cs)
        assert k in cs
        assert (k.weight,) in cs
        for l in cs:
            assert l.weight == k.weight


def test_refinements_known():
    assert refinements((1,)) == [(1,)]
    assert refinements((2,)) == [(1, 1), (2,)]
    assert sorted(refinements((2, 1))) == sorted([(2, 1), (1, 1, 1)])


def test_refinements_shape():
    for k in indices_up_to_weight(7):
        rs = refinements(k)
        expect = 1
        for p in k:
            expect *= 2 ** (p - 1)
        assert len(rs) == expect
        assert len(set(rs)) == len(rs)
        assert rs == sorted(rs)
        assert k in rs
        for l in rs:
            assert l.weight == k.weight


def test_coarsen_refine_galois():
    # l coarsens k exactly when k refines l, over all same-weight pairs.
    for w in range(1, 8):
        all_k = words_of_weight(w)
        for k in all_k:
            cs = set(coarsenings(k))
            for l in all_k:
                assert (l in cs) == (k in refinements(l))
                assert (l in cs) == refines(l, k)


def test_empty_index_rejections():
    for fn in [coarsenings, refinements, boundary_set_tilde]:
        with pytest.raises(ValueError):
            fn(())


def test_boundary_sets():
    assert boundary_set_tilde((2, 3)) == {1, 3}
    assert boundary_set_tilde((1,)) == {1}
    for k in indices_up_to_weight(7):
        if not k:
            continue
        j = boundary_set_tilde(k)
        assert len(j) == k.depth
        assert 1 in j and max(j) == k.weight - k[-1] + 1


def test_oplus_oslash_known():
    assert oplus((1, 0), (2, 3)) == (3, 3)
    assert oslash((1, 0), (2, 3)) == (2, 1, 1, 1, 1)
    assert oplus((0,), (1,)) == (1,)
    assert oslash((0,), (1,)) == (1,)


def test_oplus_oslash_relation():
    # Same weight, and the plain sum always coarsens the interleaved one.
    ks = indices_up_to_weight(4)
    for k in ks:
        for total in range(4):
            for shift in shift_vectors(k.depth, total):
                a = oplus(shift, k)
                b = oslash(shift, k)
                assert a.weight == k.weight + sum(shift) == b.weight
                assert a in coarsenings(b)


def test_oplus_oslash_validation():
    with pytest.raises(ValueError):
        oplus((1,), (2, 3))
    with pytest.raises(ValueError):
        oslash((-1, 0), (2, 3))


def squeeze_oracle(coarse, fine):
    return sorted(m for m in words_of_weight(sum(coarse))
                  if refines(coarse, m) and refines(m, fine))


def test_squeeze_lattice_equals_refinement_filter():
    cases = 0
    for k in indices_up_to_weight(6):
        for total in range(4):
            for shift in shift_vectors(k.depth, total):
                lo, hi = oplus(shift, k), oslash(shift, k)
                assert squeeze_lattice(lo, hi) == squeeze_oracle(lo, hi), (k, shift)
                cases += 1
    assert cases == 1519


def test_squeeze_lattice_any_pair():
    # every pair of one weight, comparable or not, and a weight mismatch
    for w in range(1, 6):
        for coarse in compositions_of(w):
            for fine in compositions_of(w):
                assert squeeze_lattice(coarse, fine) == squeeze_oracle(coarse, fine)
    assert squeeze_lattice((3,), (1, 1)) == []
    assert squeeze_lattice((3, 2), (1, 2, 1, 1)) == [
        Index((1, 2, 1, 1)), Index((1, 2, 2)), Index((3, 1, 1)), Index((3, 2))]
    with pytest.raises(ValueError):
        squeeze_lattice((), (1,))


def test_shift_vectors():
    assert list(shift_vectors(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(shift_vectors(0, 0)) == [()]
    assert list(shift_vectors(0, 1)) == []
    assert len(list(shift_vectors(3, 4))) == 15


def test_compositions_of():
    assert compositions_of(1) == [(1,)]
    assert compositions_of(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for w in range(1, 9):
        cs = compositions_of(w)
        assert len(cs) == 2 ** (w - 1)
        assert cs == sorted(words_of_weight(w))
    assert len(indices_up_to_weight(5)) == 1 + 2 + 4 + 8 + 16
