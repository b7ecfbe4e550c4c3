"""Tests for chain compilation and the exact evaluators.

The enumeration evaluator is itself cross-checked here against a
test-local itertools oracle that knows nothing about bands, scaling, or
prefix sums: it just walks the product space and filters by the
relations.  Everything else is then measured against eval_enum.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from zetaflat._kernels import dp_sum
from zetaflat.chainsum import (
    HARMONIC,
    REFLECTED,
    ChainSpec,
    Position,
    Residue,
    Weight,
    endpoint_values,
    chain_trie,
    equality_strata,
    eval_dp,
    eval_dp_mod,
    eval_enum,
    flat_chain,
    flat_support_chain,
    hoffman_weak_chain,
    lcm_upto,
    reflect_chain,
    riemann_chain,
    tilde_chain,
    trie_walk,
    zeta_chain,
    zeta_star_chain,
    _denominator_row,
    _inverse_table,
    _plan,
)
from zetaflat.errors import NonUnitError
from zetaflat.finite_padic import primes_in
from zetaflat.index_algebra import indices_up_to_weight


def oracle_sum(spec, upper, end=None):
    """Filtered product-space walk; no bands, no scaling, no DP.

    With `end` given, only the tuples whose last entry equals it count.
    """
    k = spec.length
    total = Fraction(0)
    for tup in itertools.product(range(0, upper + 1), repeat=k):
        ok = end is None or tup[-1] == end
        prev = 0
        for i, n in enumerate(tup):
            if spec.positions[i].strict_before:
                ok = ok and prev < n
            else:
                ok = ok and prev <= n
            prev = n
        if spec.terminal_strict:
            ok = ok and prev < upper
        else:
            ok = ok and prev <= upper
        if not ok:
            continue
        term = Fraction(1)
        for i, n in enumerate(tup):
            w = spec.positions[i].weight
            term /= (upper - n) ** w.refl * n ** w.harm
        total += term
    return total


def random_spec(rng, max_len=4):
    positions = []
    for _ in range(rng.randint(1, max_len)):
        refl = rng.randint(0, 2)
        harm = rng.randint(0, 2) if refl else rng.randint(1, 2)
        positions.append(Position(Weight(refl=refl, harm=harm), rng.random() < 0.6))
    return ChainSpec(tuple(positions), terminal_strict=rng.random() < 0.8)


def spec_is_safe(spec, upper):
    """True when no reachable point has a zero denominator."""
    try:
        _plan(spec, upper)
    except ValueError:
        return False
    return True


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(refl=-1, harm=2)
    with pytest.raises(ValueError):
        Weight()
    assert Weight(refl=2, harm=1).degree == 3
    assert HARMONIC.denominator_at(3, 10) == 3
    assert REFLECTED.denominator_at(3, 10) == 7


def test_chainspec_validation():
    with pytest.raises(ValueError):
        ChainSpec(())
    with pytest.raises(ValueError):
        ChainSpec((HARMONIC,))
    spec = zeta_chain((1, 2))
    assert spec.length == 2
    assert spec.degree == 3
    assert all(p.strict_before for p in spec.positions)
    assert spec.terminal_strict


def test_compiler_shapes():
    star = zeta_star_chain((1, 1, 2))
    assert [p.strict_before for p in star.positions] == [True, False, False]
    assert star.terminal_strict
    weak = hoffman_weak_chain((2, 1))
    assert not weak.terminal_strict

    # one position per unit of weight, reflected factor at block starts
    flat = flat_chain((1, 2))
    assert flat.length == 3
    assert [p.weight for p in flat.positions] == [REFLECTED, REFLECTED, HARMONIC]
    assert [p.strict_before for p in flat.positions] == [True, True, False]
    sup = flat_support_chain((1, 2))
    assert [p.weight for p in sup.positions] == [HARMONIC] * 3
    assert [p.strict_before for p in sup.positions] == [True, True, False]
    # the right side of a connected sum: strict gaps after block openings
    tilde = tilde_chain((1, 2))
    assert [p.weight for p in tilde.positions] == [p.weight for p in flat.positions]
    assert [p.strict_before for p in tilde.positions] == [True, True, True]
    assert not tilde.terminal_strict
    tilde = tilde_chain((2, 1))
    assert [p.weight for p in tilde.positions] == [REFLECTED, HARMONIC, REFLECTED]
    assert [p.strict_before for p in tilde.positions] == [True, True, False]
    assert tilde.terminal_strict
    rie = riemann_chain((1, 2))
    assert [p.weight for p in rie.positions] == [p.weight for p in flat.positions]
    assert all(p.strict_before for p in rie.positions)

    # the block form exists for every nonempty index; only the Riemann
    # shape insists on admissibility
    assert flat_chain((2, 1)).length == 3
    with pytest.raises(ValueError):
        riemann_chain((2, 1))
    with pytest.raises(ValueError):
        zeta_chain(())
    with pytest.raises(ValueError):
        flat_chain(())


def test_enum_against_itertools_oracle_known_chains():
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for upper in range(0, 7):
            spec = zeta_chain(k)
            assert eval_enum(spec, upper) == oracle_sum(spec, upper)
            spec = zeta_star_chain(k)
            assert eval_enum(spec, upper) == oracle_sum(spec, upper)
            if upper >= 1:
                spec = flat_chain(k)
                assert eval_enum(spec, upper) == oracle_sum(spec, upper)


def test_enum_against_itertools_oracle_random_specs():
    rng = random.Random(20260822)
    done = 0
    while done < 60:
        spec = random_spec(rng, max_len=3)
        upper = rng.randint(0, 6)
        if not spec_is_safe(spec, upper):
            continue
        assert eval_enum(spec, upper) == oracle_sum(spec, upper)
        done += 1


def test_known_truncated_values():
    assert eval_dp(zeta_chain((1,)), 4) == Fraction(11, 6)
    assert eval_dp(zeta_chain((2,)), 4) == Fraction(49, 36)
    assert eval_dp(zeta_chain((1, 2)), 4) == Fraction(5, 12)
    assert eval_dp(zeta_star_chain((1, 1)), 3) == Fraction(7, 4)
    assert eval_dp(hoffman_weak_chain((2,)), 2) == Fraction(5, 4)
    assert eval_dp(flat_chain((2,)), 3) == Fraction(5, 4)
    assert eval_dp(flat_chain((2,)), 2) == 1
    # chains longer than the room below the fence are empty
    assert eval_dp(zeta_chain((1, 1, 1)), 3) == 0
    assert eval_enum(zeta_chain((1, 1, 1)), 3) == 0


def test_dp_equals_enum_all_families():
    for k in indices_up_to_weight(5):
        if not k:
            continue
        specs = [zeta_chain(k), zeta_star_chain(k), hoffman_weak_chain(k),
                 flat_chain(k), flat_support_chain(k), tilde_chain(k)]
        if k.admissible:
            specs.append(riemann_chain(k))
        for spec in specs:
            for upper in range(0, 12):
                assert eval_dp(spec, upper) == eval_enum(spec, upper), (k, upper)


def test_dp_equals_enum_random_specs():
    rng = random.Random(91)
    done = 0
    while done < 80:
        spec = random_spec(rng)
        upper = rng.randint(0, 9)
        if not spec_is_safe(spec, upper):
            continue
        assert eval_dp(spec, upper) == eval_enum(spec, upper)
        done += 1


def test_endpoint_values_against_oracle():
    rng = random.Random(4177)
    done = 0
    while done < 60:
        spec = random_spec(rng, max_len=3)
        upper = rng.randint(0, 7)
        if not spec_is_safe(spec, upper):
            continue
        front, scale = endpoint_values(spec, upper)
        assert len(front) == upper + 1
        for v in range(upper + 1):
            assert Fraction(front[v], scale) == oracle_sum(spec, upper, v), (spec, v)
        done += 1


def test_dp_extends_a_prefix_layer():
    """The final layer of a prefix, run on through the rest of the whole
    chain's plan, is the whole chain's final layer: where the prefix
    reaches past the whole chain's band, no later position reads it."""
    rng = random.Random(3307)
    specs = [flat_chain(k) for k in indices_up_to_weight(4)]
    specs += [zeta_chain(k) for k in ((1, 2, 1), (3, 1, 2))]
    specs += [ChainSpec(random_spec(rng).positions) for _ in range(40)]
    done = 0
    for spec in specs:
        for upper in range(0, 9):
            if not spec_is_safe(spec, upper):
                continue
            plan = _plan(spec, upper, multipliers=True)
            want, _ = endpoint_values(spec, upper)
            if plan is None:
                assert not any(want)
                continue
            rows = [list(row) for row in plan[0]]  # the plan's rows are lazy
            for j in range(1, spec.length):
                front, _ = endpoint_values(ChainSpec(spec.positions[:j]), upper)
                tail = [col[j:] for col in (rows, *plan[1:])]
                assert dp_sum(*tail, front) == want, (spec, upper, j)
                done += 1
    assert done > 200


@pytest.mark.parametrize("rule", ["prefix", "weight"])
def test_chain_trie_is_a_preorder(rule):
    """The trie of the strict chains (by prefix) or of the block forms (by
    weight) of the indices of weight <= w has one node per index, which
    ends that index's chain alone, and a node's parent is the index
    without its last part, or with its last part lowered by one (dropped
    at 1).  In `chain_trie` order that parent is the last node before it
    one position shorter, so a walk keeps one layer per depth on a stack."""
    compile, parent = {
        "prefix": (zeta_chain, lambda k: k[:-1]),
        "weight": (flat_chain,
                   lambda k: k[:-1] + (k[-1] - 1,) if k[-1] > 1 else k[:-1]),
    }[rule]
    for w in range(1, 9):
        chains = {tuple(k): compile(k) for k in indices_up_to_weight(w)}
        trie = chain_trie(chains)
        assert trie == sorted((spec.positions, [k]) for k, spec in chains.items())
        for k, spec in chains.items():
            if parent(k):
                assert chains[parent(k)].positions == spec.positions[:-1], k
        stack = []
        for node, _ in trie:
            del stack[len(node) - 1:]
            assert len(stack) == len(node) - 1 and stack[-1:] in ([], [node[:-1]])
            stack.append(node)


def test_trie_walk_is_keyed():
    """A walk yields (key, layer) for every key of a `chain_trie`, in the
    trie's pre-order whatever the order of the dict: two keys of one chain
    both get its layer, in the dict's order, and a key whose chain is a
    proper prefix of another's gets the layer of its inner node.  Each
    layer is the final layer of the dynamic program over the key's chain,
    and a walk mod m, keyed the same way, holds those values mod m and
    sums to `eval_dp_mod`.  No chain, no node and no layer."""
    chains = {
        "longer": zeta_chain((1, 2, 1)),
        "twin b": zeta_chain((1, 2)),
        "flat": flat_chain((2, 1)),
        "twin a": zeta_chain((1, 2)),
        "right": reflect_chain(tilde_chain((3,))),
        "prefix": zeta_chain((1,)),
    }
    trie = chain_trie(chains)
    assert dict(trie)[chains["twin b"].positions] == ["twin b", "twin a"]
    assert dict(trie)[chains["longer"].positions[:1]] == ["prefix"]
    order = sorted(chains, key=lambda key: chains[key].positions)  # stable
    assert order.index("prefix") < order.index("twin b") < order.index("longer")
    for upper in (0, 1, 5, 12):
        walk = list(trie_walk(upper, trie))
        assert [key for key, _ in walk] == order, upper
        for key, layer in walk:
            assert layer == endpoint_values(chains[key], upper)[0], (key, upper)
        assert dict(walk)["twin a"] == dict(walk)["twin b"]
    for upper, modulus in ((6, 49), (10, 11)):
        walk = list(trie_walk(upper, trie, modulus))
        assert [key for key, _ in walk] == order, modulus
        for key, layer in walk:
            front, scale = endpoint_values(chains[key], upper)
            assert [x % modulus for x in layer] == [
                Residue.from_fraction(Fraction(x, scale), modulus).value
                for x in front], (key, modulus)
            assert Residue(sum(layer), modulus) == eval_dp_mod(
                chains[key], upper, modulus), (key, modulus)
    assert chain_trie({}) == []
    assert list(trie_walk(5, [])) == list(trie_walk(5, [], 7)) == []


def test_plan_rows_are_cached_denominators():
    rng = random.Random(6061)
    seen = {"weak relation": 0, "reflected weight": 0, "weak terminal": 0}
    done = 0
    while done < 150:
        spec = random_spec(rng)
        upper = rng.randint(0, 12)
        if not spec_is_safe(spec, upper):
            # the zero denominator is found before any row is built
            _denominator_row.cache_clear()
            with pytest.raises(ValueError, match="zero denominator"):
                _plan(spec, upper)
            assert _denominator_row.cache_info().currsize == 0
            continue
        plan = _plan(spec, upper)
        if plan is None:
            continue
        rows, _, lbs, ubs = plan
        for pos, row, lo, hi in zip(spec.positions, rows, lbs, ubs):
            assert isinstance(row, tuple) and len(row) == upper + 1
            for n in range(lo, hi + 1):
                assert row[n] == pos.weight.denominator_at(n, upper), (spec, n)
        # a second plan reads the very same rows
        assert all(a is b for a, b in zip(rows, _plan(spec, upper)[0]))
        seen["weak relation"] += any(not p.strict_before for p in spec.positions)
        seen["reflected weight"] += any(p.weight.refl for p in spec.positions)
        seen["weak terminal"] += not spec.terminal_strict
        done += 1
    assert all(seen.values()), seen


def test_dp_plan_rows_are_exact_multipliers():
    """On every band point of every plan drawn, the exact program's row
    entry q satisfies q * den == lam, lam = lcm(1..N)^degree of the
    position, and planning divides by no zero denominator off the band:
    random chains, strict and weak at both ends, harmonic and reflected
    weights, fences 0..9 with 1 and 2 drawn often, and the one-position
    plans of the trie walk."""
    rng = random.Random(2357)
    specs = [ChainSpec((Position(w, True),)) for w in (HARMONIC, REFLECTED)]
    specs += [random_spec(rng) for _ in range(200)]
    seen = {"weak entry": 0, "weak terminal": 0, "reflected weight": 0,
            "off-band zero": 0, "fence 1": 0, "fence 2": 0}
    for spec in specs:
        for upper in (1, 2, rng.randint(0, 9)):
            if not spec_is_safe(spec, upper):
                continue
            plan = _plan(spec, upper, multipliers=True)
            if plan is None:
                continue
            rows, _, lbs, ubs = plan
            lcm = lcm_upto(upper)
            for pos, row, lo, hi in zip(spec.positions, rows, lbs, ubs):
                w, row = pos.weight, list(row)
                assert len(row) == hi - lo + 1
                for n in range(lo, hi + 1):
                    den = w.denominator_at(n, upper)
                    assert row[n - lo] * den == lcm ** w.degree, (spec, upper, n)
                seen["off-band zero"] += any(
                    w.denominator_at(n, upper) == 0
                    for n in range(upper + 1) if not lo <= n <= hi)
                seen["reflected weight"] += w.refl > 0
                seen["weak entry"] += not pos.strict_before
            seen["weak terminal"] += not spec.terminal_strict
            seen[f"fence {upper}"] = seen.get(f"fence {upper}", 0) + 1
    assert all(seen.values()), seen


def test_reflect_chain_preserves_values():
    rng = random.Random(1729)
    done = 0
    while done < 60:
        spec = random_spec(rng)
        upper = rng.randint(0, 8)
        if not spec_is_safe(spec, upper):
            continue
        refl = reflect_chain(spec)
        assert reflect_chain(refl) == spec
        assert eval_enum(refl, upper) == eval_enum(spec, upper)
        done += 1


def test_reflect_chain_structure():
    spec = ChainSpec((Position(Weight(refl=1, harm=2), True),
                      Position(HARMONIC, False)), terminal_strict=True)
    refl = reflect_chain(spec)
    assert refl.positions[0] == Position(REFLECTED, True)
    assert refl.positions[1] == Position(Weight(refl=2, harm=1), False)
    assert refl.terminal_strict


def test_equality_strata_partition():
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for spec in (zeta_star_chain(k), flat_chain(k)):
            weak = sum(1 for p in spec.positions[1:] if not p.strict_before)
            patterns = list(equality_strata(spec))
            assert len(patterns) == 2 ** weak
            assert len({tied for tied, _ in patterns}) == len(patterns)
            for upper in (1, 4, 9):
                whole = eval_enum(spec, upper)
                parts = sum((eval_enum(m, upper) for _, m in patterns),
                            Fraction(0))
                assert parts == whole, (k, upper)


def test_equality_strata_requires_strict_fences():
    with pytest.raises(ValueError):
        list(equality_strata(hoffman_weak_chain((1, 1))))


def test_dp_mod_matches_exact_reduction():
    for k in indices_up_to_weight(4):
        if not k:
            continue
        spec = zeta_chain(k)
        for p in (5, 7, 11, 13):
            for n in (1, 2):
                exact = eval_dp(spec, p)
                got = eval_dp_mod(spec, p, p ** n)
                assert got == Residue.from_fraction(exact, p ** n), (k, p, n)


def test_dp_mod_non_unit_position():
    cases = [
        # fence 6 puts denominator 3 on the band; 3 is not a unit mod 9
        (zeta_chain((1,)), 6, (1, 3, 3)),
        # fence 7: n=3 is on the first band, so position 1 is the offender
        (zeta_chain((1, 2)), 7, (1, 3, 3)),
        # fence 4: the first band is {1, 2}; position 2 (exponent 2)
        # meets 3^2, which is 0 mod 9
        (zeta_chain((1, 2)), 4, (2, 3, 0)),
        # a reflected factor: 1/(6 - n) at n = 3
        (flat_chain((2,)), 6, (1, 3, 3)),
    ]
    for spec, upper, want in cases:
        with pytest.raises(NonUnitError) as info:
            eval_dp_mod(spec, upper, 9)
        err = info.value
        assert (err.position, err.n, err.value, err.modulus) == want + (9,)
        position, n, value = want
        assert str(err) == (f"denominator {value} at position {position}, "
                            f"n={n} is not a unit mod 9")
    # same chain over a coprime modulus is fine
    assert eval_dp_mod(zeta_chain((1,)), 6, 7) == Residue.from_fraction(
        eval_dp(zeta_chain((1,)), 6), 7)


def first_non_unit(spec, upper, modulus):
    """(position, n, denominator mod modulus) of the first reachable point,
    in (position, n) order, whose denominator is not a unit; None if none.

    Reachability comes from the filtered product space, as in oracle_sum.
    """
    reached = set()
    for tup in itertools.product(range(0, upper + 1), repeat=spec.length):
        prev, ok = 0, True
        for pos, n in zip(spec.positions, tup):
            ok = ok and (prev < n if pos.strict_before else prev <= n)
            prev = n
        if ok and (prev < upper if spec.terminal_strict else prev <= upper):
            reached.update(enumerate(tup))
    for i, n in sorted(reached):
        w = spec.positions[i].weight
        d = (upper - n) ** w.refl * n ** w.harm
        if math.gcd(d, modulus) != 1:
            return i + 1, n, d % modulus
    return None


def test_dp_mod_first_non_unit_against_oracle():
    rng = random.Random(5099)
    moduli = (4, 6, 8, 9, 10, 12, 15, 25, 27, 49)
    raised = done = 0
    while done < 150:
        spec = random_spec(rng, max_len=3)
        upper = rng.randint(0, 9)
        if not spec_is_safe(spec, upper):
            continue
        modulus = rng.choice(moduli)
        want = first_non_unit(spec, upper, modulus)
        if want is None:
            exact = eval_dp(spec, upper)
            assert eval_dp_mod(spec, upper, modulus) == Residue.from_fraction(
                exact, modulus), (spec, upper, modulus)
        else:
            with pytest.raises(NonUnitError) as info:
                eval_dp_mod(spec, upper, modulus)
            err = info.value
            assert (err.position, err.n, err.value) == want, (spec, upper, modulus)
            assert err.modulus == modulus
            raised += 1
        done += 1
    assert 30 < raised < 120


def test_dp_mod_zero_denominator_is_plain_value_error():
    cases = [
        # 1/n at a weak first position reaches n = 0
        (ChainSpec((Position(HARMONIC, False),)), 5, "position 1 undefined at n=0"),
        # 1/(N - n) with a weak terminal relation reaches n = N
        (ChainSpec((Position(REFLECTED, True),), terminal_strict=False), 5,
         "position 1 undefined at n=5"),
        # the zero at position 2 wins over the non-unit 3 at position 1
        (ChainSpec((Position(HARMONIC, True), Position(REFLECTED, False)),
                   terminal_strict=False), 6, "position 2 undefined at n=6"),
    ]
    for spec, upper, text in cases:
        for modulus in (7, 9):
            with pytest.raises(ValueError) as info:
                eval_dp_mod(spec, upper, modulus)
            assert not isinstance(info.value, NonUnitError)
            assert text in str(info.value)


def test_inverse_table_against_pow():
    for p in primes_in(2, 199):
        for n in (1, 2, 3):
            m = p ** n
            inv = _inverse_table(p, m)
            assert len(inv) == p + 1 and inv[0] == 0 and inv[p] == 0
            assert all(inv[i] == pow(i, -1, m) for i in range(1, p)), (p, n)
    # composite moduli and fences past the modulus: non-units read 0
    for m in range(2, 40):
        inv = _inverse_table(2 * m + 3, m)
        for i in range(2 * m + 4):
            want = pow(i, -1, m) if math.gcd(i, m) == 1 else 0
            assert inv[i] == want, (m, i)


def test_residue_arithmetic():
    a = Residue(5, 7)
    b = Residue(4, 7)
    assert a + b == Residue(2, 7)
    assert a - b == Residue(1, 7)
    assert a * b == Residue(6, 7)
    assert -a == Residue(2, 7)
    assert a.inverse() * a == Residue(1, 7)
    assert str(a) == "5 mod 7"
    with pytest.raises(ValueError):
        a + Residue(1, 5)
    with pytest.raises(TypeError):
        a + 3
    with pytest.raises(NonUnitError):
        Residue(6, 9).inverse()
    assert Residue.from_fraction(Fraction(25, 12), 5) == Residue(0, 5)
    with pytest.raises(NonUnitError):
        Residue.from_fraction(Fraction(1, 3), 9)


def test_big_modulus_object_path():
    # the residue DP with a modulus above 2^31 (no other test goes that
    # high) against the exact value reduced
    m = (1 << 31) + 11
    spec = zeta_chain((2, 1))
    exact = eval_dp(spec, 50)
    assert eval_dp_mod(spec, 50, m) == Residue.from_fraction(exact, m)


def test_empty_chain_value_is_zero():
    spec = zeta_chain((1, 1, 1, 1))
    assert eval_dp(spec, 4) == 0
    assert eval_dp_mod(spec, 4, 7) == Residue(0, 7)
    assert eval_enum(spec, 0) == 0


def test_lcm_upto_equals_math_lcm():
    """The prime-power product equals lcm(1..n), past prime powers of 2
    (2047, 2048) and at the fences of the duality-r grid (4096, 4097)."""
    want = 1
    for n in range(1, 1001):
        want = math.lcm(want, n)
        assert lcm_upto(n) == want, n
    for n in (2047, 2048, 4096, 4097):
        assert lcm_upto(n) == math.lcm(*range(1, n + 1)), n
    for n in (-3, 0, 1):
        assert lcm_upto(n) == 1, n
