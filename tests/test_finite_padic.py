"""Tests for the per-prime congruence checks.

Residues are never trusted to the modular DP alone: small grids are
cross-checked against exact rational values reduced through
Residue.from_fraction, and the weak-sum aggregation over coarsenings is
checked against the direct weak-chain modular DP.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from zetaflat import finite_padic
from zetaflat.chainsum import (
    Residue,
    chain_trie,
    eval_dp_mod,
    zeta_chain,
    zeta_star_chain,
)
from zetaflat.finite_padic import (
    PADIC_FIXTURES,
    SEKI_FIXTURES,
    antipode_duality_check,
    flat_mod_identity_check,
    hoffman_duality_check,
    hoffman_identity_check,
    hoffman_identity_sweep,
    is_prime,
    load_thresholds,
    min_passing_prime,
    padic_duality_check,
    primes_in,
    save_thresholds,
    seki_lifting_check,
    zeta_mod,
    zeta_star_mod,
)
from zetaflat.index_algebra import (
    Index,
    coarsenings,
    compositions_of,
    hoffman_dual,
    indices_up_to_weight,
)
from zetaflat.mzv_real import zeta_trunc
from zetaflat.reports import fraction_str


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


def test_is_prime_against_sieve():
    want = set(sieve(10000))
    for m in range(10001):
        assert is_prime(m) == (m in want), m


def test_is_prime_large_and_capped():
    assert is_prime((1 << 31) - 1)  # Mersenne
    assert not is_prime((1 << 30) + 1)
    with pytest.raises(ValueError):
        is_prime(1 << 31)
    with pytest.raises(TypeError):
        is_prime(7.0)
    with pytest.raises(TypeError):
        is_prime(True)


def test_primes_in():
    assert primes_in(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert primes_in(-5, 2) == [2]
    assert primes_in(24, 28) == []


def test_zeta_mod_known_values():
    r = zeta_mod((2,), 5, 2)
    assert isinstance(r, Residue) and r.modulus == 25
    assert str(r) == f"{r.value} mod 25"
    assert zeta_mod((1,), 5, 1).value == 0
    assert zeta_mod((1,), 5, 2).value == 0
    assert zeta_mod((1,), 2, 1).value == 1
    with pytest.raises(ValueError):
        zeta_mod((2,), 6, 1)
    with pytest.raises(ValueError):
        zeta_mod((2,), 5, 0)


def test_zeta_mod_matches_exact_reduction():
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for p in primes_in(3, 13):
            for n in (1, 2):
                want = Residue.from_fraction(zeta_trunc(k, p), p ** n)
                assert zeta_mod(k, p, n) == want, (k, p, n)


def test_zeta_star_mod_two_oracles():
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for p in primes_in(3, 13):
            got = zeta_star_mod(k, p, 2)
            exact = sum((zeta_trunc(l, p) for l in coarsenings(k)), Fraction(0))
            assert got == Residue.from_fraction(exact, p * p)
            assert got == eval_dp_mod(zeta_star_chain(k), p, p * p)
    assert zeta_star_mod((2,), 7, 1) == zeta_mod((2,), 7, 1)
    want = Residue.from_fraction(zeta_trunc((1, 1), 5) + zeta_trunc((2,), 5), 5)
    assert zeta_star_mod((1, 1), 5, 1) == want
    assert zeta_star_mod((1, 1), 2, 1).value == 1


def test_hoffman_duality():
    assert hoffman_duality_check((1,), 5).passed
    assert hoffman_duality_check((2, 1), 7).passed
    assert hoffman_duality_check((1, 2), 11).passed
    assert hoffman_duality_check((2, 1), 11).passed
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for p in primes_in(3, 61):
            assert hoffman_duality_check(k, p).passed, (k, p)


def test_antipode_duality():
    assert antipode_duality_check((2,), 5).passed
    assert antipode_duality_check((1,), 3).passed
    assert antipode_duality_check((1, 1, 1), 7).passed
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for p in primes_in(3, 61):
            assert antipode_duality_check(k, p).passed, (k, p)


def test_star_nonstar_moebius_bridge():
    """The two dualities talk through inclusion-exclusion over commas:
    the strict sum is the alternating sum of weak sums over coarsenings.
    Checked numerically, then used nowhere."""
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for p in primes_in(3, 31):
            total = Residue(0, p)
            for l in coarsenings(k):
                term = zeta_star_mod(l, p)
                if (k.depth - l.depth) % 2:
                    term = -term
                total = total + term
            assert total == zeta_mod(k, p), (k, p)


def test_flat_mod_identity():
    assert flat_mod_identity_check((2,), 5).passed
    assert flat_mod_identity_check((1,), 3).passed
    assert flat_mod_identity_check((2, 1), 7).passed
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for p in primes_in(3, 37):
            assert flat_mod_identity_check(k, p).passed, (k, p)


def test_hoffman_binomial_identity():
    r = hoffman_identity_check((2,), 2)
    assert r.passed and r.lhs == "5/4"
    r = hoffman_identity_check((1,), 1)
    assert r.passed and r.lhs == "1/1"
    for n in range(1, 31):
        assert hoffman_identity_check((2, 1), n).passed
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for n in range(1, 21):
            assert hoffman_identity_check(k, n).passed, (k, n)


def test_hoffman_identity_against_enumeration():
    """Both sides of the binomial identity, enumerated tuple by tuple."""

    def weak_sum(index, upper, ends):
        total = Fraction(0)
        for ms in combinations_with_replacement(range(1, upper + 1), len(index)):
            term = Fraction(ends(ms[-1]))
            for m, e in zip(ms, index):
                term /= m ** e
            total += term
        return total

    for k in indices_up_to_weight(4):
        if not k:
            continue
        l = tuple(hoffman_dual(k))
        want = [(fraction_str(weak_sum(k, n, lambda m: 1)),
                 fraction_str(weak_sum(l, n, lambda m: (-1) ** (m - 1)
                                       * comb(n, m))))
                for n in range(1, 9)]
        # both sides read at the fence itself, and from the dynamic
        # programs at the top fence of a sweep
        assert [(r.lhs, r.rhs) for r in
                (hoffman_identity_check(k, n) for n in range(1, 9))] == want, k
        for top in (8, 11):
            reports = list(hoffman_identity_sweep([k], range(1, top + 1)))[:8]
            assert [(r.lhs, r.rhs) for r in reports] == want, (k, top)


def test_lifted_checks_reduce_to_mod_p():
    for k in indices_up_to_weight(4):
        if not k:
            continue
        for p in primes_in(3, 31):
            a = padic_duality_check(k, p, 1)
            b = antipode_duality_check(k, p)
            assert (a.lhs, a.rhs, a.passed) == (b.lhs, b.rhs, b.passed)
            c = seki_lifting_check(k, p, 1)
            d = hoffman_duality_check(k, p)
            assert (c.lhs, c.rhs, c.passed) == (d.lhs, d.rhs, d.passed)


def test_lifted_checks_spec_instances():
    assert padic_duality_check((2,), 13, 2).passed
    assert padic_duality_check((1, 1), 11, 3).passed
    assert seki_lifting_check((2,), 11, 2).passed
    assert seki_lifting_check((2, 1), 13, 2).passed


def test_lifted_checks_small_sweep():
    for k in indices_up_to_weight(3):
        if not k:
            continue
        for n in (2, 3):
            for p in primes_in(3, 37):
                assert padic_duality_check(k, p, n).passed, (k, p, n)
                assert seki_lifting_check(k, p, n).passed, (k, p, n)


def test_lifted_value_projects_down():
    for k in [(2,), (1, 2), (2, 1, 1)]:
        for p in (5, 13):
            base = zeta_mod(k, p, 1).value
            for n in (2, 3):
                assert zeta_mod(k, p, n).value % p == base


def test_argument_validation():
    with pytest.raises(ValueError):
        padic_duality_check((), 5, 1)
    with pytest.raises(ValueError):
        seki_lifting_check((2,), 9, 2)
    with pytest.raises(ValueError):
        padic_duality_check((2,), 5, 0)


def test_min_passing_prime_contract():
    class FakeReport:
        def __init__(self, passed):
            self.passed = passed

    calls = []

    def lookup(m, p, n):
        raise AssertionError("the fake checks read no residues")

    def above_eleven(k, p, n, *, zeta):
        calls.append((p, zeta))
        return FakeReport(p >= 11)

    assert min_passing_prime(above_eleven, (2,), 2, lo=3, hi=31,
                             zeta=lookup) == 11
    # walked downward and stopped right below the threshold, each check
    # handed the lookup
    assert calls == [(p, lookup) for p in [31, 29, 23, 19, 17, 13, 11, 7]]

    def never(k, p, n, *, zeta):
        return FakeReport(False)

    assert min_passing_prime(never, (2,), 2, lo=3, hi=31) is None

    def always(k, p, n, *, zeta):
        return FakeReport(True)

    assert min_passing_prime(always, (2,), 2, lo=3, hi=31) == 3


def test_min_passing_prime_through_one_table_per_pair():
    """Read through `residue_lookups`, one walk mod p^3 per prime of every
    index up to weight 3 + 2, read mod p^n, as tools/pin_thresholds.py
    reads them, the thresholds of weight <= 3 are the pinned ones, and so
    are those of weight <= 2 read through the default per-index walks."""
    zeta = finite_padic.residue_lookups(3, 3)
    for check, name in ((padic_duality_check, PADIC_FIXTURES),
                        (seki_lifting_check, SEKI_FIXTURES)):
        pinned = load_thresholds(name)
        for k in indices_up_to_weight(3):
            if not k:
                continue
            for n in (2, 3):
                got = min_passing_prime(check, k, n, zeta=zeta)
                assert got == pinned[(k, n)], (check, k, n)
                if k.weight <= 2:
                    assert min_passing_prime(check, k, n) == got


def test_packaged_thresholds_cover_the_grid():
    for name in (PADIC_FIXTURES, SEKI_FIXTURES):
        table = load_thresholds(name)
        for w in range(1, 6):
            for k in compositions_of(w):
                for n in (2, 3):
                    assert (Index(k), n) in table, (name, k, n)
        for p0 in table.values():
            assert 3 <= p0 <= 199
            assert is_prime(p0)


def test_threshold_roundtrip_and_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETAFLAT_FIXTURES_DIR", str(tmp_path))
    table = {(Index((2, 1)), 2): 5, (Index((3,)), 3): 13}
    path = save_thresholds("roundtrip.txt", table)
    assert path.parent == tmp_path
    assert load_thresholds("roundtrip.txt") == table
    monkeypatch.delenv("ZETAFLAT_FIXTURES_DIR")
    with pytest.raises(FileNotFoundError):
        load_thresholds("roundtrip.txt")


def test_check_inputs_are_rendered_strings():
    r = seki_lifting_check((2, 1), 7, 2)
    assert r.inputs == {"k": "2,1", "p": "7", "n": "2"}
    assert r.check_id == "seki-lifting"


@pytest.fixture
def cold_tables():
    """An empty lookup cache before and after a test."""
    finite_padic._zeta_residue.cache_clear()
    yield
    finite_padic._zeta_residue.cache_clear()


def test_residue_tables_match_modular_dp(cold_tables):
    """Every index of weight <= 6, as one walk per pair of the trie of
    their strict chains (one node per index, in their order) and as the
    prefixes of a single lookup, equals the residue DP of its strict
    chain; at p = 2 and 3 the deep chains are empty and read 0."""
    indices = sorted(tuple(k) for k in indices_up_to_weight(6))
    trie = chain_trie({k: zeta_chain(k) for k in indices})
    assert trie == [(zeta_chain(k).positions, [k]) for k in indices]
    for p in primes_in(2, 31):
        for n in (1, 2, 3):
            table = finite_padic._walk(p, n, trie)
            assert list(table) == indices
            for k in indices:
                want = eval_dp_mod(zeta_chain(k), p, p ** n).value
                assert table[k] == want, (k, p, n)
                if len(k) >= p:
                    assert want == 0, (k, p, n)
            for k in indices[::7]:
                assert zeta_mod(k, p, n).value == table[k], (k, p, n)


@pytest.mark.parametrize("check,n", [
    (hoffman_duality_check, 1), (antipode_duality_check, 1),
    (padic_duality_check, 2), (seki_lifting_check, 3)])
def test_checks_read_only_the_lookup_they_are_given(check, n, cold_tables):
    """A check given a lookup reads every residue from it and none from
    the lookup cache of single checks; shifting one residue it reads
    flips its verdict."""
    k, p = Index((2, 1, 1)), 11
    args = (k, p) if n == 1 else (k, p, n)
    indices = sorted(map(tuple, indices_up_to_weight(k.weight + n - 1)))
    table = finite_padic._walk(p, n, chain_trie({m: zeta_chain(m) for m in indices}))
    reads = []

    def lookup(m, q, e):
        assert (q, e) == (p, n)
        reads.append(m)
        return table[m]

    want = check(*args)
    assert want.passed
    finite_padic._zeta_residue.cache_clear()
    got = check(*args, zeta=lookup)
    assert (got.lhs, got.rhs, got.passed) == (want.lhs, want.rhs, True)
    info = finite_padic._zeta_residue.cache_info()
    assert info.hits == info.misses == 0
    once = [m for m in reads if reads.count(m) == 1]
    assert once
    shifted = check(*args, zeta=lambda m, q, e: table[m] + (m == once[0]))
    assert not shifted.passed


@pytest.mark.parametrize("suite", ["padic", "seki", "duality-a", "antipode"])
def test_sweep_walks_each_prime_once(suite, cold_tables, monkeypatch, capsys):
    """verify hands its grid to one `residue_sweep` call, which walks each
    prime's whole trie once, at the prime's first check, mod p^N for N the
    largest exponent of the grid (1 for the unlifted suites), and reads
    every residue from those walks, not from the lookup cache of single
    checks."""
    from zetaflat.cli import main

    walks = []
    real = finite_padic._walk
    monkeypatch.setattr(finite_padic, "_walk", lambda p, n, trie:
                        walks.append((p, n, len(trie))) or real(p, n, trie))
    lifted = suite in ("padic", "seki")
    argv = ["verify", suite, "--max-weight", "3", "--primes", "3..13"]
    assert main(argv + (["--n-values", "1,2,3"] if lifted else [])) == 0
    capsys.readouterr()
    top = 3 if lifted else 1
    assert walks == [(p, top, 2 ** (3 + top - 1) - 1)
                     for p in (3, 5, 7, 11, 13)]
    info = finite_padic._zeta_residue.cache_info()
    assert info.hits == info.misses == info.currsize == 0


def test_sweep_lookups_are_the_residues_of_single_checks(cold_tables, monkeypatch):
    """Every residue a sweep's checks read, over sweeps of each check that
    mix exponents 1 and 2 in one sweep, go up to 3, take the unlifted
    checks and several primes, is the residue of the single-check lookup,
    in [0, p^n); so is every index up to weight 4 + n - 1 read through
    `residue_lookups` at (p, n)."""
    reads = []
    real = finite_padic.residue_lookups

    def lookups(weight, top):
        zeta = real(weight, top)

        def read(m, p, n):
            reads.append((m, p, n, zeta(m, p, n)))
            return reads[-1][-1]
        return read

    monkeypatch.setattr(finite_padic, "residue_lookups", lookups)
    ks = [Index((2, 1)), Index((1, 1, 2)), Index((3,))]
    for check, exponents in ((padic_duality_check, [3]),
                             (seki_lifting_check, [1, 2]),
                             (hoffman_duality_check, [None]),
                             (antipode_duality_check, [None])):
        cells = [(k, n, 0) for k in ks for n in exponents]
        assert all(r.passed for r in finite_padic.residue_sweep(
            check, cells, [5, 3, 11]))
    monkeypatch.undo()
    assert {(p, n) for _, p, n, _ in reads} == {
        (p, n) for p in (3, 5, 11) for n in (1, 2, 3)}
    for m, p, n, value in reads:
        assert value == finite_padic._zeta_residue(m, p, n), (m, p, n)
        assert 0 <= value < p ** n
    zeta = finite_padic.residue_lookups(4, 3)
    for p in (2, 3, 7):
        for n in (1, 2, 3):
            for m in map(tuple, indices_up_to_weight(4 + n - 1)):
                value = zeta(m, p, n)
                assert value == finite_padic._zeta_residue(m, p, n), (m, p, n)
                assert 0 <= value < p ** n


def test_a_walk_one_exponent_short_fails_the_lifted_checks(monkeypatch, capsys):
    """Mutation: a sweep whose walk runs mod p^(N-1) reads wrong residues
    at n = N, and the padic suite reports them as failed checks (exit 1),
    not as a pass and not as an error."""
    from zetaflat.cli import entry

    real = finite_padic._walk
    monkeypatch.setattr(finite_padic, "_walk", lambda p, n, trie:
                        real(p, n - 1, trie))
    argv = ["verify", "padic", "--max-weight", "3", "--primes", "3..13",
            "--n-values", "1,2,3"]
    assert entry(argv) == 1
    out, err = capsys.readouterr()
    assert "FAIL padic-duality" in out and out.splitlines()[-1].startswith("FAIL")
    assert not err


def test_lookups_without_a_sweep_weight_stay_bounded(cold_tables, monkeypatch):
    """Checks called one by one with their default lookup walk the prefixes
    of each index they read, once per (index, prime, exponent), and keep
    no table; a single heavy lookup walks only its own prefixes."""
    walks = []
    real = finite_padic._walk
    monkeypatch.setattr(finite_padic, "_walk", lambda p, n, trie:
                        walks.append((p, n, trie)) or real(p, n, trie))
    for k in indices_up_to_weight(4):
        for p in (5, 7):
            assert padic_duality_check(k, p, 2).passed
    keyed = [(p, n, key) for p, n, trie in walks for _, keys in trie for key in keys]
    assert len(set(keyed)) == len(keyed) == len(walks)
    for p, n, m in keyed:
        assert (p, n) in ((5, 2), (7, 2)) and sum(m) <= 5
    assert [trie for _, _, trie in walks] == [
        chain_trie({m: zeta_chain(m)}) for _, _, m in keyed]
    assert finite_padic._zeta_residue.cache_info().currsize == len(walks)
    walks.clear()
    k = (1,) * 9 + (2,) * 6
    assert zeta_mod(k, 31, 2).value == eval_dp_mod(zeta_chain(k), 31, 31 ** 2).value
    assert walks == [(31, 2, chain_trie({k: zeta_chain(k)}))]


# An oracle at large primes that shares no code with the residue DP:
# classical congruences give depth 1 and 2 in closed form through Bernoulli
# numbers (M. E. Hoffman, Kyushu J. Math. 69 (2015), arXiv:math/0401319;
# J. Zhao, Int. J. Number Theory 4 (2008); Glaisher), with H(m) the strict
# sum zeta_trunc(m, p):
#   H(a, b) = (-1)^b binom(a+b, a) B_{p-a-b} / (a+b)   (mod p),
#   H(k)    = 0                                          (mod p), k <= p - 3,
#   H(k)    = k/(k+1) p B_{p-1-k}                        (mod p^2).
# For odd k the last one is Wolstenholme's H(k) = 0 (mod p^2), as B_odd = 0.

def bernoulli_numbers(top):
    """B_0 .. B_top exactly, from sum_{j <= m} binom(m+1, j) B_j = 0."""
    numbers = [Fraction(1)]
    for m in range(1, top + 1):
        numbers.append(-sum(comb(m + 1, j) * b for j, b in enumerate(numbers))
                       / (m + 1))
    return numbers


def bernoulli_mod_p(n, p):
    """B_n mod p for 2 <= n <= p - 2, from the power sum: sum_{j<p} j^n is
    p B_n (mod p^2), and B_n is p-integral below n = p - 1."""
    total = sum(pow(j, n, p * p) for j in range(1, p)) % (p * p)
    assert total % p == 0, (n, p)
    return total // p


def closed_form_misses(p, zeta):
    """The (index, exponent) reads zeta(m, p, n) that miss their closed
    forms: depth 2 mod p at a + b <= 7, depth 1 mod p at k <= 7 and mod
    p^2 at k <= 6."""
    bern = {n: bernoulli_mod_p(n, p) for n in range(p - 7, p - 1)}
    want = {}
    for a in range(1, 7):
        for b in range(1, 8 - a):
            want[(a, b), 1] = ((-1) ** b * comb(a + b, a) * bern[p - a - b]
                               * pow(a + b, -1, p) % p)
    for k in range(1, 8):
        want[(k,), 1] = 0
    for k in range(1, 7):
        want[(k,), 2] = k * pow(k + 1, -1, p * p) * p * bern[p - 1 - k] % (p * p)
    return [(m, n) for (m, n), value in want.items() if zeta(m, p, n) != value]


LARGE_PRIMES = sorted(random.Random(28).sample(primes_in(211, 10 ** 4), 6))


def test_power_sum_bernoulli_numbers_meet_the_recurrence():
    exact = bernoulli_numbers(60)
    for p in primes_in(5, 61):
        for n in range(2, p - 1):
            assert bernoulli_mod_p(n, p) == Residue.from_fraction(exact[n], p).value


def test_closed_forms_hold_at_small_primes_against_exact_sums():
    """The closed forms themselves, read from exact rational sums."""
    for p in primes_in(11, 61):
        assert closed_form_misses(p, lambda m, q, n: Residue.from_fraction(
            zeta_trunc(m, q), q ** n).value) == [], p


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_residues_at_large_primes_meet_the_closed_forms(p, cold_tables):
    """Both read paths: a sweep's lookup (one walk of the trie of every
    strict chain to weight 7, mod p^2) and `zeta_mod`, which reads the
    lookup of checks called alone."""
    assert closed_form_misses(p, finite_padic.residue_lookups(6, 2)) == []
    assert closed_form_misses(p, lambda m, q, n: zeta_mod(m, q, n).value) == []


def test_an_inverse_off_by_one_misses_the_closed_forms(monkeypatch):
    """Mutation: the inverse table of a walk one unit off at n = 5 alone."""
    from zetaflat import chainsum

    real = chainsum._inverse_table

    def shifted(upper, modulus):
        table = list(real(upper, modulus))
        table[5] = (table[5] + 1) % modulus
        return table

    monkeypatch.setattr(chainsum, "_inverse_table", shifted)
    misses = closed_form_misses(LARGE_PRIMES[0], finite_padic.residue_lookups(6, 2))
    assert ((1,), 1) in misses and ((1,), 2) in misses
