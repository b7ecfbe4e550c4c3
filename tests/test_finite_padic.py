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
        # programs at the top fence of a sweep's tasks
        assert [(r.lhs, r.rhs) for r in
                (hoffman_identity_check(k, n) for n in range(1, 9))] == want, k
        for top in (8, 11):
            tasks = [(hoffman_identity_check, {"k": k, "upper": n})
                     for n in range(1, top + 1)]
            reports = list(hoffman_identity_sweep(tasks))[:8]
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
    nodes = chain_trie(map(zeta_chain, indices))
    assert nodes == [zeta_chain(k).positions for k in indices]
    for p in primes_in(2, 31):
        for n in (1, 2, 3):
            table = dict(zip(indices, finite_padic._walk(p, n, nodes)))
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
    nodes = chain_trie(map(zeta_chain, indices))  # in the indices' order
    table = dict(zip(indices, finite_padic._walk(p, n, nodes)))
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
    monkeypatch.setattr(finite_padic, "_walk", lambda p, n, nodes:
                        walks.append((p, n, len(nodes))) or real(p, n, nodes))
    lifted = suite in ("padic", "seki")
    argv = ["verify", suite, "--max-weight", "3", "--primes", "3..13"]
    assert main(argv + (["--n-values", "1,2,3"] if lifted else [])) == 0
    capsys.readouterr()
    top = 3 if lifted else 1
    assert walks == [(p, top, 2 ** (3 + top - 1) - 1)
                     for p in (3, 5, 7, 11, 13)]
    info = finite_padic._zeta_residue.cache_info()
    assert info.hits == info.misses == info.currsize == 0


def test_sweep_lookups_are_the_residues_of_single_checks(cold_tables):
    """Every residue a sweep's checks read, over a run that mixes exponents
    1, 2 and 3, the unlifted checks and several primes, is the residue of
    the single-check lookup, in [0, p^n); so is every index up to weight
    4 + n - 1 read through `residue_lookups` at (p, n)."""
    reads = []

    def spy(check):
        def run(*, zeta, **kwargs):
            def read(m, p, n):
                reads.append((m, p, n, zeta(m, p, n)))
                return reads[-1][-1]
            return check(**kwargs, zeta=read)
        return run

    tasks = [(spy(check), {"k": k, "p": p, "n": n} if n else {"k": k, "p": p})
             for k in [Index((2, 1)), Index((1, 1, 2)), Index((3,))]
             for check, n in ((padic_duality_check, 3), (seki_lifting_check, 1),
                              (hoffman_duality_check, 0),
                              (seki_lifting_check, 2),
                              (antipode_duality_check, 0))
             for p in (5, 3, 11)]
    assert all(r.passed for r in finite_padic.residue_sweep(tasks))
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
    monkeypatch.setattr(finite_padic, "_walk", lambda p, n, nodes:
                        real(p, n - 1, nodes))
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
    monkeypatch.setattr(finite_padic, "_walk", lambda p, n, nodes:
                        walks.append((p, n, tuple(nodes))) or real(p, n, nodes))
    for k in indices_up_to_weight(4):
        for p in (5, 7):
            assert padic_duality_check(k, p, 2).passed
    assert len(set(walks)) == len(walks)
    for p, n, nodes in walks:
        m = tuple(pos.weight.harm for pos in nodes[-1])
        assert (p, n) in ((5, 2), (7, 2)) and sum(m) <= 5
        assert nodes == tuple(chain_trie([zeta_chain(m)]))
    assert finite_padic._zeta_residue.cache_info().currsize == len(walks)
    walks.clear()
    k = (1,) * 9 + (2,) * 6
    assert zeta_mod(k, 31, 2).value == eval_dp_mod(zeta_chain(k), 31, 31 ** 2).value
    assert walks == [(31, 2, tuple(chain_trie([zeta_chain(k)])))]
