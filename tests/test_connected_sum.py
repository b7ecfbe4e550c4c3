"""Tests for connectors, connected sums, and telescoping.

The connected-sum evaluator is cross-checked against a test-local
itertools oracle that spells out the hybrid tuple set from scratch: left
chain strict, weak coupling n_r <= m_1 through the connector, and on the
right a strict gap exactly after each block-opening position, fence
included.  The oracle shares no code with the table contraction in the
package.
"""

import itertools
import json
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from zetaflat.chainsum import (
    chain_trie,
    flat_chain,
    reflect_chain,
    tilde_chain,
    zeta_chain,
)
from zetaflat.cli import _telescope_report, main
from zetaflat.connected_sum import (
    TelescopeStage,
    TelescopeTrace,
    binomial_sums,
    connected_sum,
    connector,
    telescope,
    telescope_sweep,
    transport_failures,
    transport_weight_down_check,
    transport_weight_up_check,
)
from zetaflat.index_algebra import Index, indices_up_to_weight
from zetaflat.mzv_real import zeta_flat, zeta_trunc


def tilde_starts(l):
    acc = 1
    out = {1}
    for part in l[:-1]:
        acc += part
        out.add(acc)
    return out


def oracle_connected(upper, k, l):
    """Direct filtered enumeration of the hybrid double sum."""
    w = sum(l)
    starts = tilde_starts(l)
    total = Fraction(0)
    for n in itertools.combinations(range(1, upper + 1), len(k)):
        left = Fraction(1)
        for e, v in zip(k, n):
            left /= v ** e
        for m in itertools.product(range(1, upper + 1), repeat=w):
            if m[0] < n[-1]:
                continue
            ok = True
            for j in range(1, w):
                if j in starts:
                    ok = ok and m[j - 1] < m[j]
                else:
                    ok = ok and m[j - 1] <= m[j]
            if w in starts:
                ok = ok and m[-1] < upper
            else:
                ok = ok and m[-1] <= upper
            if not ok:
                continue
            term = left * connector(upper, n[-1], m[0])
            for j in range(1, w + 1):
                if j in starts:
                    term /= upper - m[j - 1]
                else:
                    term /= m[j - 1]
            total += term
    return total


def test_connector_known_values():
    assert connector(5, 2, 3) == Fraction(3, 10)
    for upper in range(1, 12):
        for m in range(upper + 1):
            assert connector(upper, 0, m) == 1
        for n in range(upper + 1):
            assert connector(upper, n, upper) == 1
    for upper in range(1, 10):
        for n in range(1, upper + 1):
            for m in range(n, upper + 1):
                v = connector(upper, n, m)
                assert 0 < v <= 1


def test_connector_cache_is_bounded_and_holds_one_fence():
    """Read one fence at a time, every pair of a fence up to N = 126 stays
    cached, while fences before it drop out."""
    connector.cache_clear()
    for upper in (125, 126):
        pairs = [(n, m) for m in range(upper + 1) for n in range(m + 1)]
        for _ in range(2):
            for n, m in pairs:
                connector(upper, n, m)
    info = connector.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize
    # the second pass over each fence is all hits
    assert info.misses == 126 * 127 // 2 + 127 * 128 // 2
    connector.cache_clear()


def test_connector_argument_order():
    with pytest.raises(ValueError):
        connector(5, 3, 2)
    with pytest.raises(ValueError):
        connector(5, 2, 6)
    with pytest.raises(ValueError):
        connector(5, -1, 3)


def test_transport_identities_known_values():
    r = transport_weight_down_check(3, 1, 2)
    assert r.passed and r.lhs == "2/3"
    r = transport_weight_up_check(2, 0, 1)
    assert r.passed and r.lhs == "1/2"
    r = transport_weight_up_check(3, 1, 2)
    assert r.passed and r.lhs == "1/6"
    # n = m degenerates to a single-term sum C_N(n,n)/n = 1/(n binom(N,n))
    r = transport_weight_down_check(7, 4, 4)
    assert r.passed and r.lhs == "1/140"


def per_pair_failures(which, upper):
    """The failing pairs of transport `which` at fence N, m then n, from
    the per-pair checks."""
    check, low = ((transport_weight_down_check, 1) if which == 1
                  else (transport_weight_up_check, 0))
    return [(n, m) for m in range(1, upper + 1) for n in range(low, m + low)
            if not check(upper, n, m).passed]


def test_transport_failures_equal_the_per_pair_checks():
    for upper in range(1, 31):
        for which in (1, 2):
            assert transport_failures(which, upper) == \
                per_pair_failures(which, upper) == [], (which, upper)


def test_transport_failures_follow_a_wrong_binomial(monkeypatch):
    """With binom(5, 2) read as 11, both paths fail the same pairs."""
    def wrong_comb(n, k):
        return 11 if (n, k) == (5, 2) else comb(n, k)

    # the module, not the function that the package exports under its name
    monkeypatch.setattr(sys.modules["zetaflat.connected_sum"], "comb", wrong_comb)
    connector.cache_clear()
    try:
        for which in (1, 2):
            failing = [transport_failures(which, upper) for upper in range(1, 13)]
            assert failing == [per_pair_failures(which, upper)
                               for upper in range(1, 13)], which
            assert any(failing), which
    finally:
        connector.cache_clear()


def test_transport_argument_validation():
    with pytest.raises(ValueError):
        transport_weight_down_check(5, 0, 3)
    with pytest.raises(ValueError):
        transport_weight_up_check(5, 3, 3)


def test_connected_sum_boundaries():
    assert connected_sum(2, (2,), ()) == Fraction(5, 4)
    assert connected_sum(2, (), (2,)) == Fraction(5, 4)
    assert connected_sum(3, (), (1, 2)) == zeta_flat((1, 2), 4)
    assert connected_sum(3, (2, 1), ()) == zeta_trunc((2, 1), 4)
    with pytest.raises(ValueError):
        connected_sum(5, (), ())
    with pytest.raises(ValueError):
        connected_sum(0, (2,), ())


def test_connected_sum_against_oracle():
    for upper in range(1, 7):
        for k in indices_up_to_weight(3):
            if not k:
                continue
            for l in indices_up_to_weight(3):
                if not l:
                    continue
                assert connected_sum(upper, k, l) == \
                    oracle_connected(upper, tuple(k), tuple(l)), (upper, k, l)


def test_depth_one_bridge():
    for e in range(1, 5):
        for upper in range(1, 16):
            assert connected_sum(upper, (e,), ()) == connected_sum(upper, (), (e,))


def test_telescope_spec_instances():
    t = telescope((2,), 2)
    assert len(t.stages) == 2
    assert all(s.value == Fraction(5, 4) for s in t.stages)
    t = telescope((1, 1), 3)
    assert len(t.stages) == 3
    assert t.all_equal
    t = telescope((2, 3), 8)
    assert t.all_equal
    assert t.stages[0].value == zeta_trunc((2, 3), 9)
    assert t.stages[-1].value == zeta_flat((2, 3), 9)


def test_telescope_stage_structure():
    k = Index((1, 2, 2))
    t = telescope(k, 6)
    r = k.depth
    assert t.stages[0].left == k and t.stages[0].right == ()
    assert t.stages[r].left == () and t.stages[r].right == k
    for a, b in zip(t.stages, t.stages[1:]):
        assert a.left[:-1] == tuple(b.left)
        assert (a.left[-1],) + tuple(a.right) == tuple(b.right)


def test_telescope_grid():
    for k in indices_up_to_weight(5):
        if not k:
            continue
        for upper in (1, 2, 5, 9, 12):
            t = telescope(k, upper)
            assert t.all_equal, (k, upper)
            assert t.stages[0].value == zeta_trunc(k, upper + 1)
            assert t.stages[-1].value == zeta_flat(k, upper + 1)


def test_trace_serialization():
    t = telescope((2, 3), 8)
    text = t.to_text()
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("Z_8(2,3 | ) = ")
    assert lines[-1].startswith("Z_8( | 2,3) = ")
    assert len({line.split(" = ")[1] for line in lines}) == 1

    d = json.loads(t.to_json())
    assert d["index"] == "2,3"
    assert d["N"] == 8
    assert d["all_equal"] is True
    assert [s["left"] for s in d["stages"]] == ["2,3", "2", ""]
    assert [s["right"] for s in d["stages"]] == ["", "3", "2,3"]
    values = {s["value"] for s in d["stages"]}
    assert len(values) == 1


def test_telescope_rejects_empty():
    with pytest.raises(ValueError):
        telescope((), 5)


def test_binomial_sums_match_comb_products():
    rng = random.Random(13)
    for upper in range(41):
        x = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(upper + 1)]
        assert binomial_sums(x) == [
            sum(comb(u, v) * x[u] for u in range(v, upper + 1))
            for v in range(upper + 1)], upper


class _Table(list):
    """A list that can be watched through a weak reference."""


def _telescope_tasks(weight, top):
    return [(_telescope_report, {"k": k, "upper": n})
            for k in indices_up_to_weight(weight) for n in range(1, top + 1)]


def test_sweep_forms_each_right_side_once(monkeypatch):
    """telescope_sweep builds the right chain of each suffix once, walks
    the trie of those chains once per fence, at N, and the trie of the
    block forms at N + 1, and keeps none of their layers; it keeps each
    fence's table until the fence's last report and the left layers until
    the run ends, and its reports equal those of each route telescoped
    alone."""
    # The package exports the function connected_sum under the module's name.
    module = sys.modules["zetaflat.connected_sum"]
    tildes, walks, watched = Counter(), [], []
    real_tilde, real_walk = module.tilde_chain, module.trie_walk

    def tilde_chain(l):
        tildes[tuple(l)] += 1
        return real_tilde(l)

    def trie_walk(upper, nodes):
        walks.append((upper, nodes))
        for layer in real_walk(upper, nodes):
            watched.append((len(walks), weakref.ref(layer := _Table(layer))))
            yield layer

    tasks = _telescope_tasks(4, 8)
    alone = [fn(**kwargs) for fn, kwargs in tasks]
    last = {kwargs["upper"]: i for i, (_, kwargs) in enumerate(tasks)}
    first = {kwargs["upper"]: i for i, (_, kwargs) in reversed(list(enumerate(tasks)))}
    monkeypatch.setattr(module, "tilde_chain", tilde_chain)
    monkeypatch.setattr(module, "trie_walk", trie_walk)
    sweep = telescope_sweep(tasks)
    for i, (want, report) in enumerate(zip(alone, sweep, strict=True)):
        assert report.passed
        assert (report.lhs, report.rhs) == (want.lhs, want.rhs)
        assert all(ref() is None for walk, ref in watched if walk > 1)
        assert sorted(sweep.gi_yieldfrom.gi_frame.f_locals["tables"]) == sorted(
            n for n, j in last.items() if first[n] <= i < j)
    indices = indices_up_to_weight(4)
    suffixes = {k[j:] for k in indices for j in range(1, len(k))}
    assert tildes == Counter(dict.fromkeys(suffixes, 1))
    forms = chain_trie(map(flat_chain, indices))
    rights = chain_trie(reflect_chain(tilde_chain(s)) for s in suffixes)
    assert walks == [(9, chain_trie(map(zeta_chain, indices)))] + [
        walk for n in range(1, 9) for walk in ((n + 1, forms), (n, rights))]
    assert all(ref() is None for _, ref in watched)


def test_sweep_past_the_table_budget(monkeypatch):
    """Under a budget of 400 bits, `budget_runs` cuts a telescope grid of
    weight 3 and fences 1..4 only where the index changes: the indices of
    weight <= 2 in one run (3 nodes * 2^2 * 5^2 = 300 bits), and each index
    of weight 3 in a run of its own, past the budget alone (3 * 3^2 * 25 =
    675).  Each run walks the trie of its strict chains once, at its top
    fence + 1, and at each fence the tries of its own block forms, at
    N + 1, and right chains, at N, a one-index run too; no route runs
    `telescope`, and every report equals its route telescoped alone."""
    module = sys.modules["zetaflat.connected_sum"]
    mzv_real = sys.modules["zetaflat.mzv_real"]
    tasks = _telescope_tasks(3, 4)
    alone = [fn(**kwargs) for fn, kwargs in tasks]
    monkeypatch.setattr(mzv_real, "FLAT_TABLE_BITS", 400)
    runs = [list(dict.fromkeys(kwargs["k"] for _, kwargs in run))
            for run, *_ in mzv_real.budget_runs(tasks, "telescope")]
    assert runs == [[(1,), (1, 1), (2,)], [(1, 1, 1)], [(1, 2)], [(2, 1)], [(3,)]]
    walks = []
    real = module.trie_walk
    monkeypatch.setattr(module, "trie_walk", lambda upper, nodes:
                        walks.append((upper, nodes)) or real(upper, nodes))
    monkeypatch.setattr(module, "telescope", None)
    for want, report in zip(alone, telescope_sweep(tasks), strict=True):
        assert report.passed and (report.lhs, report.rhs) == (want.lhs, want.rhs)
    want = []
    for run in runs:
        rights = chain_trie(reflect_chain(tilde_chain(k[j:]))
                            for k in run for j in range(1, len(k)))
        want.append((5, chain_trie(map(zeta_chain, run))))
        for n in range(1, 5):
            want += [(n + 1, chain_trie(map(flat_chain, run))), (n, rights)]
    assert walks == want


def test_one_shifted_right_layer_fails_its_routes(monkeypatch, capsys):
    """Mutation: one entry of the right layer of suffix (1,) at fence 4
    shifted by one, and verify telescope exits 1 with exactly the routes
    through ((1,), 4) failing, their stages diverging."""
    module = sys.modules["zetaflat.connected_sum"]
    real, target = module.trie_walk, reflect_chain(tilde_chain((1,))).positions

    def trie_walk(upper, nodes):
        for node, layer in zip(nodes, real(upper, nodes)):
            yield [layer[0] + 1, *layer[1:]] if (upper, node) == (4, target) else layer

    monkeypatch.setattr(module, "trie_walk", trie_walk)
    assert main(["verify", "telescope", "--max-weight", "3", "--max-upper", "6",
                 "--json"]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == "FAIL 39/42"
    failed = [r for r in map(json.loads, out.splitlines()) if not r["pass"]]
    assert [(r["inputs"], r["rhs"]) for r in failed] == [
        ({"k": k, "N": "4"}, "stages diverge") for k in ("1,1", "1,1,1", "2,1")]


def test_sweep_reads_a_route_again():
    """A route read twice, or again after other routes in any order, gets
    the report of the route telescoped alone each time."""
    twice = [(_telescope_report, {"k": Index((2, 1)), "upper": 3})] * 2
    shuffled = random.Random(5).choices(_telescope_tasks(3, 4), k=40)
    for tasks in (twice, shuffled):
        for (fn, kwargs), report in zip(tasks, telescope_sweep(tasks),
                                        strict=True):
            want = fn(**kwargs)
            assert (report.lhs, report.rhs, report.passed) == (
                want.lhs, want.rhs, True)


def test_sweep_builds_no_fraction(monkeypatch, capsys):
    """Every stage of a route read once stays an integer over its scale:
    with the module's `Fraction` raising, a telescope grid still passes."""
    module = sys.modules["zetaflat.connected_sum"]

    def fraction(*args):
        raise AssertionError(f"a stage became a Fraction: {args}")

    monkeypatch.setattr(module, "Fraction", fraction)
    assert main(["verify", "telescope", "--max-weight", "4",
                 "--max-upper", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS 120/120"
