"""Kill matrix: one fault per suite and per side of its verdict.

Each faulted row patches, with `monkeypatch`, the code that computes one
side of one suite's checks: it shifts one value by one unit of its
scale, drops or adds one term of a sum, or reads a walk, a dual or a
binomial one step off.  The suite's small grid then runs through
`cli.main` and must exit 1 with a `FAIL x/y` summary, and every failing
report must be one of the inputs the fault reaches.  Each suite's grid
also runs once without a fault and must pass.

Where no code computes a side alone, the row says so and faults the
nearest value that side reads: transport1's two sides share every term,
so both transport rows fault transport2; log2's right side is a slice of
the terms its left side alternates, so its right-side row shifts that
side as the verdict receives it.  A residue check's star sum of k is the
left side of k and the right side of its Hoffman dual, so a fault there
reaches both reports; the residue of k, the left side of antipode and
padic, is also one term of k's own right side, which moves the other
way.

Earlier single-suite mutation tests stay where they are:
`test_cli::test_a_side_one_unit_off_fails_its_input` (log2 and
hoffman-identity, each side one unit off as `ratio_report` receives it),
`test_mzv_real::test_sweep_fails_on_one_changed_flat_value` (main, one
flat value) and `test_connected_sum::test_one_shifted_right_layer_fails_its_routes`
(telescope, one middle stage).
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from zetaflat import cli, finite_padic, mzv_real
from zetaflat.chainsum import flat_chain, zeta_chain
from zetaflat.index_algebra import Index

# The package exports the function connected_sum under the module's name.
connected_sum = sys.modules["zetaflat.connected_sum"]

GRIDS = {
    "main": ["--max-weight", "2", "--max-upper", "4"],
    "transport": ["--max-upper", "4"],
    "telescope": ["--max-weight", "2", "--max-upper", "3"],
    "duality-r": ["--powers", "3..6", "--index", "1,1,2", "--index", "2,2"],
    "duality-a": ["--max-weight", "2", "--primes", "3..13"],
    "antipode": ["--max-weight", "2", "--primes", "3..13"],
    "hoffman-identity": ["--max-weight", "2", "--max-upper", "3"],
    "padic": ["--max-weight", "2", "--primes", "3..13", "--n-values", "1"],
    "seki": ["--max-weight", "2", "--primes", "3..13", "--n-values", "1"],
    "log2": ["--max-upper", "4"],
}


def shift_layer(module, upper, key, chain, at=0):
    """`module.trie_walk` with entry `at` of the layer of `key` one unit up
    in each walk at `upper` of a trie where `key` ends `chain`; the walk's
    own layer stays as it was."""
    real = module.trie_walk

    def walk(n, trie, *rest):
        hit = n == upper and key in dict(trie).get(chain.positions, ())
        for here, layer in real(n, trie, *rest):
            if hit and here == key:
                layer = [*layer[:at], layer[at] + 1, *layer[at + 1:]]
            yield here, layer
    return walk


def wrap(module, name, change):
    """`module.name` with its result passed through change(result, *args)."""
    real = getattr(module, name)
    return lambda *args, **kwargs: change(real(*args, **kwargs), *args)


def fault_main_strict(mp):
    def shifted(result, k, fences, *rest):
        values, scales = result
        if tuple(k) == (1, 1):
            values = [*values[:3], values[3] + 1, *values[4:]]
        return values, scales
    mp.setattr(mzv_real, "scaled_column", wrap(mzv_real, "scaled_column", shifted))


def fault_main_flat(mp):
    mp.setattr(mzv_real, "trie_walk",
               shift_layer(mzv_real, 3, (2,), flat_chain((2,))))


def fault_transport_left(mp):
    # transport2's left sums are the only running sums transport takes
    # through `accumulate`: each one misses its first term.
    real = connected_sum.accumulate

    def dropped(terms):
        terms = iter(terms)
        next(terms)
        return real([0, *terms])
    mp.setattr(connected_sum, "accumulate", dropped)


def fault_transport_right(mp):
    # binom(3, 0) is read as binom(m - 1, 0) by transport2's right sums at
    # N = 4, and as the cofactor of v = 0, which only they read, at N = 3.
    mp.setattr(connected_sum, "comb", wrap(
        connected_sum, "comb", lambda c, m, n: c + ((m, n) == (3, 0))))


def fault_telescope_strict(mp):
    # Stage 0 of (2,) at N sums its left layer to v = N: entry 3 is N = 3's.
    mp.setattr(connected_sum, "trie_walk",
               shift_layer(connected_sum, 4, (2,), zeta_chain((2,)), at=3))


def fault_telescope_flat(mp):
    # Stage r of a route at N is its block form's walk at N + 1.
    mp.setattr(connected_sum, "trie_walk",
               shift_layer(connected_sum, 4, (2,), flat_chain((2,))))


def fault_strict_column(mp):
    # duality-r's left side: the column of (1, 1, 2) reads its first
    # fence's value at its last fence, so the defect there rises.
    def early(result, k, fences, *rest):
        values, scales = result
        if tuple(k) == (1, 1, 2):
            values = [*values[:-1], values[0] * scales[-1] // scales[0]]
        return values, scales
    mp.setattr(mzv_real, "scaled_column", wrap(mzv_real, "scaled_column", early))


def fault_dual_column(mp):
    # duality-r's right side: the column of (4,), the dual of (1, 1, 2),
    # is read one exponent off, from (3,).
    real = mzv_real.scaled_column
    mp.setattr(mzv_real, "scaled_column", lambda k, *rest: real(
        (3,) if tuple(k) == (4,) else k, *rest))


def fault_star(mp):
    # The star sum of (1, 1) misses its coarsening (2,).
    mp.setattr(finite_padic, "coarsenings", wrap(
        finite_padic, "coarsenings",
        lambda ls, k: list(ls)[:1] if tuple(k) == (1, 1) else ls))


def fault_hoffman_dual(mp):
    # The dual of (1, 1) is read one exponent off: (1, 1), not (2,).
    mp.setattr(finite_padic, "hoffman_dual", wrap(
        finite_padic, "hoffman_dual",
        lambda d, k: Index((1, 1)) if tuple(k) == (1, 1) else d))


def fault_lookup(index):
    """The residue lookup of `index` one unit up."""
    def fault(mp):
        mp.setattr(finite_padic, "residue_lookups", wrap(
            finite_padic, "residue_lookups",
            lambda zeta, *args: lambda m, p, n: zeta(m, p, n) + (tuple(m) == index)))
    return fault


def fault_refinements(mp):
    # The refinement sum of (2,) counts (2,) twice.
    mp.setattr(finite_padic, "refinements", wrap(
        finite_padic, "refinements",
        lambda ls, k: [*ls, Index((2,))] if tuple(k) == (2,) else ls))


def fault_lattice(mp):
    # The lattice of (2,) at n = 1 counts (2,) twice.
    mp.setattr(finite_padic, "_lattice", wrap(
        finite_padic, "_lattice",
        lambda ls, k, n: (*ls, (0, (2,))) if tuple(k) == (2,) else ls))


def fault_hoffman_left(mp):
    # The weak chain's layer at v = 0, which only the left side sums.
    real = finite_padic.endpoint_values
    left = finite_padic.hoffman_weak_chain((2,))

    def shifted(spec, upper):
        front, scale = real(spec, upper)
        return ([front[0] + 1, *front[1:]] if spec == left else front), scale
    mp.setattr(finite_padic, "endpoint_values", shifted)


def fault_hoffman_right(mp):
    # binom(3, 1), which only the right side reads, one unit up.
    mp.setattr(finite_padic, "comb", wrap(
        finite_padic, "comb", lambda c, n, v: c + ((n, v) == (3, 1))))


def fault_log2_left(mp):
    # den + 1 for N = 4 moves only 1/1's term, den // 1, by one unit; the
    # right side reads the terms from 1/N on.
    mp.setattr(mzv_real, "lcm_upto", wrap(
        mzv_real, "lcm_upto", lambda den, n: den + (n == 7)))


def fault_log2_right(mp):
    real = mzv_real.ratio_report

    def shifted(check_id, inputs, lhs, rhs, started):
        if inputs == {"upper": 3}:
            rhs = rhs[0] + 1, rhs[1]
        return real(check_id, inputs, lhs, rhs, started)
    mp.setattr(mzv_real, "ratio_report", shifted)


# (suite, side, fault, the inputs the fault reaches: each failing report
# must hold every item of one of them)
MATRIX = [
    ("main", "lhs", fault_main_strict, [{"k": "1,1", "N": "3"}]),
    ("main", "rhs", fault_main_flat, [{"k": "2", "N": "3"}]),
    ("transport", "lhs", fault_transport_left, [{"check_id": "transport2"}]),
    ("transport", "rhs", fault_transport_right,
     [{"check_id": "transport2", "N": "3"}, {"check_id": "transport2", "N": "4"}]),
    ("telescope", "lhs", fault_telescope_strict, [{"k": "2", "N": "3"}]),
    ("telescope", "rhs", fault_telescope_flat, [{"k": "2", "N": "3"}]),
    ("duality-r", "lhs", fault_strict_column, [{"k": "1,1,2"}]),
    ("duality-r", "rhs", fault_dual_column, [{"k": "1,1,2"}]),
    ("duality-a", "lhs", fault_star, [{"k": "1,1"}, {"k": "2"}]),
    ("duality-a", "rhs", fault_hoffman_dual, [{"k": "1,1"}]),
    ("antipode", "lhs", fault_lookup((2,)), [{"k": "2"}]),
    ("antipode", "rhs", fault_refinements, [{"k": "2"}]),
    ("hoffman-identity", "lhs", fault_hoffman_left, [{"k": "2"}]),
    ("hoffman-identity", "rhs", fault_hoffman_right, [{"N": "3"}]),
    ("padic", "lhs", fault_lookup((2,)), [{"k": "2"}]),
    ("padic", "rhs", fault_lattice, [{"k": "2"}]),
    ("seki", "lhs", fault_star, [{"k": "1,1"}, {"k": "2"}]),
    ("seki", "rhs", fault_hoffman_dual, [{"k": "1,1"}]),
    ("log2", "lhs", fault_log2_left, [{"upper": "4"}]),
    ("log2", "rhs", fault_log2_right, [{"upper": "3"}]),
]


def run_suite(suite):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", suite, *GRIDS[suite], "--json"])
    return code, [json.loads(line) for line in out.getvalue().splitlines()], err.getvalue()


def test_matrix_covers_every_suite():
    assert set(GRIDS) == set(cli.VERIFY_SUITES)
    assert sorted((suite, side) for suite, side, *_ in MATRIX) == sorted(
        (suite, side) for suite in cli.VERIFY_SUITES for side in ("lhs", "rhs"))


@pytest.mark.parametrize("suite", cli.VERIFY_SUITES)
def test_unfaulted_grid_passes(suite):
    code, reports, err = run_suite(suite)
    assert code == 0 and err == f"PASS {len(reports)}/{len(reports)}\n"


@pytest.mark.parametrize("suite, side, fault, reached", MATRIX,
                         ids=[f"{suite}-{side}" for suite, side, *_ in MATRIX])
def test_a_fault_in_one_side_fails_its_inputs(suite, side, fault, reached,
                                              monkeypatch):
    fault(monkeypatch)
    code, reports, err = run_suite(suite)
    failed = [{"check_id": r["check_id"], **{key: str(value) for key, value
                                             in r["inputs"].items()}}
              for r in reports if not r["pass"]]
    assert code == 1 and failed
    assert err == f"FAIL {len(reports) - len(failed)}/{len(reports)}\n"
    for inputs in failed:
        assert any(want.items() <= inputs.items() for want in reached), inputs
