"""One-off sweep that pins prime thresholds for the lifted congruences.

For every nonempty index of weight <= 5 and every exponent n in {2, 3},
walk the primes in [3, 199] from the top down and record the smallest P0
from which the check passes all the way up.  Results go into the
committed fixtures files that the test suite asserts against.

Run from the repository root:

    python3 tools/pin_thresholds.py [--max-weight 5] [--hi 199]

Any (index, n) with no passing tail is reported and left out of the
fixtures, which makes the corresponding test fail loudly rather than
silently pinning nothing.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zetaflat import active_backend
from zetaflat.finite_padic import (
    PADIC_FIXTURES,
    SEKI_FIXTURES,
    min_passing_prime,
    padic_duality_check,
    residue_lookups,
    save_thresholds,
    seki_lifting_check,
)
from zetaflat.index_algebra import format_index, indices_up_to_weight


def sweep(check, label, max_weight, lo, hi, zeta):
    table = {}
    missing = []
    for k in indices_up_to_weight(max_weight):
        for n in (2, 3):
            t0 = time.perf_counter()
            p0 = min_passing_prime(check, k, n, lo=lo, hi=hi, zeta=zeta)
            dt = time.perf_counter() - t0
            if p0 is None:
                missing.append((k, n))
                print(f"{label} {format_index(k)} n={n}: NO PASSING TAIL "
                      f"({dt:.1f}s)")
            else:
                table[(k, n)] = p0
                print(f"{label} {format_index(k)} n={n}: P0={p0} ({dt:.1f}s)")
    return table, missing


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-weight", type=int, default=5)
    ap.add_argument("--lo", type=int, default=3)
    ap.add_argument("--hi", type=int, default=199)
    args = ap.parse_args()

    print(f"backend: {active_backend()}")
    # One walk per prime mod p^3 of every index up to weight max_weight + 2,
    # read mod p^n, as `residue_sweep` reads it.
    zeta = residue_lookups(args.max_weight, 3)
    padic, miss1 = sweep(padic_duality_check, "padic", args.max_weight,
                         args.lo, args.hi, zeta)
    seki, miss2 = sweep(seki_lifting_check, "seki", args.max_weight,
                        args.lo, args.hi, zeta)
    p1 = save_thresholds(PADIC_FIXTURES, padic)
    p2 = save_thresholds(SEKI_FIXTURES, seki)
    print(f"wrote {len(padic)} records to {p1}")
    print(f"wrote {len(seki)} records to {p2}")
    if miss1 or miss2:
        print(f"WARNING: no passing tail for {miss1 + miss2}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
