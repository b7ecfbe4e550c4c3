"""A fixed pure-Python loop that measures how fast the machine runs right now.

The benchmark's VM changes speed by up to about 20% over minutes, for all
code alike, so raw times of one program spread across runs by more than any
useful bound.  run.py times `reference()` just before every sweep, in its
own process, and reports each time metric scaled by REF_S over the run's
mean reference time: seconds at the speed at which the loop takes REF_S.

The loop does the kinds of work zetaflat does (small objects, dicts and
tuples, small-integer arithmetic, Fraction sums, multi-limb and huge
integers) but none of its code, so a change to the program moves the
sweeps and not the reference.  Never change the loop or REF_S: every
stored figure is in their units.  CHECKSUM guards the loop against edits.
"""

import time
from fractions import Fraction

# About the duration of one reference() on the 2-vCPU VM the baseline was
# measured on.
REF_S = 0.15
CHECKSUM = 3385007627552140515


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _work():
    table = {}
    rows = []
    for i in range(40_000):
        p = _Point(i, i & 7)
        key = (p.b, i % 13)
        table[key] = table.get(key, 0) + p.a
        rows.append(tuple(sorted((p.b, p.a % 5))))
    x = len(rows) + sum(table.values())
    for i in range(400_000):
        x = (x + i * i) % 1_000_003
    acc = Fraction(0)
    y = 1
    for i in range(1, 6000):
        acc += Fraction(i % 97 + 1, i)
        y = (y * 7919 + i) % (1 << 512)
    big = 3 ** 8000
    run = 0
    for i in range(1, 60):
        run += (big // i) * (big + run % big)
        run %= big << 64
    return (x * 31 + acc.numerator % 1_000_003 + y + run) % (1 << 63)


def reference():
    """Seconds one pass of the reference loop takes now."""
    t = time.perf_counter()
    result = _work()
    elapsed = time.perf_counter() - t
    if result != CHECKSUM:
        raise RuntimeError(f"reference loop gave {result}, not {CHECKSUM}: "
                           f"it was changed")
    return elapsed
