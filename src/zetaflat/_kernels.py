"""The evaluation kernels: enumeration, prefix-sum DP and residue DP.

A kernel works on a pre-validated plan: per-position rows indexed by n,
strictness flags for the relation entering each position, and the
feasible band [lbs[i], ubs[i]], the only part of a row a kernel reads.
For the exact kernels a row holds the denominators `dens[i][n]`, and
values are carried as integers scaled by a common denominator; the scale
is a multiple of every denominator product, so every division below is
exact.  For the residue kernel a row holds the inverse denominators.
"""

from itertools import accumulate


def enum_sum(dens, stricts, lbs, ubs, scale):
    """Direct enumeration of every admissible tuple; the trusted oracle.

    Returns the sum scaled by `scale`.  The running value carried into
    depth i is scale divided by the denominators fixed so far.
    """
    last = len(dens) - 1

    def rec(i, prev, carry):
        lo = prev + 1 if stricts[i] else prev
        if lo < lbs[i]:
            lo = lbs[i]
        hi = ubs[i]
        d = dens[i]
        total = 0
        if i == last:
            for n in range(lo, hi + 1):
                total += carry // d[n]
        else:
            for n in range(lo, hi + 1):
                total += rec(i + 1, n, carry // d[n])
        return total

    return rec(0, 0, scale)


def dp_sum(dens, stricts, lbs, ubs, lams):
    """Prefix-sum dynamic program over the same plan.

    Layer i holds, for each endpoint value n, the scaled sum over all
    partial tuples ending at n; `lams[i]` is the per-layer scale factor
    (a multiple of every dens[i][n] on the band).  Returns the final
    layer, whose entries vanish off the last band and add up to the
    scaled sum of the whole chain.
    """
    size = len(dens[0])
    front = [0] * size
    front[0] = 1
    for i in range(len(dens)):
        lo, hi = lbs[i], ubs[i]
        lam = lams[i]
        d = dens[i]
        nxt = [0] * size
        run = 0
        ptr = 0
        for n in range(lo, hi + 1):
            target = n - 1 if stricts[i] else n
            while ptr <= target:
                run += front[ptr]
                ptr += 1
            if run:
                nxt[n] = (lam // d[n]) * run
        front = nxt
    return front


def dp_sum_mod(rows, stricts, lbs, ubs, modulus):
    """The dynamic program in Z/modulus, multiplying by inverse denominators.

    `rows[i][n]` is the inverse mod `modulus` of the denominator of
    position i at n; the planner has already checked that every point of
    the feasible band has one, so nothing is inverted here.  Layer i is
    the prefix sums of layer i - 1 (through n - 1 for a strict relation,
    through n for a weak one) times the row entries on the band.
    """
    size = len(rows[0])
    front = [0] * size
    front[0] = 1
    for row, strict, lo, hi in zip(rows, stricts, lbs, ubs):
        runs = list(accumulate(front[:hi + 1]))
        start = lo - 1 if strict else lo
        nxt = [0] * size
        nxt[lo:hi + 1] = [run * inv % modulus
                          for run, inv in zip(runs[start:], row[lo:hi + 1])]
        front = nxt
    return sum(front) % modulus
