"""The evaluation kernels: enumeration, prefix-sum DP and residue DP.

A kernel works on a pre-validated plan: per-position denominator tables
`dens[i][n]` (zero outside the feasible band), strictness flags for the
relation entering each position, and the feasible band [lbs[i], ubs[i]].
Exact kernels carry values as integers scaled by a common denominator; the
scale is a multiple of every denominator product, so every division below
is exact integer division.
"""

from .errors import NonUnitError


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


def dp_sum_mod(dens, stricts, lbs, ubs, modulus):
    """The dynamic program in Z/modulus, inverting each denominator.

    `dens` entries are already reduced mod `modulus`.  Every point of the
    feasible band is reached by some tuple, so its denominator is a true
    factor of the sum: a non-unit anywhere on the band raises
    NonUnitError naming the position and value, whatever the running
    coefficient happens to be.
    """
    size = len(dens[0])
    front = [0] * size
    front[0] = 1
    for i in range(len(dens)):
        lo, hi = lbs[i], ubs[i]
        d = dens[i]
        nxt = [0] * size
        run = 0
        ptr = 0
        for n in range(lo, hi + 1):
            target = n - 1 if stricts[i] else n
            while ptr <= target:
                run += front[ptr]
                ptr += 1
            try:
                inv = pow(d[n], -1, modulus)
            except ValueError:
                raise NonUnitError(
                    f"denominator {d[n]} at position {i + 1}, n={n} "
                    f"is not a unit mod {modulus}",
                    position=i + 1, n=n, value=d[n], modulus=modulus,
                ) from None
            if run:
                nxt[n] = (run % modulus) * inv % modulus
        front = nxt
    return sum(front[lbs[-1]:ubs[-1] + 1]) % modulus
