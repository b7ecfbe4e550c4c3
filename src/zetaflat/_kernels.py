"""The evaluation kernels: enumeration, prefix-sum DP, residue DP and a
product tree for strict harmonic chains.

The first three work on a pre-validated plan: per-position rows indexed
by n, strictness flags for the relation entering each position, and the
feasible band [lbs[i], ubs[i]], the only part of a row a kernel reads.
Exact values are integers scaled by a common denominator: enumeration
divides a multiple of every denominator product by the denominators
`dens[i][n]`, and the exact dynamic program multiplies by lam_i //
dens[i][n], for a per-position scale lam_i; the residue one multiplies by
inverse denominators.  Both programs start from a given layer and return
their final one, the value at each endpoint, so a chain can be extended
one position at a time, as `chainsum.trie_walk` extends it over a trie of
chains.

The fourth, `harmonic_tree`, takes the exponents of a strict harmonic
chain (what `zeta_chain` compiles to) and sorted fences.  At each fence
it renormalises its row to the scale given there, every entry an exact
quotient (`scaled_quotient`), since the scale times every prefix sum of
the chain is an integer.
"""

from itertools import accumulate, islice
from operator import mul


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


def dp_sum(rows, stricts, lbs, ubs, front):
    """Prefix-sum dynamic program over a plan of multiplier rows.

    `rows[i]` yields lam_i // dens[i][n] for lbs[i] <= n <= ubs[i] (`_plan`).
    `front` is the layer the program starts from: [1, 0, 0, ...] for a
    whole chain, or the final layer of a prefix to extend it by the
    planned positions.  Layer i is the prefix sums of layer i - 1 (through
    n - 1 for a strict relation, through n for a weak one) times the row
    entries on the band.  Returns the final layer, whose entries vanish
    off the last band and add up to the chain sum scaled by every lam_i.
    """
    size = len(front)
    for row, strict, lo, hi in zip(rows, stricts, lbs, ubs):
        runs = islice(accumulate(front), lo - 1 if strict else lo, None)
        nxt = [0] * size
        nxt[lo:hi + 1] = map(mul, row, runs)  # row first: no sum past hi
        front = nxt
    return front


def dp_sum_mod(rows, stricts, lbs, ubs, modulus, front):
    """The dynamic program in Z/modulus, multiplying by inverse denominators.

    `rows[i][n]` is the inverse mod `modulus` of the denominator of
    position i at n; the planner has already checked that every point of
    the feasible band has one, so nothing is inverted here.  `front` is
    the layer the program starts from: [1, 0, 0, ...] for a whole chain,
    or the final layer of a prefix to extend it by the planned positions.
    Layer i is the prefix sums of layer i - 1 (through n - 1 for a strict
    relation, through n for a weak one) times the row entries on the
    band.  Returns the final layer, reduced, with zeros off the last band;
    its sum is the chain sum.
    """
    size = len(rows[0])
    for row, strict, lo, hi in zip(rows, stricts, lbs, ubs):
        runs = list(accumulate(front[:hi + 1]))
        start = lo - 1 if strict else lo
        nxt = [0] * size
        nxt[lo:hi + 1] = [run * inv % modulus
                          for run, inv in zip(runs[start:], row[lo:hi + 1])]
        front = nxt
    return front


LEAF_STEPS = 32


def scaled_quotient(x, scale, den):
    """x * scale // den for positive scale and den dividing x * scale,
    from leading bits of x, without forming x * scale.

    With x = X 2^k + u, den = b 2^k + r (0 <= u, r < 2^k) and q the
    quotient, X scale - q b = (q r - u scale) / 2^k is an integer in
    (-scale, q) ((-scale, 0] if q = 0).  As q < 2^(len(x) + len(scale) -
    len(den) + 1), the k below leaves b > q + scale, so (X + 1) scale //
    b is q.  Where k <= 0 it divides the product in full.
    """
    k = (den.bit_length() - scale.bit_length()
         - max(x.bit_length() - den.bit_length() + 1, 0) - 2)
    if k <= 0:
        return x * scale // den
    return ((x >> k) + 1) * scale // (den >> k)


def harmonic_tree(exps, fences, scales, entries=None, keep=False):
    """Strict harmonic chain sums at ascending fences by binary splitting.

    Step m maps the row vector v (v[j]: the sum of the first j terms of
    the chain over n_1 < ... < n_j < m) to v (I + sum_i e_{i,i+1} /
    m^exps[i]).  With t = max(exps) a step is the integer matrix m^t I +
    sum_i m^(t - exps[i]) e_{i,i+1} over m^t.  The steps of each gap
    between fences multiply in a balanced tree.  Entry (i, j) of the
    product of steps a..b-1 depends only on t, a, b and s = exps[i:j]:
    it is the sum over the splits s = s[:u] + s[u:] of the two halves'
    entries, or, in a leaf of LEAF_STEPS steps, the first row of a
    subchain beginning with s, stepped entry by entry.  A node computes
    each distinct s once, and only if `entries` (shared by the caller,
    under (t, a, b)) lacks it; with `keep`, the top two levels of each
    gap, where most of the multiplying is, leave theirs for a later
    chain.  At each fence N = fences[j] the row is renormalised to
    scales[j]: row[0] becomes the scale and each row[i] the quotient
    (`scaled_quotient`) of row[i] times the scale by the old row[0],
    exact because the scale times every prefix sum below N is an
    integer, as for lcm(1..N)^weight.  The new row[r] is the result at
    N.  Fences must not decrease; a repeated fence takes no steps.
    """
    r, t = len(exps), max(exps)
    exps = tuple(exps)
    subs = {exps[i:j] for i in range(r + 1) for j in range(i, r + 1)}
    entries = {} if entries is None else entries

    def leaf(a, b, node, missing):
        ds = [m ** t for m in range(a, b)]
        lifts = {e: [m ** (t - e) for m in range(a, b)] for e in set(exps)}
        diags = list(accumulate(ds, mul, initial=1))
        node[()] = diags[-1]
        for s in sorted(missing, key=len, reverse=True):
            if s in node:
                continue
            hist = diags  # entry over steps a..a+n-1, for each n
            for c, e in enumerate(s, 1):
                v = 0
                hist = [0] + [v := v * d + h * lift
                              for h, d, lift in zip(hist, ds, lifts[e])]
                node[s[:c]] = v

    def product(a, b, level=0):
        key = (t, a, b)
        node = (entries.setdefault(key, {}) if keep and level < 2
                else entries.pop(key, {}))
        missing = [s for s in subs if s not in node]
        if missing and b - a <= LEAF_STEPS:
            leaf(a, b, node, missing)
        elif missing:
            mid = (a + b) // 2
            p, q = product(a, mid, level + 1), product(mid, b, level + 1)
            for s in missing:
                node[s] = sum(p[s[:u]] * q[s[u:]] for u in range(len(s) + 1))
        return node

    row, prev, out = [1] + [0] * r, 1, []
    for n, scale in zip(fences, scales):
        if n > prev:
            mat = product(prev, n)
            row = [sum(row[i] * mat[exps[i:j]] for i in range(j + 1))
                   for j in range(r + 1)]
            prev = n
        row = [scale] + [scaled_quotient(x, scale, row[0]) for x in row[1:]]
        out.append(row[r])
    return out
