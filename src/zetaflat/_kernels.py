"""The evaluation kernels: enumeration, prefix-sum DP, residue DP and a
product tree for strict harmonic chains.

The first three work on a pre-validated plan: per-position rows indexed
by n, strictness flags for the relation entering each position, and the
feasible band [lbs[i], ubs[i]], the only part of a row a kernel reads.
For the exact kernels a row holds the denominators `dens[i][n]`, and
values are carried as integers scaled by a common denominator; the scale
is a multiple of every denominator product, so every division below is
exact.  For the residue kernel a row holds the inverse denominators.
Both dynamic programs start from a given layer and return their final
one, the value at each endpoint, so a chain can be extended one
position at a time, as `chainsum.trie_walk` extends it over a trie of
indices.

The fourth, `harmonic_tree`, takes the exponents of a strict harmonic
chain (what `zeta_chain` compiles to) and sorted fences.  It carries the
exact value at each fence as an integer row over a product of step
denominators, and its one division, by that product, is exact for the
same reason: the scale it is given times the chain sum is an integer.
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


def dp_sum(dens, stricts, lbs, ubs, lams, front):
    """Prefix-sum dynamic program over the same plan.

    Layer i holds, for each endpoint value n, the scaled sum over all
    partial tuples ending at n; `lams[i]` is the per-layer scale factor
    (a multiple of every dens[i][n] on the band).  `front` is the layer
    the program starts from: [1, 0, 0, ...] for a whole chain, or the
    final layer of a prefix to extend it by the planned positions.
    Returns the final layer, whose entries vanish off the last band and
    add up to the scaled sum of the whole chain.
    """
    size = len(dens[0])
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


LEAF_STEPS = 16


def harmonic_tree(exps, fences, scales):
    """Strict harmonic chain sums at ascending fences by binary splitting.

    Step m maps the row vector v (v[j]: the sum over n_1 < ... < n_j < m)
    to v (I + sum_i e_{i,i+1} / m^exps[i]), so e_0 times the product of
    steps 1 .. N - 1 ends in the chain sum below the fence N.  With
    t = max(exps) a step is the integer matrix m^t I + sum_i m^(t -
    exps[i]) e_{i,i+1} over the denominator m^t.  The steps of each gap
    between consecutive fences multiply in a balanced tree, with leaves
    of LEAF_STEPS steps stepped directly, and the row carries across the
    gaps.  Fences must not decrease; a repeated fence takes no steps.
    Every diagonal entry of a product is the product of its step
    denominators, multiplied once per step or node: row[0] is the row's
    denominator, and at fences[j] the result is row[r] * scales[j] //
    row[0], exact whenever scales[j] times the sum is an integer, as it
    is for lcm(1..N)^weight.
    """
    r, t = len(exps), max(exps)

    def leaf(a, b):
        mat = [[int(i == j) for j in range(r + 1)] for i in range(r + 1)]
        for m in range(a, b):
            d = m ** t
            lift = [m ** (t - e) for e in exps]
            diag = mat[0][0] * d
            for i, row in enumerate(mat):
                for j in range(r, i, -1):
                    row[j] = row[j] * d + row[j - 1] * lift[j - 1]
                row[i] = diag
        return mat

    def product(a, b):
        if b - a <= LEAF_STEPS:
            return leaf(a, b)
        mid = (a + b) // 2
        p, q = product(a, mid), product(mid, b)
        diag = p[0][0] * q[0][0]
        return [[diag if i == j else sum(p[i][l] * q[l][j]
                                         for l in range(i, j + 1))
                 for j in range(r + 1)] for i in range(r + 1)]

    row, prev, out = [1] + [0] * r, 1, []
    for n, scale in zip(fences, scales):
        if n > prev:
            mat = product(prev, n)
            row = [sum(row[l] * mat[l][j] for l in range(j + 1))
                   for j in range(r + 1)]
            prev = n
        out.append(row[r] * scale // row[0])
    return out
