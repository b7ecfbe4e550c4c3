# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled evaluation kernels.

Twin of `zetaflat._kernels`: same functions, same scaled-integer contract,
bit-identical results.  The win is loop control in C; the big-integer
arithmetic itself stays on Python objects since values exceed machine
words.  The residue kernel drops to native 64-bit arithmetic whenever the
modulus allows it.
"""

from libc.stdlib cimport free, malloc

from .errors import NonUnitError


def enum_sum(list dens, list stricts, list lbs, list ubs, scale):
    """Direct enumeration of every admissible tuple; the trusted oracle."""
    cdef Py_ssize_t k = len(dens)
    cdef char *strict_flags = <char *>malloc(k)
    cdef Py_ssize_t *lo_band = <Py_ssize_t *>malloc(k * sizeof(Py_ssize_t))
    cdef Py_ssize_t *hi_band = <Py_ssize_t *>malloc(k * sizeof(Py_ssize_t))
    if strict_flags == NULL or lo_band == NULL or hi_band == NULL:
        free(strict_flags); free(lo_band); free(hi_band)
        raise MemoryError()
    cdef Py_ssize_t i
    for i in range(k):
        strict_flags[i] = 1 if stricts[i] else 0
        lo_band[i] = lbs[i]
        hi_band[i] = ubs[i]
    try:
        return _enum_rec(0, 0, scale, dens, strict_flags, lo_band, hi_band, k)
    finally:
        free(strict_flags); free(lo_band); free(hi_band)


cdef object _enum_rec(Py_ssize_t i, Py_ssize_t prev, object carry, list dens,
                      char *strict_flags, Py_ssize_t *lo_band,
                      Py_ssize_t *hi_band, Py_ssize_t k):
    cdef Py_ssize_t lo = prev + 1 if strict_flags[i] else prev
    if lo < lo_band[i]:
        lo = lo_band[i]
    cdef Py_ssize_t hi = hi_band[i]
    cdef list d = <list>dens[i]
    cdef object total = 0
    cdef Py_ssize_t n
    if i == k - 1:
        for n in range(lo, hi + 1):
            total = total + carry // <object>d[n]
    else:
        for n in range(lo, hi + 1):
            total = total + _enum_rec(i + 1, n, carry // <object>d[n], dens,
                                      strict_flags, lo_band, hi_band, k)
    return total


def dp_sum(list dens, list stricts, list lbs, list ubs, list lams):
    """Prefix-sum dynamic program on scaled integers; returns the final layer."""
    cdef Py_ssize_t k = len(dens)
    cdef Py_ssize_t size = len(<list>dens[0])
    cdef list front = [0] * size
    front[0] = 1
    cdef list nxt, d
    cdef object run, lam
    cdef Py_ssize_t i, n, ptr, lo, hi, target
    cdef bint strict
    for i in range(k):
        lo = lbs[i]
        hi = ubs[i]
        lam = lams[i]
        d = <list>dens[i]
        strict = 1 if stricts[i] else 0
        nxt = [0] * size
        run = 0
        ptr = 0
        for n in range(lo, hi + 1):
            target = n - 1 if strict else n
            while ptr <= target:
                run = run + front[ptr]
                ptr += 1
            if run:
                nxt[n] = (lam // <object>d[n]) * run
        front = nxt
    return front


def dp_sum_mod(list dens, list stricts, list lbs, list ubs, modulus):
    """Residue-ring dynamic program; native 64-bit when the modulus fits."""
    if modulus < (1 << 31):
        return _dp_mod_native(dens, stricts, lbs, ubs, modulus)
    return _dp_mod_object(dens, stricts, lbs, ubs, modulus)


cdef long long _inv_mod(long long a, long long m) noexcept:
    # extended euclid; -1 marks a non-unit
    cdef long long old_r = a, r = m
    cdef long long old_s = 1, s = 0
    cdef long long q, tmp
    while r != 0:
        q = old_r / r
        tmp = old_r - q * r; old_r = r; r = tmp
        tmp = old_s - q * s; old_s = s; s = tmp
    if old_r != 1 and old_r != -1:
        return -1
    if old_r == -1:
        old_s = -old_s
    old_s %= m
    if old_s < 0:
        old_s += m
    return old_s


cdef _dp_mod_native(list dens, list stricts, list lbs, list ubs, object modulus):
    cdef Py_ssize_t k = len(dens)
    cdef Py_ssize_t size = len(<list>dens[0])
    cdef long long mod = modulus
    cdef long long *front = <long long *>malloc(size * sizeof(long long))
    cdef long long *nxt = <long long *>malloc(size * sizeof(long long))
    cdef long long *cur
    if front == NULL or nxt == NULL:
        free(front); free(nxt)
        raise MemoryError()
    cdef Py_ssize_t i, n, ptr, lo, hi, target
    cdef long long run, den, inv
    cdef bint strict
    cdef list d
    try:
        for n in range(size):
            front[n] = 0
            nxt[n] = 0
        front[0] = 1
        for i in range(k):
            lo = lbs[i]
            hi = ubs[i]
            d = <list>dens[i]
            strict = 1 if stricts[i] else 0
            for n in range(size):
                nxt[n] = 0
            run = 0
            ptr = 0
            for n in range(lo, hi + 1):
                target = n - 1 if strict else n
                while ptr <= target:
                    run = (run + front[ptr]) % mod
                    ptr += 1
                den = d[n]
                inv = _inv_mod(den, mod)
                if inv < 0:
                    raise NonUnitError(
                        f"denominator {den} at position {i + 1}, n={n} "
                        f"is not a unit mod {mod}",
                        position=i + 1, n=n, value=den, modulus=mod)
                if run != 0:
                    # run and inv both sit below 2^31, so the product fits
                    nxt[n] = (run * inv) % mod
            cur = front; front = nxt; nxt = cur
        run = 0
        for n in range(<Py_ssize_t>lbs[k - 1], <Py_ssize_t>ubs[k - 1] + 1):
            run = (run + front[n]) % mod
        return int(run)
    finally:
        free(front); free(nxt)


cdef _dp_mod_object(list dens, list stricts, list lbs, list ubs, object modulus):
    cdef Py_ssize_t k = len(dens)
    cdef Py_ssize_t size = len(<list>dens[0])
    cdef list front = [0] * size
    front[0] = 1
    cdef list nxt, d
    cdef object run, inv, den
    cdef Py_ssize_t i, n, ptr, lo, hi, target
    cdef bint strict
    for i in range(k):
        lo = lbs[i]
        hi = ubs[i]
        d = <list>dens[i]
        strict = 1 if stricts[i] else 0
        nxt = [0] * size
        run = 0
        ptr = 0
        for n in range(lo, hi + 1):
            target = n - 1 if strict else n
            while ptr <= target:
                run = run + front[ptr]
                ptr += 1
            den = d[n]
            try:
                inv = pow(den, -1, modulus)
            except ValueError:
                raise NonUnitError(
                    f"denominator {den} at position {i + 1}, n={n} "
                    f"is not a unit mod {modulus}",
                    position=i + 1, n=n, value=den, modulus=modulus) from None
            if run:
                nxt[n] = (run % modulus) * inv % modulus
        front = nxt
    cdef object acc = 0
    for n in range(<Py_ssize_t>lbs[k - 1], <Py_ssize_t>ubs[k - 1] + 1):
        acc = acc + front[n]
    return acc % modulus
