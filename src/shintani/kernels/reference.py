"""NumPy kernels: the truncated simplex sum of a Shintani series, whose
float error `scalar.box_sum_roundoff` bounds, and a prime-splitting scan
that decides every prime, ramified or not and of any size, in NumPy
batches from the ranks of Berlekamp's Frobenius matrix."""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

import numpy as np

from .scalar import half_integer_power


def _graded_bases(zs, c, radius):
    """The values z_j + sum_{i>=1} m_i c[i][j] at the points
    (m_1, ..., m_{n-1}) >= 0 of sum <= radius, one (P, N) array per axis j
    with a row per shift z of the (P, n) array zs, the points listed by
    nondecreasing sum, and the level ends: `ends[k]` points have sum <= k.

    Level k of (m_1, ..., m_i) is {(p, k - |p|) : |p| <= k} over the points
    p of (m_1, ..., m_{i-1}), a prefix of their graded list, so each
    coordinate is appended by one gather.  Every value is z_j plus the
    products m_i c[i][j], added in the order i = 1, 2, ..., n - 1."""
    m = np.arange(radius + 1)
    sums, ends = m, m + 1
    bases = [zj[:, None] + m * cj for zj, cj in zip(zs.T, c[1])]
    for row in c[2:]:
        level = np.repeat(m, ends)
        idx = np.arange(len(level)) - np.repeat(np.cumsum(ends) - ends, ends)
        last = level - sums[idx]
        bases = [b[:, idx] + last * cj for b, cj in zip(bases, row)]
        sums, ends = level, np.cumsum(ends)
    return bases, ends


def box_sums(zs, gens, s, radius, scale=1.0):
    """Truncated Shintani sums over the simplex
    {m >= 0 : m_0 + ... + m_{n-1} <= radius}, one per shift z of the block
    zs (P shifts of n >= 2 coordinates, as every field has degree n >= 2)
    that shares the generators, the radius and the scale.

    The trailing coordinates are enumerated once, graded by their sum, so
    the slab of each m_0 is a prefix of length ends[radius - m_0] and costs
    one add per axis, for all P shifts at once: the per-slab Python work is
    paid once per block, and the block's working arrays hold P * N floats,
    N = C(radius + n - 1, n - 1) the longest slab.  Term by term: the n
    factors are multiplied left to right, a power s = k or k + 1/2 in
    [1, 8] is the (k-1)-fold product P^k, times sqrt(P) for the half,
    followed by one reciprocal, other s go through np.power;
    each slab of each shift is one pairwise row sum (np.add.reduce along
    axis 1), and the slab totals of a shift are added by one math.fsum.
    Elementwise operations do not depend on their neighbours, so every sum
    is bit for bit the sum of a one-shift block, and
    `scalar.box_sum_roundoff` counts exactly these operations for each;
    `scalar.box_sums` repeats them in Python floats for s in 1/2 Z.
    """
    zs = np.asarray(zs, dtype=float)
    npts, n = zs.shape
    c = [[scale * g for g in row] for row in gens]
    bases, ends = _graded_bases(zs, c, radius)
    k, half = half_integer_power(s)
    prod = np.empty(bases[0].size)
    tmp = np.empty(bases[0].size)
    totals = np.empty((radius + 1, npts))
    ends = ends.tolist()
    for m0 in range(radius + 1):
        cnt = ends[radius - m0]
        p = prod[:npts * cnt].reshape(npts, cnt)
        t = tmp[:npts * cnt].reshape(npts, cnt)
        np.add(bases[0][:, :cnt], m0 * c[0][0], out=p)
        for j in range(1, n):
            np.add(bases[j][:, :cnt], m0 * c[0][j], out=t)
            p *= t
        if k:
            np.copyto(t, p)
            for _ in range(k - 1):
                t *= p
            if half:
                t *= np.sqrt(p, out=p)
            np.divide(1.0, t, out=t)
        else:
            np.power(p, -s, out=t)
        np.add.reduce(t, axis=1, out=totals[m0])
    return [math.fsum(col) for col in totals.T.tolist()]


def box_sum(z, gens, s, radius, scale=1.0):
    """The truncated simplex sum of one shift z: `box_sums` on a block of
    one.  The R-set sums of `zeta.l_function` and `zeta.partial_zeta` go
    to `box_sums` directly, each cone's points at one target in blocks of
    at most B // N shifts (at least one), B = `zeta._BLOCK` = 2^12 floats
    and N the longest slab, so a block's arrays stay near B floats each."""
    return box_sums([z], gens, s, radius, scale)[0]


# ---- batched Frobenius-rank scan ----
#
# Let f mod p be the product of g^e over its distinct irreducible factors g,
# of degree k and multiplicity e, so that R = F_p[x]/(f) is the product of
# the local rings F_p[x]/(g^e).  The Frobenius y -> y^p is F_p-linear on R;
# its matrix Q (Berlekamp's Q-matrix) has the coefficients of x^(ip) mod
# (f, p) as column i, and ker(Q^d - I) is the set of roots in R of
# X^(p^d) - X.  That polynomial has derivative -1, so by Hensel's lemma each
# of its roots in the residue field F_{p^k} lifts to exactly one root in
# F_p[x]/(g^e); the residue roots are the p^gcd(d, k) elements of
# F_{p^k} meet F_{p^d}.  The kernel therefore has dimension gcd(d, k) on
# each local factor, and with a_k distinct factors of degree k
#
#     N_d = n - rank_{F_p}(Q^d - I) = sum_k a_k gcd(d, k)
#
# for every prime, ramified or not: the signature of f mod p is that of its
# radical, whose degree sum_k k a_k is n exactly when p does not divide
# disc(f).
#
# The gcd matrix (gcd(d, k))_{d,k <= n} is invertible (Smith's determinant
# is prod phi(j)), so N_1..N_n fix the pattern (a_1, ..., a_n); usually
# fewer do.  For the partitions of n, N_1 alone suffices for n <= 3,
# N_1, N_2 for n = 4 (with N_1 = 2, N_2 = 2 means (3,1) and N_2 = 4 means
# (2,2)), N_1..N_3 for n = 5.  The radical of f mod a ramified prime has
# any degree from 1 to n, and its signatures collide with the partitions'
# (at n = 3 the radical x of x^3 and an irreducible cubic both have
# N_1 = 1), so it is decoded against its own table.  `_patterns` tabulates
# either set by its shortest separating prefix N_1..N_D.
#
# The scan runs on NumPy arrays, one chunk of primes at a time, on residues
# 0 <= r < P, P the largest prime of the chunk.  A product of two residues,
# and the elimination's difference pv * a - c * b, is at most (P - 1)^2 in
# absolute value, so a sum of k products on top of a residue is exact in
# int64 while k (P - 1)^2 + (P - 1) < 2^63; `_reduction_interval` is the
# largest such k, capped at 2n.  No sum needs more: in `_mul_mod` each of
# the n row products a_i * b and of the at most n folds of a high
# coefficient adds at most one product to a coefficient, and an entry of
# `_matmul_mod` collects n.  A step of the ladder squares and, for the
# primes whose bit is 1, multiplies by x: the unreduced square (degree
# 2n - 2) of those primes moves up one coefficient before the folds, which
# moves no product and adds the fold of coefficient 2n - 1, so x^2i and
# x^(2i+1) cost one product each.  A sum is reduced after every k steps, a
# high coefficient also just before it is folded in, and each result once at
# the end.  So the sieve's primes (P <= 10^6, k >= 9 * 10^6) reduce each
# coefficient once: 2n row reductions per ladder step, not 3n - 1 for a
# square and a product by x.  At _INT64_PRIME_MAX = isqrt(2^63 - 1),
# P (P - 1) < 2^63 < 2 (P - 1)^2, so k = 1.  The elimination reduces at
# every step, as each difference is multiplied again.  Larger primes run the
# same code on object arrays of Python ints, which have no limit (k = 2n):
# every array the scan allocates takes the dtype of the primes.

_INT64_PRIME_MAX = math.isqrt(2 ** 63 - 1)          # 3037000499

# Working-set bound of a scan in int64 entries: a batch holds
# _CHUNK_ENTRIES // n^2 primes (4096 at n = 2, 1024 at n = 4), so its
# (batch, n, n) arrays, and the peak memory of a scan, do not grow with n
# or with the number of primes.
_CHUNK_ENTRIES = 2 ** 14


def _reduction_interval(p, n):
    """How many products of residues a sum may collect on top of a residue
    before it is reduced mod the primes of the array p (see above)."""
    if p.dtype == object:
        return 2 * n
    top = int(p.max()) - 1
    return min(2 * n, (2 ** 63 - 1 - top) // (top * top))


def _mul_mod(a, b, red, p, k, odd=None):
    """a * b mod (f, p) for (n, B) coefficient arrays (low degree first),
    one prime per column, times x in the columns where the boolean array
    odd is set; red[j] = -f_j mod p, so x^n = sum_j red[j] x^j.  Steps
    0..n-1 add a_i * b, then with odd the product of those columns moves up
    one coefficient, and the remaining steps fold the high coefficients
    down to n, each reduced first; k steps after each reduction of all
    coefficients comes the next (see above)."""
    n = len(a)
    top = 2 * n - 1 if odd is None else 2 * n
    # a zero row in front: buf[:-1] is the product moved up one coefficient
    buf = np.zeros((top + 1, a.shape[1]), dtype=p.dtype)
    prod = buf[1:]
    for step in range(top):
        if step and step % k == 0:
            prod %= p
        if step < n:
            prod[step:step + n] += a[step] * b
            if step == n - 1 and odd is not None:
                prod = np.where(odd, buf[:-1], prod)
        else:
            c = top + n - 1 - step
            prod[c] %= p
            prod[c - n:c] += prod[c] * red
    return prod[:n] % p


def _frobenius_matrices(poly, p, k):
    """Q for every prime of the array p, as a (B, n, n) array: x^p by one
    square-and-multiply ladder over the bits of p, the product by x folded
    into the square of the primes whose bit is 1, then the columns
    x^(ip) = x^((i-1)p) * x^p; k is the reduction interval."""
    n = len(poly) - 1
    # a coefficient beyond int64 is reduced mod p with Python ints
    red = np.stack([(-c) % (p if abs(c) < 2 ** 63 else p.astype(object))
                    for c in poly[:n]]).astype(p.dtype)
    cur = np.zeros((n, len(p)), dtype=p.dtype)
    cur[0] = 1
    for bit in range(int(p.max()).bit_length() - 1, -1, -1):
        odd = ((p >> bit) & 1).astype(bool)
        cur = _mul_mod(cur, cur, red, p, k, odd if odd.any() else None)
    q = np.zeros((len(p), n, n), dtype=p.dtype)
    q[:, 0, 0] = 1
    col = cur
    for i in range(1, n):
        q[:, :, i] = col.T
        if i + 1 < n:
            col = _mul_mod(col, cur, red, p, k)
    return q


def _matmul_mod(a, b, p, k):
    """Batched a @ b mod p for (B, n, n) arrays, k products at a time."""
    pp = p[:, None, None]
    out = a[:, :, :k] @ b[:, :k, :]
    for j in range(k, a.shape[1], k):
        out = out % pp + a[:, :, j:j + k] @ b[:, j:j + k, :]
    return out % pp


def _rank_mod(a, p):
    """rank over F_p of each (n, n) matrix of the (B, n, n) array a, by
    fraction-free elimination: the pivot row is cross-multiplied into the
    others (row <- pivot * row - entry * pivot_row), so no inverse mod p is
    needed and a nonzero pivot keeps the rank.  Only the columns right of
    the pivot column are updated: a keeps columns c.. of the matrix, and
    those left of c are never read again."""
    b, n, _ = a.shape
    pp = p[:, None, None]
    rows = np.arange(b)
    free = np.ones((b, n), dtype=bool)
    for _ in range(n):
        col = a[:, :, 0]
        cand = (col != 0) & free
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        prow = a[rows, piv]
        # without a pivot the free rows already vanish in column c: leave
        # them unscaled (rows that were pivots are never read again)
        pv = np.where(has, prow[:, 0], 1)
        a = (pv[:, None, None] * a[:, :, 1:]
             - col[:, :, None] * prow[:, None, 1:]) % pp
        free[rows[has], piv[has]] = False
    return n - free.sum(axis=1)


@lru_cache(maxsize=None)
def _patterns(n, ramified=False):
    """The factor patterns (a_1, ..., a_n) of the radical of a degree-n
    polynomial mod p: the partitions of n, or with `ramified` every pattern
    of degree 1 to n; the least D whose signatures (N_1, ..., N_D) tell them
    apart, and the codes sum_d N_d (n+1)^(d-1) of those signatures (each
    N_d is at most the degree, so at most n); the patterns are sorted by
    code."""
    def degree(a):
        return sum(e * a_e for e, a_e in enumerate(a, 1))

    patterns = [a for a in itertools.product(*(range(n // e + 1)
                                               for e in range(1, n + 1)))
                if (0 < degree(a) <= n if ramified else degree(a) == n)]

    def code(a, depth):
        return sum(sum(a_e * math.gcd(d, e) for e, a_e in enumerate(a, 1))
                   * (n + 1) ** (d - 1) for d in range(1, depth + 1))

    depth = next(d for d in range(1, n + 1)
                 if len({code(a, d) for a in patterns}) == len(patterns))
    patterns.sort(key=lambda a: code(a, depth))
    return patterns, depth, np.array([code(a, depth) for a in patterns])


def _chunk_patterns(poly, p, ramified=False):
    """Index into `_patterns(n, ramified)[0]` of the factor pattern of the
    radical of poly mod each prime of the array p: int64 for primes up to
    _INT64_PRIME_MAX, object above."""
    n = len(poly) - 1
    _, depth, codes = _patterns(n, ramified)
    k = _reduction_interval(p, n)
    q = _frobenius_matrices(poly, p, k)
    eye = np.eye(n, dtype=p.dtype)
    qd = q
    code = np.zeros(len(p), dtype=np.int64)
    for d in range(1, depth + 1):
        if d > 1:
            qd = _matmul_mod(qd, q, p, k)
        nd = n - _rank_mod((qd - eye) % p[:, None, None], p)
        code += nd * (n + 1) ** (d - 1)
    pos = np.searchsorted(codes, code)
    if (np.take(codes, pos, mode="clip") != code).any():
        raise AssertionError("Frobenius ranks match no factor pattern")
    return pos


def splitting_counts(poly, primes):
    """Distinct-factor degree counts of the squarefree part of poly mod p
    for every prime, decided in batches of _CHUNK_ENTRIES // n^2 by the
    ranks of Q^d - I (see above).  The primes, an int64 array or any
    iterable of ints, are grouped by whether they divide disc(poly), which
    picks the pattern table, and whether they exceed _INT64_PRIME_MAX,
    which picks int64 or object arrays."""
    from ..polyroots import poly_discriminant

    if not isinstance(primes, np.ndarray):
        primes = np.array(list(map(operator.index, primes)), dtype=object)
    n = len(poly) - 1
    disc = poly_discriminant(poly)
    # a discriminant beyond int64 is reduced mod p with Python ints
    divides = disc % (primes if abs(disc) < 2 ** 63 else primes.astype(object)) == 0
    above = primes > _INT64_PRIME_MAX
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    ids = np.empty(len(primes), dtype=np.int64)     # index into table
    table = []
    for ramified, big in itertools.product((False, True), repeat=2):
        members = np.flatnonzero((divides == ramified) & (above == big))
        p = primes[members].astype(object if big else np.int64)
        for lo in range(0, len(members), chunk):
            ids[members[lo:lo + chunk]] = len(table) + _chunk_patterns(
                poly, p[lo:lo + chunk], ramified)
        table += _patterns(n, ramified)[0]
    return list(map(table.__getitem__, ids.tolist()))
