"""NumPy kernels: the truncated simplex sum of a Shintani series with a
derived bound on its float error, and a prime-splitting scan that decides
the unramified primes in NumPy batches from the ranks of Berlekamp's
Frobenius matrix, with plain per-prime distinct-degree factorization for the
ramified primes and for primes too large for int64 arithmetic."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


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
    zs (P shifts of n coordinates) that shares the generators, the radius
    and the scale.

    The trailing coordinates are enumerated once, graded by their sum, so
    the slab of each m_0 is a prefix of length ends[radius - m_0] and costs
    one add per axis, for all P shifts at once: the per-slab Python work is
    paid once per block, and the block's working arrays hold P * N floats,
    N = C(radius + n - 1, n - 1) the longest slab.  Term by term: the n
    factors are multiplied left to right, an integer power s <= 8 is the
    (s-1)-fold product followed by one reciprocal, other s go through `**`;
    each slab of each shift is one pairwise row sum (np.add.reduce along
    axis 1), and the slab totals of a shift are added by one math.fsum.
    Elementwise operations do not depend on their neighbours, so every sum
    is bit for bit the sum of a one-shift block, and `box_sum_roundoff`
    counts exactly these operations for each.
    """
    zs = np.asarray(zs, dtype=float)
    npts, n = zs.shape
    c = [[scale * g for g in row] for row in gens]
    if n == 1:
        bases, ends = [zs], np.ones(radius + 1, dtype=np.int64)
    else:
        bases, ends = _graded_bases(zs, c, radius)
    k = int(s) if s == int(s) and 1 <= s <= 8 else 0
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


# Roundoff of box_sum against the exact simplex sum V of the exact inputs.
# u = 2^-53, and gamma_k = k u / (1 - k u) bounds a product of k factors
# (1 + e)^(+-1), |e| <= u (Higham, Lemma 3.1).
# - Inputs are x (1 + t), |t| <= delta.
# - a_j = z_j + sum_i m_i c_ij, c_ij = fl(scale g_ij): each positive
#   summand takes a rounding in c, one in m_i c (m_i is exact) and at most
#   n in the n additions, so a_j comes out as a_j (1 + t) theta, theta a
#   product of n + 2 roundings.
# - n - 1 multiplications form P; an integer s = k <= 8 then takes k - 1
#   multiplications and a reciprocal, any other s one np.power, allowed 4
#   ulps = 8 roundings (libm's pow is within 1 ulp; the tests check NumPy's
#   SIMD power against mpmath).  A factor in [1/(1+x), 1/(1-x)] raised to
#   s stays within its S-th power, S = ceil(s), so a term comes out as
#   t (1 + t')^(-nS) theta with theta a product of at most S (n^2 + 3n)
#   roundings (integer s) or S (n^2 + 3n - 1) + 8 (np.power).
# - NumPy sums each slab of each shift pairwise (a row of the axis-1
#   reduce of a block; the tests check it): a plain loop below 8 terms, eight
#   accumulators up to 128 (a term meets at most b//8 + b%8 + 2 <= 24
#   additions in a run of b), halving above into parts of at most
#   N/2 + 15/2, so at most ceil(log2 N) - 6 halvings.  Either way a term
#   meets at most D = 19 + ceil(log2 N) additions, N the largest slab
#   C(L + n - 1, n - 1).  math.fsum rounds the sum of a shift's slab
#   totals once.
# So every term enters the computed V' as t (1 + x), |x| <= rho =
# (1 - delta)^(-nS) (1 + gamma_R) - 1 with R the sum of these counts, and
# |V' - V| <= rho V <= rho / (1 - rho) V'.  One spare rounding in R covers
# evaluating rho in floats.  A term leaving the normal float range (an
# overflowing product, an underflowing power) is below 2^-1021 and off by
# at most that: 2^-1020 per term covers it.

_U = 2.0 ** -53


def box_sum_roundoff(value, n, s, radius, delta):
    """Certified bound on |value - V| for value one sum of `box_sums` of n
    axes at level radius, on inputs within relative error delta of exact
    ones whose simplex sum is V (see above)."""
    big_s = math.ceil(s)
    rounds = big_s * (n * n + 3 * n) + 8
    rounds += 19 + (math.comb(radius + n - 1, n - 1) - 1).bit_length() + 2
    gamma = rounds * _U / (1 - rounds * _U)
    rho = math.expm1(math.log1p(gamma) - n * big_s * math.log1p(-delta))
    return rho / (1 - rho) * value + math.comb(radius + n, n) * 2.0 ** -1020


# ---- small polynomial arithmetic over F_p (lists, low degree first) ----

def _deg(c, p):
    d = len(c) - 1
    while d >= 0 and c[d] % p == 0:
        d -= 1
    return d


def _monic(c, p):
    d = _deg(c, p)
    if d < 0:
        return [0]
    inv = pow(c[d] % p, p - 2, p)
    return [x * inv % p for x in c[: d + 1]]


def _poly_gcd(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    da, db = _deg(a, p), _deg(b, p)
    if da < db:
        a, b, da, db = b, a, db, da
    while db >= 0:
        inv = pow(b[db], p - 2, p)
        while da >= db:
            coef = a[da] * inv % p
            if coef:
                for i in range(db + 1):
                    a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
            da = _deg(a, p)
        a, b, da, db = b, a, db, da
    return _monic(a, p)


def _poly_quot_exact(a, b, p):
    """a / b over F_p, assuming exact division."""
    a = [x % p for x in a]
    b = b[: _deg(b, p) + 1]
    db = len(b) - 1
    out = [0] * (_deg(a, p) - db + 1)
    inv = pow(b[-1] % p, p - 2, p)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + db] * inv % p
        out[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] = (a[k + i] - c * b[i]) % p
    return out


def _poly_mul_mod(a, b, g, p):
    """a * b mod (g, p); g monic of degree >= 1."""
    n = len(g) - 1
    prod = [0] * max(1, 2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(n):
                prod[k - n + j] = (prod[k - n + j] - c * g[j]) % p
    return prod[:n]


def _poly_reduce(a, g, p):
    n = len(g) - 1
    a = [x % p for x in a]
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            a[k] = 0
            for j in range(n):
                a[k - n + j] = (a[k - n + j] - c * g[j]) % p
    out = a[:n]
    return out + [0] * (n - len(out))


def _frobenius_step(y, g, p):
    """y -> y^p mod (g, p)."""
    n = len(g) - 1
    cur = [1] + [0] * (n - 1)
    sq = list(y)
    e = p
    while e:
        if e & 1:
            cur = _poly_mul_mod(cur, sq, g, p)
        sq = _poly_mul_mod(sq, sq, g, p)
        e >>= 1
    return cur


def _radical(f, p):
    """Product of the distinct irreducible factors of f over F_p.  Needs the
    characteristic-p cases: a vanishing derivative means f is a p-th power
    (Frobenius fixes F_p, so the root keeps the same coefficients), and
    factors with multiplicity divisible by p survive in gcd(f, f')."""
    f = _monic(f, p)
    if _deg(f, p) <= 0:
        return [1]
    fp = [(i * f[i]) % p for i in range(1, len(f))]
    if _deg(fp, p) < 0:
        root = [f[i * p] for i in range((len(f) - 1) // p + 1)]
        return _radical(root, p)
    c = _poly_gcd(list(f), fp, p)
    if _deg(c, p) == 0:
        return f
    w = _monic(_poly_quot_exact(f, c, p), p)     # factors with p nmid e, once
    rest = f
    while True:
        g = _poly_gcd(rest, w, p)
        if _deg(g, p) <= 0:
            break
        rest = _monic(_poly_quot_exact(rest, g, p), p)
    if _deg(rest, p) > 0:
        # rest collects the factors with multiplicity divisible by p
        other = _radical(rest, p)
        out = [0] * (_deg(w, p) + _deg(other, p) + 1)
        for i, a in enumerate(w):
            if a:
                for j, b in enumerate(other):
                    out[i + j] = (out[i + j] + a * b) % p
        return _monic(out, p)
    return w


def _counts_one_prime(poly, p):
    """Distinct-degree factor counts of the squarefree part of poly mod p,
    by plain distinct-degree factorization."""
    n = len(poly) - 1
    f = [c % p for c in poly]
    g = _radical(f, p)
    counts = [0] * n
    d = 1
    y = [0, 1]                      # x^(p^(d-1)) mod (g, p)
    while True:
        m = _deg(g, p)
        if m <= 0:
            break
        if 2 * d > m:
            counts[m - 1] += 1
            break
        y = _frobenius_step(y, g, p)
        sub = list(y)
        sub[1] = (sub[1] - 1) % p
        h = _poly_gcd(g, sub, p)
        dh = _deg(h, p)
        if dh > 0:
            counts[d - 1] += dh // d
            g = _monic(_poly_quot_exact(g, h, p), p)
            if _deg(g, p) <= 0:
                break
            y = _poly_reduce(y, g, p)
        d += 1
    return tuple(counts)


# ---- batched Frobenius-rank scan for the unramified primes ----
#
# For p not dividing disc(f), f is squarefree mod p and
# R = F_p[x]/(f) is the product of the fields F_{p^e}, one per irreducible
# factor of degree e.  The Frobenius y -> y^p is F_p-linear on R; its
# matrix Q (Berlekamp's Q-matrix) has the coefficients of x^(ip) mod (f, p)
# as column i.  On F_{p^e} the fixed field of Frobenius^d is F_{p^gcd(d, e)},
# so with a_e factors of degree e
#
#     N_d = n - rank_{F_p}(Q^d - I) = sum_e a_e gcd(d, e).
#
# The gcd matrix (gcd(d, e))_{d,e <= n} is invertible (Smith's determinant
# is prod phi(k)), so N_1..N_n fix the pattern (a_1, ..., a_n); usually
# fewer do: N_1 alone for n <= 3, N_1, N_2 for n = 4 (with N_1 = 2,
# N_2 = 2 means (3,1) and N_2 = 4 means (2,2)), N_1..N_3 for n = 5.
# `_patterns` tabulates the partitions of n by their shortest separating
# prefix N_1..N_D.
#
# Everything runs on int64 NumPy arrays, one chunk of primes at a time.
# Every intermediate is at most p(p - 1) in absolute value: a residue
# (<= p - 1) plus a product of two residues (<= (p - 1)^2) in the ladder
# and the matrix products, and a difference of two products of residues
# (|.| <= (p - 1)^2) in the elimination, each reduced mod p before the next
# operation.  p <= isqrt(2^63 - 1) keeps p(p - 1) < p^2 < 2^63; larger
# primes go through the exact per-prime DDF (`_counts_one_prime`), as do
# the ramified ones.

_INT64_PRIME_MAX = math.isqrt(2 ** 63 - 1)          # 3037000499

# Primes per batch: bounds the (chunk, n, n) working arrays and the peak
# memory of a scan, whatever the prime cap.
_CHUNK = 4096


def _mul_mod(a, b, red, p):
    """a * b mod (f, p) for (n, B) coefficient arrays (low degree first),
    one prime per column; red[j] = -f_j mod p, so x^n = sum_j red[j] x^j."""
    n = len(a)
    prod = np.zeros((2 * n - 1, a.shape[1]), dtype=np.int64)
    for i in range(n):
        prod[i:i + n] = (prod[i:i + n] + a[i] * b) % p
    for k in range(2 * n - 2, n - 1, -1):
        prod[k - n:k] = (prod[k - n:k] + prod[k] * red) % p
    return prod[:n]


def _mul_x(a, red, p):
    """x * a mod (f, p) for an (n, B) coefficient array."""
    out = np.empty_like(a)
    out[0] = 0
    out[1:] = a[:-1]
    return (out + a[-1] * red) % p


def _frobenius_matrices(poly, p):
    """Q for every prime of the int64 array p, as a (B, n, n) array: x^p by
    one square-and-multiply ladder over the bits of p, masked per prime,
    then the columns x^(ip) = x^((i-1)p) * x^p."""
    n = len(poly) - 1
    red = np.stack([(-c) % p for c in poly[:n]])
    cur = np.zeros((n, len(p)), dtype=np.int64)
    cur[0] = 1
    for bit in range(int(p.max()).bit_length() - 1, -1, -1):
        cur = _mul_mod(cur, cur, red, p)
        odd = ((p >> bit) & 1).astype(bool)
        if odd.any():
            cur = np.where(odd, _mul_x(cur, red, p), cur)
    q = np.zeros((len(p), n, n), dtype=np.int64)
    q[:, 0, 0] = 1
    col = cur
    for i in range(1, n):
        q[:, :, i] = col.T
        if i + 1 < n:
            col = _mul_mod(col, cur, red, p)
    return q


def _matmul_mod(a, b, p):
    """Batched a @ b mod p for (B, n, n) arrays."""
    pp = p[:, None, None]
    out = np.zeros_like(a)
    for k in range(a.shape[1]):
        out = (out + a[:, :, k, None] * b[:, None, k, :]) % pp
    return out


def _rank_mod(a, p):
    """rank over F_p of each (n, n) matrix of the (B, n, n) array a, by
    fraction-free elimination: the pivot row is cross-multiplied into the
    others (row <- pivot * row - entry * pivot_row), so no inverse mod p is
    needed and a nonzero pivot keeps the rank."""
    b, n, _ = a.shape
    pp = p[:, None, None]
    rows = np.arange(b)
    free = np.ones((b, n), dtype=bool)
    for c in range(n):
        col = a[:, :, c]
        cand = (col != 0) & free
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        prow = a[rows, piv]
        # without a pivot the free rows already vanish in column c: leave
        # them unscaled (rows that were pivots are never read again)
        pv = np.where(has, prow[:, c], 1)
        a = (pv[:, None, None] * a - col[:, :, None] * prow[:, None, :]) % pp
        free[rows[has], piv[has]] = False
    return n - free.sum(axis=1)


@lru_cache(maxsize=None)
def _patterns(n):
    """The factor patterns (a_1, ..., a_n) of a squarefree degree-n
    polynomial, the least D whose signatures (N_1, ..., N_D) tell them
    apart, and the codes sum_d N_d (n+1)^(d-1) of those signatures; the
    patterns are sorted by code."""
    patterns = [a for a in itertools.product(*(range(n // e + 1)
                                               for e in range(1, n + 1)))
                if sum(e * a_e for e, a_e in enumerate(a, 1)) == n]

    def code(a, depth):
        return sum(sum(a_e * math.gcd(d, e) for e, a_e in enumerate(a, 1))
                   * (n + 1) ** (d - 1) for d in range(1, depth + 1))

    depth = next(d for d in range(1, n + 1)
                 if len({code(a, d) for a in patterns}) == len(patterns))
    patterns.sort(key=lambda a: code(a, depth))
    return patterns, depth, np.array([code(a, depth) for a in patterns])


def _chunk_patterns(poly, p):
    """Index into `_patterns(n)[0]` of the factor pattern of poly mod each
    prime of the int64 array p (all unramified, all <= _INT64_PRIME_MAX)."""
    n = len(poly) - 1
    _, depth, codes = _patterns(n)
    q = _frobenius_matrices(poly, p)
    eye = np.eye(n, dtype=np.int64)
    qd = q
    code = np.zeros(len(p), dtype=np.int64)
    for d in range(1, depth + 1):
        if d > 1:
            qd = _matmul_mod(qd, q, p)
        nd = n - _rank_mod((qd - eye) % p[:, None, None], p)
        code += nd * (n + 1) ** (d - 1)
    pos = np.searchsorted(codes, code)
    if (np.take(codes, pos, mode="clip") != code).any():
        raise AssertionError("Frobenius ranks match no factor pattern")
    return pos


def splitting_counts(poly, primes):
    """Distinct-factor degree counts of the squarefree part of poly mod p
    for every prime.  Ramified primes (p | disc) and primes above
    _INT64_PRIME_MAX go through plain DDF; the rest are decided in chunks
    of _CHUNK by the ranks of Q^d - I (see above)."""
    from ..polyroots import poly_discriminant

    primes = [int(p) for p in primes]
    disc = poly_discriminant(poly)
    exact = [i for i, p in enumerate(primes)
             if p > _INT64_PRIME_MAX or disc % p == 0]
    table = [_counts_one_prime(poly, primes[i]) for i in exact]
    ids = np.full(len(primes), -1, dtype=np.int64)   # index into table
    ids[exact] = np.arange(len(exact))
    batch = np.flatnonzero(ids < 0)
    p = np.array([primes[i] for i in batch.tolist()], dtype=np.int64)
    for lo in range(0, len(batch), _CHUNK):
        ids[batch[lo:lo + _CHUNK]] = len(table) + _chunk_patterns(
            poly, p[lo:lo + _CHUNK])
    table += _patterns(len(poly) - 1)[0]
    return [table[k] for k in ids.tolist()]
