"""The NumPy-free half of the kernels: the truncated simplex sum of
`reference.box_sums` for an exponent s in 1/2 Z, 1 <= s <= 8, evaluated
with Python floats in the same operations and the same order, so every
sum is bit for bit NumPy's; and the roundoff bound that covers both
evaluators.  A job that sums few terms pays more for importing NumPy than
for the terms themselves, and `zeta` sends such jobs here."""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate
from math import sqrt
from operator import add

from ..dyadic import gamma


def _pairwise(a, lo, n):
    """NumPy's pairwise sum of the n floats a[lo:lo + n]: a plain loop below
    8 terms, eight strided accumulators up to 128, halving above into a
    first part of n // 2 rounded down to a multiple of 8 (see below)."""
    if n < 8:
        return reduce(add, a[lo:lo + n], -0.0)
    if n <= 128:
        top = lo + n - n % 8
        r = [reduce(add, a[lo + j:top:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, a[top:lo + n], res)
    h = n // 2 - (n // 2) % 8
    return _pairwise(a, lo, h) + _pairwise(a, lo + h, n - h)


def _graded_index(n, radius):
    """The graded list of `reference._graded_bases` as index arrays: for
    each step i = 2, ..., n - 1 the position `idx` in the list of step
    i - 1 and the new coordinate `last` of every point, and the level ends.
    They depend on n and the radius only, so a block's shifts share them."""
    m = list(range(radius + 1))
    sums, ends = m, [k + 1 for k in m]
    steps = []
    for _ in range(n - 2):
        idx = [q for k in m for q in range(ends[k])]
        level = [k for k in m for _ in range(ends[k])]
        last = [k - sums[q] for k, q in zip(level, idx)]
        steps.append((idx, last))
        sums, ends = level, list(accumulate(ends))
    return steps, ends


def half_integer_power(s):
    """(k, half) with s = k + half / 2, for s in 1/2 Z with 1 <= s <= 8,
    whose power both evaluators form as 1 / (P^k sqrt(P)^half); (0, False)
    for any other s, which only NumPy's np.power takes."""
    if not 2 <= 2 * s <= 16 or (2 * s) % 1:
        return 0, False
    k, half = divmod(int(2 * s), 2)
    return k, bool(half)


def box_sums(zs, gens, s, radius, scale=1.0):
    """`reference.box_sums` (degree n >= 2) for an exponent s in 1/2 Z,
    1 <= s <= 8, in Python floats, float for float: the graded bases
    z_j + sum_i m_i c_ij added in the order i = 1, ..., n - 1; per slab m_0
    the add of m_0 c_0j and the product P of the axes left to right; P^k
    as the (k-1)-fold product, times sqrt(P) for s = k + 1/2, and one
    reciprocal; NumPy's pairwise sum of each slab and one math.fsum of a
    shift's slab totals.
    Addition and multiplication of two floats are commutative in IEEE
    arithmetic, so the operand order of each is free, and math.sqrt is
    correctly rounded, as np.sqrt is.

    The block is laid out point-major: entry q P + p of a list belongs to
    point q of the graded list and shift p of the P shifts, so each slab
    is the prefix of cnt P entries, one comprehension per operation for
    all shifts, and shift p's terms are the strided slice [p::P]."""
    k, half = half_integer_power(s)
    if not k:
        raise ValueError(f"the scalar simplex sum needs s in 1/2 Z, 1 <= s <= 8, got {s}")
    n = len(gens)
    npts = len(zs)
    c = [[scale * g for g in row] for row in gens]
    m = range(radius + 1)
    steps, ends = _graded_index(n, radius)
    # the first coordinate m_1 = x, then each step's gather per shift
    bases = [[zj + x * cj for x in m for zj in col]
             for col, cj in zip(zip(*zs), c[1])]
    for (idx, last), row in zip(steps, c[2:]):
        if npts > 1:
            idx = [i for q in idx for i in range(q * npts, q * npts + npts)]
            last = [x for x in last for _ in range(npts)]
        shelf = [[x * cj for x in m] for cj in row]
        bases = [[b[q] + col[x] for q, x in zip(idx, last)]
                 for b, col in zip(bases, shelf)]
    totals = [[] for _ in zs]
    for m0 in m:
        cnt = ends[radius - m0]
        a = m0 * c[0][0]
        p = [x + a for x in bases[0][:cnt * npts]]
        for j in range(1, n):
            a = m0 * c[0][j]
            p = [q * (x + a) for q, x in zip(p, bases[j])]
        t = p
        for _ in range(k - 1):
            t = [u * q for u, q in zip(t, p)]
        if half:
            t = [u * sqrt(q) for u, q in zip(t, p)]
        t = [1.0 / u for u in t]
        for i, row in enumerate(totals):
            row.append(_pairwise(t if npts == 1 else t[i::npts], 0, cnt))
    return [math.fsum(row) for row in totals]


# Roundoff of box_sums (either evaluator) against the exact simplex sum V
# of the exact inputs.  u = 2^-53, and gamma_k = k u / (1 - k u) bounds a
# product of k factors (1 + e)^(+-1), |e| <= u (Higham, Lemma 3.1).
# - Inputs are x (1 + t), |t| <= delta.
# - a_j = z_j + sum_i m_i c_ij, c_ij = fl(scale g_ij): each positive
#   summand takes a rounding in c, one in m_i c (m_i is exact) and at most
#   n in the n additions, so a_j comes out as a_j (1 + t) theta, theta a
#   product of n + 2 roundings.
# - n - 1 multiplications form P, whose factors carry m = n^2 + 3n - 1
#   roundings in all.  For s = k + h/2 in 1/2 Z, 1 <= s <= 8, both
#   evaluators form P^(-s) as 1 / (P^k sqrt(P)^h): P^k takes k - 1
#   multiplications and k m roundings of its inputs; for h = 1 sqrt(P) takes
#   one rounding and halves its input's m, and one multiplication joins it;
#   the reciprocal takes one.  That is k m + k (h = 0) or (k + 1/2) m + k + 2
#   (h = 1) roundings, both at most S (m + 1) = S (n^2 + 3n), S = ceil(s).
#   Any other s goes through one np.power, allowed 4 ulps = 8 roundings
#   (libm's pow is within 1 ulp; the tests check NumPy's SIMD power against
#   113-bit values), so S m + 8 = S (n^2 + 3n - 1) + 8.  A factor in
#   [1/(1+x), 1/(1-x)] raised to s stays within its S-th power, so a term
#   comes out as t (1 + t')^(-nS) theta, theta a product of that many
#   roundings.
# - NumPy sums each slab of each shift pairwise (a row of the axis-1
#   reduce of a block; the tests check it, and `_pairwise` above does the
#   same): a plain loop below 8 terms, eight accumulators up to 128 (a term
#   meets at most b//8 + b%8 + 2 <= 24 additions in a run of b), halving
#   above into parts of at most N/2 + 15/2, so at most ceil(log2 N) - 6
#   halvings.  Either way a term meets at most D = 19 + ceil(log2 N)
#   additions, N the largest slab C(L + n - 1, n - 1).  math.fsum rounds
#   the sum of a shift's slab totals once.
# So every term enters the computed V' as t (1 + x), |x| <= rho =
# (1 - delta)^(-nS) (1 + gamma_R) - 1 with R the sum of these counts, and
# |V' - V| <= rho V <= rho / (1 - rho) V'.  One spare rounding in R covers
# evaluating rho in floats.  A term leaving the normal float range (an
# overflowing product, an underflowing power) is below 2^-1021 and off by
# at most that: 2^-1020 per term covers it.


def box_sum_roundoff(value, n, s, radius, delta):
    """Certified bound on |value - V| for value one sum of `box_sums` of n
    axes at level radius, on inputs within relative error delta of exact
    ones whose simplex sum is V (see above)."""
    big_s = math.ceil(s)
    if half_integer_power(s)[0]:
        rounds = big_s * (n * n + 3 * n)
    else:
        rounds = big_s * (n * n + 3 * n - 1) + 8
    rounds += 19 + (math.comb(radius + n - 1, n - 1) - 1).bit_length() + 2
    rho = math.expm1(math.log1p(gamma(rounds)) - n * big_s * math.log1p(-delta))
    return rho / (1 - rho) * value + math.comb(radius + n, n) * 2.0 ** -1020
