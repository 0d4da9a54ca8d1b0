"""Euler-Maclaurin inner sums for degree-2 Shintani sums: `em_sums` sums
each row of a cone to infinity in Python floats, for an exponent s in
1/2 Z with 1 < s <= 8, and returns a certified bound with each sum.  A
real quadratic job at a tight target needs a simplex level in the
thousands, and `zeta` sends such groups here (`zeta._em_wins`).  The
module is imported only by the jobs that take it, so the others do not
compile it."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import ceil, log, sqrt
from typing import NamedTuple

from ..dyadic import U, UP, gamma
from .scalar import half_integer_power

# A degree-2 term is prod_j (z_j + scale (m_0 f_0j + m_1 f_1j))^-s.  For
# fixed m_1 put a_j = z_j + scale m_1 f_1j, b_j = scale f_0j and r_j =
# a_j / b_j.  As N(f_0) = 1, b_1 b_2 = scale^2, so the terms of the row are
# scale^-2s g(m_0) with g(x) = ((x + r_1)(x + r_2))^-s, and `em_sums` sums
# each row m_1 = 0..L to m_0 = infinity.  The rows left out, m_1 > L, lie
# in {|m| > L}, so the tail bound of level L covers them.
#
# Inputs.  z_j and f_ij are within relative delta of the exact conjugates,
# c_ij = fl(scale f_ij), a_j = fl(z_j + fl(m_1 c_1j)), r_j = fl(a_j / c_0j):
# each r_j is within a factor exp(+-lam) of the exact one, lam =
# -2 log1p(-delta) - 5 log1p(-u), and so is each x + r_j for x >= 0.  So
# every exact term is scale^-2s g(m_0) exp(t), |t| <= 2 s lam, with g built
# on the float r_j taken as exact reals lo = min r_j <= hi = max r_j: the
# exact sum is scale^-2s G exp(t'), G the sum of those rows, |t'| <= 2 s lam.
#
# One row.  g is completely monotone (a product of two such functions), and
# g^(m)(x) = (-1)^m m! g(x) c_m, c_m the coefficient of y^m in
# ((1 - v_1 y)(1 - v_2 y))^-s, v_j = 1 / (x + r_j).  Euler-Maclaurin from
# an integer K >= 0 (Graham, Knuth, Patashnik, Concrete Mathematics, 9.5;
# Cohen, Number Theory II, 9.2) gives
#
#     sum_{m >= 0} g(m) = sum_{m < K} g(m) + int_K^inf g + g(K)/2
#                          + g(K) sum_{k=1}^p (B_2k / 2k) c_{2k-1} + R,
#
# and as g^(2p+2) and g^(2p+4) are positive, R lies between 0 and the first
# omitted term g(K) (B_{2p+2} / (2p+2)) c_{2p+1} (the limit b -> infinity of
# the two-sided remainder, as g^(2p+1)(b) -> 0).  A row takes the least
# p <= _EM_P whose threshold U_p (`_em_thresholds`, from an estimate of
# the remainder) lo reaches, else p = _EM_P and K = ceil(U_P - lo), so that
# x + lo >= U_P >= 10 at x = K; the certificate is the computed first
# omitted term, whatever p and K are.
#
# The c_m.  Multiplying out Q(y)^-s, Q = 1 - sig y + pi y^2 (sig = v_1 +
# v_2, pi = v_1 v_2) and comparing Q F' = -s Q' F gives c_0 = 1, c_1 = s sig,
#
#     c_{m+1} = sig A_m c_m - pi B_m c_{m-1},  A_m = (m+s)/(m+1), B_m = (m-1+2s)/(m+1).
#
# The subtracted part is below half the first: with v_1 = 1 >= v_2 = rho
# (c_m is homogeneous) and k_i = (s)_i / i!, c_m = sum_i k_i k_{m-i} rho^(m-i).
# Dropping the term i = 0 and the term i = m and shifting the index gives,
# with w_i = k_i k_{m-1-i} rho^(m-1-i) (so c_{m-1} = sum w_i),
# c_m >= sum (s+i)/(i+1) w_i and c_m >= rho sum (s+m-1-i)/(m-i) w_i; adding
# rho times the first to the second, (1 + rho) c_m >= rho sum w_i (2 + (s-1)
# (1/(i+1) + 1/(m-i))) >= 2 rho (m+2s-1)/(m+1) c_{m-1}, as 1/a + 1/b >=
# 4/(a+b).  So pi B_m c_{m-1} <= (m+1)/(2(m+s)) sig A_m c_m < sig A_m c_m / 2,
# the difference is at least half the first part, and a relative error
# eps_m of c_m grows at most to eps_{m+1} <= (2 e_X + e_Y)(1 + u) + u with
# e_X = (1 + gamma_4)(1 + eps_m) - 1, e_Y = (1 + gamma_4)(1 + eps_{m-1}) - 1
# (sig, pi, A_m, B_m rounded once each, two products each).  The v_j are
# 1 / fl(K + r_j), two roundings, and c_m is homogeneous of degree m with
# positive coefficients, so c_m at the float v_j is within gamma_2m of the
# exact one: eta_m = (1 + gamma_2m)(1 + eps_m) - 1 in all.  The tables
# `_em_plan` builds from these recurrences bound the error of the sum E of
# the Bernoulli terms and of the first omitted one.
#
# The integral.  With U = K + lo, D = hi - lo, u = x + lo:
# int_K^inf g = I(U, D) = int_U^inf u^-s (u + D)^-s du, decreasing in U and
# in D and homogeneous of degree 1 - 2s, so relative perturbations of U and
# D by at most e move it by at most a factor (1 - e)^(1-2s).
#  - Elementary, where D > theta U (theta = 2, t = D/(2U + D) > 1/2, for
#    s <= 3, and 2s - 4 above, which keeps the cancellation below about 100):
#    tau = u/(u + D) turns it into D^(1-2s) V(q), q = 1 + D/U,
#    V(q) = int_{1/q}^1 tau^-s (1 - tau)^(2s-2) dtau, and 2s - 2 is an
#    integer, so expanding the binomial V(q) = q^(s-1) P(1/q) + c_s +
#    l_s ln q, P of degree 2s - 2 with alternating coefficients, l_s = 0 for
#    s in Z + 1/2 (algebraic) and the artanh-type log for integer s.  Horner
#    with rounded coefficients at the rounded 1/q is within gamma_{3d+1} P~ of
#    P at 1/q (d = 2s - 2, P~ the polynomial of the absolute values); with
#    q^(s-1) (at most S - 1 products and a sqrt), the log (2 ulps, checked
#    against 40-digit values in the tests), the constants and two additions, V is
#    within gamma_{3d+S+4} M of V(q), M = q^(s-1) P~ + |c_s| + |l_s| ln q,
#    computed at run time.  The rounded q is exactly 1 + D'/U with D' within
#    2.5u of D (as D/U >= 2), and D^(2s-1) takes 2s - 2 products, so the
#    integral is within gamma_R M / D^(2s-1) of I(U, D), R = 20s + S - 9.
#  - The binomial series elsewhere: with Y = U + D/2, t = D/(2Y) <= theta /
#    (2 + theta), I = Y^(1-2s) sum_k e_k t^(2k), e_k = C(s+k-1, k) /
#    (2s+2k-1) > 0.  Its first N terms leave a tail below e_N x^N /
#    (1 - rho_N x) (x = t^2, rho_N = (s+N)/(N+1) >= e_{k+1}/e_k for
#    k >= N), which `_em_plan` makes <= 2^-56 e_0 at the largest x.  The
#    roundings of Y, t and t^2 are exactly the series of a U' and D'
#    within (2 + 1.25 theta) u and 2.5u of U and D, and Horner on positive
#    terms and the power add gamma_{2N+2s-2}.
#
# Roundoff of a row.  Each g(m) is formed as in `scalar.box_sums` from the
# product of fl(m + lo) and fl(m + hi): within gamma_4S.  The row is summed left to
# right: the K direct terms, the integral, then g(K) (1/2 + E), all of them
# positive (`_em_plan` checks |E| <= 1/8).  Its value v is within
# rho_row v + e_I + g(K) (w . c + t_{p+1} c_{2p+1}) of the exact row of g:
# rho_row covers the relative errors of the terms, of the series integral
# and of the head, and the K + 1 additions of any term; e_I is the
# elementary integral's bound; the weights w_k and t_{p+1} turn the computed
# c_{2k-1} into bounds on the error of E and on the remainder.  math.fsum of
# the rows rounds once; terms leaving the normal range are allowed 2^-1020
# each, as in `scalar.box_sum_roundoff`; the bound itself is evaluated in a
# few dozen roundings, which the factor 1 + 2^-45 covers.

_EM_P = 8


class _EMPlan(NamedTuple):
    """The constants of `em_sums` at one s (see above)."""

    k: int                  # s = k + half / 2
    half: int
    thresholds: list        # U_1 > ... > U_P, index 0 unused
    rec: list               # (A_m, B_m), m = 1 .. 2P, index 0 unused
    bern: list              # B_2j / 2j, j = 1 .. P + 1, index 0 unused
    weights: list           # the error of E per c_{2j-1}, index 0 unused
    tails: list             # the remainder per c_{2p+1}, index 0 unused
    theta: float            # elementary integral where D > theta U
    series: list            # e_{N-1}, ..., e_0
    poly: list              # (a_j, |a_j|), j = 2s - 2 .. 0
    c_s: float
    c_abs: float
    ell: float
    ell_abs: float
    g_cf: float             # gamma_R and the slack of forming M / D^(2s-1)
    rho_row: float


# B_2j / 2j for j = 1, ..., _EM_P + 1 (B_2 = 1/6, B_4 = -1/30, ...)
_BERNOULLI = (Fraction(1, 12), Fraction(-1, 120), Fraction(1, 252), Fraction(-1, 240),
              Fraction(1, 132), Fraction(-691, 32760), Fraction(1, 12),
              Fraction(-3617, 8160), Fraction(43867, 14364))


@lru_cache(maxsize=None)
def _em_thresholds(s):
    """U_1 > ... > U_P at s (index 0 unused): where the estimate
    |B_2p+2 / (2p+2)| C(2s+2p, 2p+1) U^-(2p+1) of the first omitted term,
    against g(K) U / (2s - 1) <= the row, reaches 2^-52."""
    s2 = int(2 * s)
    return [math.inf] + [(abs(float(_BERNOULLI[p])) * math.comb(s2 + 2 * p, 2 * p + 1)
                          * (s2 - 1) * 2.0 ** 52) ** (1 / (2 * p + 2))
                         for p in range(1, _EM_P + 1)]


@lru_cache(maxsize=None)
def _em_plan(s):
    """The constants of `em_sums` at s (see above)."""
    s2 = int(2 * s)
    k, half = divmod(s2, 2)
    big_s = k + half
    sf = Fraction(s2, 2)
    big_p = _EM_P
    b = [0.0] + [float(x) for x in _BERNOULLI]
    us = _em_thresholds(s)
    u_top = us[big_p]
    # integer quotients: Python rounds int / int correctly
    rec = [None] + [((2 * m + s2) / (2 * m + 2), (m - 1 + s2) / (m + 1))
                    for m in range(1, 2 * big_p + 1)]
    # relative errors of the c_m
    eps = [0.0, gamma(2)]
    for m in range(1, 2 * big_p + 1):
        e_x = (1 + gamma(4)) * (1 + eps[m]) - 1
        e_y = (1 + gamma(4)) * (1 + eps[m - 1]) - 1
        eps.append(((2 * e_x + e_y) * (1 + U) + U) * UP)
    eta = [(1 + gamma(2 * m)) * (1 + e) - 1 for m, e in enumerate(eps)]
    g_rel = gamma(4 * big_s)
    sum_rounds = gamma(big_p)
    weights = [0.0] + [
        abs(b[j]) / (1 - U) / (1 - eta[2 * j - 1]) / (1 - g_rel)
        * ((1 + U) ** 2 * (1 + eta[2 * j - 1]) * (1 + sum_rounds) - 1) * (1 + gamma(2 * big_p))
        for j in range(1, big_p + 1)]
    tails = [0.0] + [abs(b[p + 1]) / ((1 - U) * (1 - g_rel) * (1 - eta[2 * p + 1]))
                     for p in range(1, big_p + 1)]
    e_max = sum(abs(b[j]) * math.comb(s2 + 2 * j - 2, 2 * j - 1) * u_top ** (1 - 2 * j)
                for j in range(1, big_p + 1))
    if e_max > 0.125:
        raise AssertionError("the Euler-Maclaurin head needs |E| <= 1/8")
    theta = 2.0 if s2 <= 6 else float(s2 - 4)
    # the series to its largest x, rounded up: e_k = num / (den (2s + 2k - 1)),
    # C(s+k-1, k) = num / den = prod_{i<k} (2s + 2i) / (2 (i + 1)); the
    # float test of its tail is off by a few roundings, which 2^-55 covers
    x_max = (theta / (2 + theta)) ** 2 * UP
    num, den, series = 1, 1, []
    while True:
        n_ser = len(series)
        series.append(num / (den * (s2 + 2 * n_ser - 1)))
        num, den, n_ser = num * (s2 + 2 * n_ser), den * 2 * (n_ser + 1), n_ser + 1
        rho = (s2 + 2 * n_ser) / (2 * n_ser + 2)
        tail = num / (den * (s2 + 2 * n_ser - 1)) * x_max ** n_ser
        if rho * x_max < 1 and tail / (1 - rho * x_max) <= 2.0 ** -56 * series[0]:
            break
    trunc = 2.0 ** -55
    pert = math.expm1((s2 - 1) * -math.log1p(-(2 + 1.25 * theta) * U * UP))
    rho_ser = (1 + gamma(2 * len(series) + s2 - 2)) * (1 + pert) * (1 + trunc) - 1
    # the elementary antiderivative
    d = s2 - 2
    poly, c_s, ell = [], Fraction(0), 0
    for j in range(d + 1):
        e = j - sf + 1
        if e == 0:
            ell = (-1) ** j * math.comb(d, j)
            poly.append(Fraction(0))
        else:
            poly.append(-math.comb(d, j) * (-1) ** j / e)
            c_s += math.comb(d, j) * (-1) ** j / e
    g_cf = (gamma(20 * k + 10 * half + big_s - 9) * (1 + gamma(s2))
            / (1 - gamma(3 * d + big_s + 8)))
    rho_h = (gamma(2) + g_rel / (1 - g_rel)) / (1 - gamma(2))
    rho_a = max(g_rel / (1 - g_rel), rho_ser / (1 - rho_ser), rho_h)
    k_sum = gamma(ceil(u_top) + 1)
    rho_row = (k_sum + rho_a) / (1 - k_sum)
    return _EMPlan(k, half, us, rec, b, weights, tails, theta, series[::-1],
                   [(float(a), abs(float(a))) for a in reversed(poly)],
                   float(c_s), abs(float(c_s)), float(ell), float(abs(ell)), g_cf, rho_row)


def em_direct_terms(s):
    """The most direct terms `em_sums` takes in a row at s: ceil(U_P)."""
    return ceil(_em_thresholds(s)[_EM_P])


def em_sums(zs, gens, s, radius, scale, deltas):
    """For each shift z of the block zs (P shifts of two coordinates), the
    sum of prod_j (z_j + scale (m_0 f_0j + m_1 f_1j))^-s over m_1 <= radius
    and all m_0 >= 0 (f_i = gens[i]), by Euler-Maclaurin along m_0 (see
    above), for s in 1/2 Z with 1 < s <= 8 and float inputs within relative
    deltas[i] of exact ones for shift i and the generators: a list of
    (value, bound, terms), bound certifying |value - exact sum| and terms
    the direct terms plus one per row.  Each shift's result depends on that
    shift alone."""
    if not half_integer_power(s)[0] or s <= 1 or len(gens) != 2:
        raise ValueError("the Euler-Maclaurin sum needs n = 2 and s in 1/2 Z, "
                         f"1 < s <= 8, got {s}")
    (k, half, us, rec, b, weights, tails, theta, series, poly, c_s, c_abs,
     ell, ell_abs, g_cf, rho_row) = _em_plan(s)
    big_p = _EM_P
    u_top = us[big_p]
    k1 = k - 1
    dpow = 2 * k + half - 2
    c0 = [scale * g for g in gens[0]]
    c1 = [scale * g for g in gens[1]]
    inv_scale = 1.0 / float(round(scale) ** (2 * k + half))
    out = []
    for z, delta in zip(zs, deltas):
        lam = -2 * math.log1p(-delta) - 5 * math.log1p(-U)
        rows = []
        extra = 0.0
        terms = radius + 1
        for x in range(radius + 1):
            r1 = (z[0] + x * c1[0]) / c0[0]
            r2 = (z[1] + x * c1[1]) / c0[1]
            lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
            p = 1
            while p < big_p and lo < us[p]:
                p += 1
            acc = 0.0
            big_k = ceil(u_top - lo) if lo < u_top else 0
            for m in range(big_k + 1):
                # the direct terms, and g(K) last
                t = (m + lo) * (m + hi)
                pw = t
                for _ in range(k1):
                    pw *= t
                if half:
                    pw *= sqrt(t)
                g = 1.0 / pw
                if m < big_k:
                    acc += g
            terms += big_k
            u1 = big_k + lo
            u2 = big_k + hi
            dd = hi - lo
            if dd > theta * u1:
                q = 1.0 + dd / u1
                y = 1.0 / q
                pv = pa = 0.0
                for a, a_abs in poly:
                    pv = pv * y + a
                    pa = pa * y + a_abs
                qs = 1.0
                for _ in range(k1):
                    qs *= q
                if half:
                    qs *= sqrt(q)
                ln = log(q)
                dp = dd
                for _ in range(dpow):
                    dp *= dd
                integral = (qs * pv + c_s + ell * ln) / dp
                extra += g_cf * (qs * pa + c_abs + ell_abs * ln) / dp
            else:
                big_y = u1 + 0.5 * dd
                w = 0.5 * dd / big_y
                w *= w
                sv = 0.0
                for a in series:
                    sv = sv * w + a
                yp = big_y
                for _ in range(dpow):
                    yp *= big_y
                integral = sv / yp
            v1 = 1.0 / u1
            v2 = 1.0 / u2
            sig = v1 + v2
            pi = v1 * v2
            cm, c = 1.0, s * sig
            e_sum = b[1] * c
            e_err = weights[1] * c
            for j in range(2, p + 2):
                a1, b1 = rec[2 * j - 3]
                a2, b2 = rec[2 * j - 2]
                cm, c = c, sig * a1 * c - pi * b1 * cm
                cm, c = c, sig * a2 * c - pi * b2 * cm
                if j <= p:
                    e_sum += b[j] * c
                    e_err += weights[j] * c
            extra += g * (e_err + tails[p] * c)
            acc += integral
            acc += g * (0.5 + e_sum)
            rows.append(acc)
        total = math.fsum(rows)
        err = (rho_row * total * (1 + 2 * U) + extra / (1 - gamma(radius + 2))
               + U * total / (1 - U) + terms * 2.0 ** -1020)
        value = total * inv_scale
        bound = (inv_scale / (1 - gamma(2)) * (gamma(2) * total + err
                                          + (total + err) * math.expm1(2 * s * lam))
                 * (1 + 2.0 ** -45))
        out.append((value, bound, terms))
    return out
