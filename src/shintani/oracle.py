"""The Euler-product oracle, an independent check of the Shintani sums:
the Dedekind zeta function at s > 1 as the product of the local factors
prod_d (1 - p^(-d s))^(-a_d) over the primes p up to a cap, a_d the number
of degree-d factors of the defining polynomial mod p (from
`kernels.splitting_counts`), with certified roundoff and tail bounds.  The
primes are sieved and scanned one segment at a time, so memory does not
grow with the cap.  It loads NumPy and the kernels, but not the domain,
ideal and zeta modules.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import kernels
from .dyadic import UP, gamma
from .errors import InputError, NonMonogenicPrime, TailBoundUnachievable
from .kernels import ZetaValue

# explicit Chebyshev-type bound pi(x) < C x / log x, valid for x > 1
_PI_BOUND_C = 1.25506


# integers per segment of the sieve: with the base primes up to isqrt(cap),
# the oracle's working set, whatever the cap
_SEGMENT = 2 ** 16


def _sieve(limit: int):
    """The primes up to limit, as Python ints."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).tolist()


def _segments(cap: int):
    """The primes up to cap in increasing order, as one int64 array per
    segment [lo, lo + _SEGMENT) (segmented sieve: Bays and Hudson, BIT 1977)."""
    base = _sieve(math.isqrt(cap))
    for lo in range(0, cap + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, cap + 1)
        mask = np.ones(hi - lo, dtype=bool)
        mask[:max(2 - lo, 0)] = False
        for p in base:
            if p * p >= hi:
                break
            mask[max(p * p, -(-lo // p) * p) - lo:: p] = False
        yield (np.flatnonzero(mask) + lo).astype(np.int64, copy=False)


# Roundoff of the oracle against the exact product Z = exp(S) over the same
# primes and splitting counts, S the sum of the K <= n #primes terms
# T = -a_d log(1 - x), x = p^(-d s).  u = 2^-53 and gamma_k = k u / (1 - k u)
# as for kernels.box_sum_roundoff; "k roundings" is a factor 1 + theta with
# |theta| <= gamma_k, and such factors compose by adding their k.
# - libm's pow, log1p, exp and expm1 are within 2 ulps of a normal result
#   (the tests check the first three against 113-bit values): 4 roundings each.
# - The exponent fl(-d s) is -d s (1 + t), |t| <= u, which multiplies x by
#   exp(-t d s log p).  For x >= 2^-1021, d s log p <= 1021 log 2 < 708,
#   so that is 709 roundings, and fl(p ** fl(-d s)) = x' is x with 713.
# - x, x' <= 2^-s (1 + gamma_713) < 0.5002, where the slope of -log1p(-x)
#   is below 2.001, and x <= -log1p(-x); so -log1p(-x') is -log1p(-x) with
#   2.001 gamma_713 <= gamma_1427, and log1p itself and the product with the
#   integer a_d add 5: each term enters as T with 1432 roundings.  A term
#   with x < 2^-1021 is below n 2^-1020 either way: off by n 2^-1019.
# - The terms are positive, so the running sum over them is s' = sum T with
#   1432 + K roundings each, and |s' - S| <= rho S <= rho / (1 - rho) s' + K
#   n 2^-1019 = D, rho = gamma_(1432 + K).
# - value = fl(exp(s')) is Z exp(s' - S) with 4 roundings, so |value - Z|
#   <= r Z <= r / (1 - r) value, r = expm1(D) (1 + gamma_4) + gamma_4.
# The bound is a sum, product or quotient of positive floats (1 - r and
# 1 - rho are near 1), rounded at most 2^12 times since the last product
# with UP, whose (1 - u)^(2^12 + 1) (1 + 2^-40) > 1 puts it above its exact
# value; expm1 is monotone, so its argument is rounded up first.


def euler_product_roundoff(log_val: float, terms: int, n: int) -> float:
    """Certified bound on |math.exp(log_val) - Z|, log_val being the
    oracle's running sum of at most `terms` local-factor terms of a degree-n
    field and Z the exact product over the same primes (see above)."""
    rho = gamma(1432 + terms)
    d = UP * (rho / (1 - rho) * log_val + terms * n * 2.0 ** -1019)
    r = UP * (math.expm1(d) * (1 + gamma(4)) + gamma(4))
    return UP * (r / (1 - r) * math.exp(log_val))


def euler_product_oracle(s: float, field, prime_cap: int, order=None) -> ZetaValue:
    """Dedekind zeta of the NumberField by local factors up to the prime
    cap, splitting read off the defining polynomial mod p; valid when the
    power basis has index coprime to every p <= cap (monogenic fixtures:
    index 1), which an ideals.Order checks.  A bound beyond the float range
    (s too close to 1 for the cap) raises TailBoundUnachievable."""
    if s <= 1:
        raise ValueError("the Euler product converges for s > 1 only")
    if (isinstance(prime_cap, bool) or not isinstance(prime_cap, numbers.Integral)
            or prime_cap < 2):
        # the tail bound divides by log(prime_cap)
        raise InputError(f"prime cap must be an integer >= 2, got {prime_cap!r}")
    if order is not None:
        idx = order.power_basis_index()
        if idx > 1:
            for p in _sieve(min(prime_cap, idx)):
                if idx % p == 0:
                    raise NonMonogenicPrime(
                        f"prime {p} divides the power-basis index {idx}")
    n = field.degree
    # per pattern, (a_d, -d s) for its nonzero a_d: the loop's operations
    terms = {}
    log1p = math.log1p
    log_val = 0.0
    prime_count = 0
    for primes in _segments(prime_cap):
        counts = kernels.splitting_counts(field.poly, primes)
        for cnt in set(counts).difference(terms):
            terms[cnt] = [(a_d, -d * s) for d, a_d in enumerate(cnt, start=1) if a_d]
        for p, cnt in zip(primes.tolist(), counts):
            fp = float(p)
            for a_d, e in terms[cnt]:
                log_val -= a_d * log1p(-fp ** e)
        prime_count += len(counts)
    value = math.exp(log_val)
    roundoff = euler_product_roundoff(log_val, n * prime_count, n)
    # tail: log of the omitted factors is below n * sum_{p > P} p^-s / (1 - p^-s);
    # partial summation against pi(x) < C x / log x gives the explicit bound
    # n (C s P^(1-s) / ((s - 1) log P) - pi(P) P^-s) / (1 - 2^-s).  Its two
    # parts are rounded up and down (P < 2^53 is exact, and P ** (1 - s)
    # takes 709 roundings for its exponent while it is normal, as above:
    # fewer than 2^12 in all); a power below 2^-1021 leaves a tail below
    # n 2^-1018.
    P = float(prime_cap)
    head = UP * (_PI_BOUND_C * s / ((s - 1) * math.log(P)) * P ** (1 - s))
    sum_bound = max(head - prime_count * P ** (-s) / UP, 0.0)
    log_tail = UP * (n * sum_bound / (1 - 2.0 ** (-s)) + n * 2.0 ** -1018)
    # expm1 overflows past 709.78
    bound = UP * ((value + roundoff) * math.expm1(min(log_tail, 709.0)) + roundoff)
    if log_tail > 709.0 or bound == math.inf:
        raise TailBoundUnachievable(f"the tail bound of the Euler product at s = {s} "
                                    f"with prime cap {prime_cap} exceeds the float range")
    return ZetaValue(value, bound, prime_count, prime_cap)
