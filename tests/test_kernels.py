import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani.kernels import BACKEND, box_sum, em, reference, scalar, splitting_counts
from shintani.polyroots import poly_discriminant

BACKENDS = [reference]


def brute_simplex_sum(z, gens, s, radius, scale=1.0):
    n = len(z)
    total = 0.0
    for m in itertools.product(range(radius + 1), repeat=n):
        if sum(m) > radius:
            continue
        prod = 1.0
        for j in range(n):
            prod *= z[j] + scale * sum(m[i] * gens[i][j] for i in range(n))
        total += prod ** -s
    return total


@pytest.mark.parametrize("impl", BACKENDS)
@pytest.mark.parametrize("n,s,scale", [(2, 2.0, 1.0), (3, 2.0, 1.0),
                                       (3, 1.5, 2.0), (4, 2.0, 1.0)])
def test_box_sum_matches_brute_force(impl, n, s, scale):
    z = [0.7 + 0.3 * j for j in range(n)]
    gens = [[1.0] * n] + [[0.2 + 0.15 * i + 0.7 * j for j in range(n)]
                          for i in range(1, n)]
    got = impl.box_sum(z, gens, s, 5, scale)
    want = brute_simplex_sum(z, gens, s, 5, scale)
    assert abs(got - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_box_sum_every_level(n):
    # every simplex level from 0, including the degree-5 gathers, and a
    # non-integer and a large integer exponent
    z = [1.1 + 0.2 * j for j in range(n)]
    gens = [[0.3 + 0.4 * i + 0.25 * j * j for j in range(n)] for i in range(n)]
    for radius in range(4):
        for s in (2.5, 7.0):
            got = reference.box_sum(z, gens, s, radius, 3.0)
            want = brute_simplex_sum(z, gens, s, radius, 3.0)
            assert abs(got - want) < 1e-13 * want


def _one_shift_box_sum(z, gens, s, radius, scale=1.0):
    """The simplex sum of one shift on 1-D arrays, operation for operation
    as `box_sums` does it for each row of a block."""
    n = len(z)
    c = [[scale * g for g in row] for row in gens]
    m = np.arange(radius + 1)
    sums, ends = m, m + 1
    bases = [zj + m * cj for zj, cj in zip(z, c[1])]
    for row in c[2:]:
        level = np.repeat(m, ends)
        idx = np.arange(len(level)) - np.repeat(np.cumsum(ends) - ends, ends)
        last = level - sums[idx]
        bases = [b[idx] + last * cj for b, cj in zip(bases, row)]
        sums, ends = level, np.cumsum(ends)
    # s = k + 1/2 in [1, 8] is 1 / (P^k sqrt(P)), s = k is 1 / P^k
    k, half = scalar.half_integer_power(s)
    totals = []
    for m0 in range(radius + 1):
        cnt = ends[radius - m0]
        p = bases[0][:cnt] + m0 * c[0][0]
        for j in range(1, n):
            p *= bases[j][:cnt] + m0 * c[0][j]
        if k:
            t = p.copy()
            for _ in range(k - 1):
                t *= p
            if half:
                t *= np.sqrt(p)
            t = 1.0 / t
        else:
            t = np.power(p, -s)
        totals.append(np.add.reduce(t))
    return math.fsum(totals)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 2.25])
def test_box_sums_rows_match_one_shift_sum(n, s):
    # every row of a block is bit for bit the one-shift sum, for blocks of
    # 1 and of 7 shifts, at levels with slabs below and above 8 and 128
    rng = np.random.default_rng(10 * n + int(2 * s))
    gens = rng.uniform(0.2, 3.0, (n, n)).tolist()
    for radius in (0, 3, {2: 200, 3: 25, 4: 9}[n]):
        for npts, scale in ((1, 1.0), (7, 3.0)):
            zs = rng.uniform(0.1, 4.0, (npts, n)).tolist()
            got = reference.box_sums(zs, gens, s, radius, scale)
            want = [_one_shift_box_sum(z, gens, s, radius, scale) for z in zs]
            assert got == want
            assert [reference.box_sum(z, gens, s, radius, scale) for z in zs] == want


def test_graded_bases_order():
    # the trailing points come by nondecreasing sum, each exactly once
    zs = np.zeros((1, 4))
    c = [None, [1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]]
    bases, ends = reference._graded_bases(zs, c, 6)
    pts = np.stack([b[0] for b in bases[:3]], axis=1).astype(int)
    assert len({tuple(p) for p in pts}) == len(pts) == math.comb(9, 3)
    sums = pts.sum(axis=1)
    assert (np.diff(sums) >= 0).all() and (pts >= 0).all()
    assert list(ends) == [math.comb(k + 3, 3) for k in range(7)]


# ---- the roundoff allowance's model of NumPy's float64 sum ----

def _pairwise(a, n):
    """NumPy's pairwise summation, as zeta._roundoff assumes it: a plain
    loop below 8, eight accumulators up to 128, halving above."""
    if n < 8:
        res = -0.0
        for x in a[:n]:
            res += x
        return res, max(n - 1, 0)
    if n <= 128:
        r = list(a[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += a[i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[i:n]:
            res += x
        return res, (n // 8 - 1) + 3 + n % 8
    h = n // 2 - (n // 2) % 8
    left, dl = _pairwise(a[:h], h)
    right, dr = _pairwise(a[h:], n - h)
    return left + right, 1 + max(dl, dr)


@pytest.mark.parametrize("n", [1, 5, 8, 100, 128, 129, 1000, 8193, 70001])
def test_numpy_sum_is_pairwise(n):
    x = np.random.default_rng(n).random(n) ** 8 * 1e3
    buf = np.zeros(n + 16)
    buf[:n] = x
    want, depth = _pairwise(x.tolist(), n)
    assert float(np.sum(buf[:n])) == want
    # the depth bound used by box_sum_roundoff
    assert depth <= 19 + (n - 1).bit_length()
    # a block's slab totals: the axis-1 reduce of a (P, cnt) strided view,
    # and of a contiguous (P, cnt) block, sums every row pairwise
    rows = np.random.default_rng(n + 1).random((5, n + 16)) ** 8 * 1e3
    want = [_pairwise(row.tolist(), n)[0] for row in rows]
    assert np.add.reduce(rows[:, :n], axis=1).tolist() == want
    assert np.add.reduce(rows[:, :n].copy(), axis=1).tolist() == want


# ---- the scalar evaluator: reference.box_sums in Python floats ----

# the largest radius drawn per degree: slabs beyond 128 terms (the halving
# branch of the pairwise sum) for n = 2, 3, 4 and 5
RADIUS = {2: 300, 3: 30, 4: 12, 5: 8}
POSITIVE = st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def simplex_sum_inputs(draw):
    n = draw(st.integers(2, 5))
    radius = draw(st.integers(0, RADIUS[n]))
    s = draw(st.integers(2, 16)) / 2
    gens = draw(st.lists(st.lists(POSITIVE, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    zs = draw(st.lists(st.lists(POSITIVE, min_size=n, max_size=n),
                       min_size=1, max_size=5))
    scale = draw(st.sampled_from([1.0, 2.0, 3.0, 0.37]))
    return zs, gens, s, radius, scale


@settings(max_examples=150, deadline=None)
@given(simplex_sum_inputs())
def test_scalar_box_sums_match_reference_bit_for_bit(args):
    assert scalar.box_sums(*args) == reference.box_sums(*args)


def test_scalar_box_sums_every_level():
    # every radius from 0, one shift and several, n = 2 to 5 and s = 1,
    # 1.5, ..., 8
    rng = np.random.default_rng(7)
    for n in range(2, 6):
        gens = rng.uniform(0.2, 3.0, (n, n)).tolist()
        zs = rng.uniform(0.1, 4.0, (3, n)).tolist()
        for radius in range(6):
            for s in range(2, 17):
                args = (zs, gens, s / 2, radius, 3.0)
                assert scalar.box_sums(*args) == reference.box_sums(*args)


@pytest.mark.parametrize("n", [1, 5, 7, 8, 9, 100, 128, 129, 136, 1000, 8193, 70001])
def test_scalar_pairwise_is_the_model(n):
    # the evaluator's pairwise sum against the model above, which the tests
    # check against NumPy; at an offset as well, as the halving reaches it
    a = (np.random.default_rng(n).random(n + 5) ** 8 * 1e3).tolist()
    assert scalar._pairwise(a, 0, n) == _pairwise(a, n)[0]
    assert scalar._pairwise(a, 5, n) == _pairwise(a[5:], n)[0]


@pytest.mark.parametrize("s", [2.25, 0.0, 0.5, 8.5, 9.0, math.nan])
def test_scalar_box_sums_half_integer_exponents_only(s):
    with pytest.raises(ValueError):
        scalar.box_sums([[1.0, 1.0]], [[1.0, 1.0], [0.2, 5.0]], s, 3)


def test_numpy_power_within_four_ulps():
    x = np.exp(np.random.default_rng(3).uniform(0, 80, 400))
    with mpmath.workprec(113):
        for s in (1.5, 2.5, 3.25):
            y = np.power(x, -s)
            for xi, yi in zip(x.tolist(), y.tolist()):
                exact = mpmath.mpf(xi) ** -s
                assert abs(mpmath.mpf(yi) - exact) <= 4 * math.ulp(yi)


# ---- splitting oracle: brute factorization over F_p ----

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _divides(d, f, p):
    f = [x % p for x in f]
    dd = len(d) - 1
    inv = pow(d[-1], p - 2, p)
    while len(f) - 1 >= dd:
        c = f[-1] * inv % p
        for i in range(dd + 1):
            f[len(f) - 1 - dd + i] = (f[len(f) - 1 - dd + i] - c * d[i]) % p
        f.pop()
        while f and f[-1] % p == 0 and len(f) - 1 >= dd:
            f.pop()
    return all(x % p == 0 for x in f)


def _monic_irreducibles(p, d):
    """All monic irreducible polynomials of degree d over F_p (brute)."""
    if d == 1:
        return [[(-a) % p, 1] for a in range(p)]
    lower = []
    for dd in range(1, d):
        lower.extend(_monic_irreducibles(p, dd))
    out = []
    for tail in itertools.product(range(p), repeat=d):
        f = list(tail) + [1]
        if any(len(g) - 1 <= d // 2 and _divides(g, f, p) for g in lower):
            continue
        out.append(f)
    return out


def brute_counts(poly, p):
    """Distinct-factor degree counts of the squarefree part via trial
    division by every monic irreducible."""
    n = len(poly) - 1
    counts = [0] * n
    rem = [c % p for c in poly]
    for d in range(1, n + 1):
        if len(rem) - 1 < d:
            break
        for g in _monic_irreducibles(p, d):
            if len(rem) - 1 >= d and _divides(g, rem, p):
                counts[d - 1] += 1
                while _divides(g, rem, p):
                    rem = _exact_div(rem, g, p)
    return tuple(counts)


def _exact_div(f, d, p):
    f = [x % p for x in f]
    dd = len(d) - 1
    out = [0] * (len(f) - dd)
    inv = pow(d[-1], p - 2, p)
    for k in range(len(out) - 1, -1, -1):
        c = f[k + dd] * inv % p
        out[k] = c
        for i in range(dd + 1):
            f[k + i] = (f[k + i] - c * d[i]) % p
    return out


@pytest.mark.parametrize("impl", BACKENDS)
@pytest.mark.parametrize("poly", [(-2, 0, 1), (-3, 0, 1), (-1, -3, 0, 1),
                                  (1, -3, -1, 1), (1, 1, -3, -1, 1)])
def test_splitting_vs_brute_force(impl, poly):
    primes = [2, 3, 5, 7, 11, 13]
    got = impl.splitting_counts(poly, primes)
    for p, cnt in zip(primes, got):
        assert cnt == brute_counts(poly, p), (poly, p)


@pytest.mark.parametrize("impl", BACKENDS)
def test_splitting_degree_sums(impl):
    # away from the discriminant the degree sum is the full degree
    poly = (1, 1, -3, -1, 1)
    disc = poly_discriminant(poly)
    primes = [p for p in (7, 11, 13, 17, 19, 23, 101, 997) if disc % p]
    for p, cnt in zip(primes, impl.splitting_counts(poly, primes)):
        assert sum(d * c for d, c in enumerate(cnt, start=1)) == 4


def test_selected_backend_exposed():
    assert BACKEND == "reference"
    z = [1.0, 1.0]
    gens = [[1.0, 1.0], [0.17, 5.83]]
    assert box_sum(z, gens, 2.0, 10) > 0
    assert splitting_counts((-2, 0, 1), [7]) == [(2, 0)]


# ---- distinct-degree factorization with Python ints ----

def _trim(a, p):
    a = [x % p for x in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a, b, p):
    """a mod b over F_p; b is trimmed and nonzero."""
    a = _trim(a, p)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, x in enumerate(b):
            a[shift + i] = (a[shift + i] - c * x) % p
        a = _trim(a, p)
    return a


def _gcd_degree(a, b, p):
    a, b = _trim(a, p), _trim(b, p)
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) - 1


def _mul_rem(a, b, f, p):
    return _rem(_poly_mul(a, b, p), f, p)


def ddf_counts(poly, p):
    """Distinct-factor degree counts of poly mod p by distinct-degree
    factorization: gcd(poly, x^(p^d) - x) is the product of the distinct
    irreducible factors whose degree divides d, so its degree is the sum of
    k a_k over the divisors k of d.  x^(p^d) is y(x^p) for y = x^(p^(d-1)),
    because y^p = y(x^p) over F_p."""
    n = len(poly) - 1
    f = [c % p for c in poly]
    xp, base, e = [1], [0, 1], p
    while e:
        if e & 1:
            xp = _mul_rem(xp, base, f, p)
        base = _mul_rem(base, base, f, p)
        e >>= 1
    powers = [[1]]                      # (x^p)^i mod (f, p)
    for _ in range(n - 1):
        powers.append(_mul_rem(powers[-1], xp, f, p))
    counts = [0] * n
    y = [0, 1]
    for d in range(1, n + 1):
        comp = [0] * n
        for c, power in zip(y, powers):
            for i, v in enumerate(power):
                comp[i] += c * v
        y = _trim(comp, p)
        diff = y + [0] * (2 - len(y))
        diff[1] -= 1
        found = _gcd_degree(f, diff, p)
        counts[d - 1] = (found - sum(k * counts[k - 1] for k in range(1, d)
                                     if d % k == 0)) // d
        # the radical has degree <= n, and what is left of it has factors
        # of degree > d only
        if n - sum(k * a for k, a in enumerate(counts[:d], 1)) <= d:
            break
    return tuple(counts)


# ---- batched Frobenius-rank scan against plain DDF ----

X4_X_1 = (-1, -1, 0, 0, 1)         # S4: the only input here reaching (3,1)
X5_X_1 = (-1, -1, 0, 0, 0, 1)      # S5: every quintic pattern
SCAN_POLYS = [(-2, 0, 1), (-3, 0, 1), (-1, -3, 0, 1), (1, -3, -1, 1),
              (1, 1, -3, -1, 1), X4_X_1, X5_X_1]
PRIMES_30K = [p for p in range(2, 30000)
              if all(p % q for q in range(2, int(p ** 0.5) + 1))]


@pytest.mark.parametrize("poly", SCAN_POLYS)
def test_batched_scan_matches_ddf(monkeypatch, poly):
    # batches of 1000 primes put several batch boundaries (and a short last
    # batch) inside the 3245 primes
    n = len(poly) - 1
    monkeypatch.setattr(reference, "_CHUNK_ENTRIES", 1000 * n * n)
    assert len(PRIMES_30K) > 3 * (reference._CHUNK_ENTRIES // (n * n))
    want = [ddf_counts(poly, p) for p in PRIMES_30K]
    assert reference.splitting_counts(poly, PRIMES_30K) == want


def _partition_patterns(n):
    out = set()
    for a in itertools.product(*(range(n // e + 1) for e in range(1, n + 1))):
        if sum(e * a_e for e, a_e in enumerate(a, 1)) == n:
            out.add(a)
    return out


@pytest.mark.parametrize("poly", [X4_X_1, X5_X_1])
def test_batched_scan_reaches_every_pattern(poly):
    n = len(poly) - 1
    disc = poly_discriminant(poly)
    got = reference.splitting_counts(poly, PRIMES_30K)
    seen = {c for p, c in zip(PRIMES_30K, got) if disc % p}
    assert seen == _partition_patterns(n)


def test_pattern_signatures_separate_partitions():
    # N_1 fixes the pattern up to n = 3, n = 4 needs N_2 and n = 5 N_3
    assert reference._patterns(3)[1] == 1
    assert reference._patterns(4)[1] == 2
    assert reference._patterns(5)[1] == 3
    for n, count in zip(range(2, 9), (2, 3, 5, 7, 11, 15, 22)):
        patterns, depth, codes = reference._patterns(n)
        assert depth <= n
        assert len(patterns) == count          # the partition numbers
        assert set(patterns) == _partition_patterns(n)
        assert list(codes) == sorted(set(codes))


# primes just below and just above the int64 bound of the batched scan, and
# near 10^12
BELOW_BOUND = [3037000331, 3037000333, 3037000391, 3037000399, 3037000427,
               3037000429, 3037000453, 3037000493]
ABOVE_BOUND = [3037000507, 3037000537, 3037000573, 3037000579, 3037000597,
               3037000639, 3037000691, 3037000693]
NEAR_1E12 = [1000000000039, 1000000000061, 1000000000063, 1000000000091,
             1000000000121, 1000000000163, 1000000000169, 1000000000177]


@pytest.mark.parametrize("poly", [(-2, 0, 1), (1, 1, -3, -1, 1), X4_X_1])
def test_large_primes_exact(poly):
    assert max(BELOW_BOUND) <= reference._INT64_PRIME_MAX < min(ABOVE_BOUND)
    primes = BELOW_BOUND + ABOVE_BOUND + NEAR_1E12
    want = [ddf_counts(poly, p) for p in primes]
    assert reference.splitting_counts(poly, primes) == want


def test_large_prime_sqrt2_splits():
    # 2 is a square mod 3037000537 (it is 1 mod 8)
    assert 3037000537 % 8 == 1
    assert reference.splitting_counts((-2, 0, 1), [3037000537]) == [(2, 0)]


def test_mixed_prime_order():
    # unsorted input mixing ramified (5, 29), batched and large primes
    poly = (1, 1, -3, -1, 1)
    primes = [1000000000039, 29, 7, 3037000537, 5, 997, 2, 3037000493, 13]
    want = [ddf_counts(poly, p) for p in primes]
    assert reference.splitting_counts(poly, primes) == want


# ---- ramified primes and primes above the int64 bound ----

# (x+1)^4, x^2 (x^2 - 2) and x^4: disc = 0, so every prime is ramified
SQUARED = [(1, 4, 6, 4, 1), (0, 0, -2, 0, 1), (0, 0, 0, 0, 1)]
Z13_PLUS = (-1, 3, 6, -4, -5, 1, 1)    # Q(zeta13)^+


def _ramified_cases():
    for poly in SCAN_POLYS:
        disc = poly_discriminant(poly)
        yield poly, [p for p in PRIMES_30K if disc % p == 0]
    for poly in SQUARED:
        yield poly, PRIMES_30K[:25]


@pytest.mark.parametrize("poly, primes", list(_ramified_cases()))
def test_ramified_primes_match_ddf(poly, primes):
    n = len(poly) - 1
    got = reference.splitting_counts(poly, primes)
    assert got == [ddf_counts(poly, p) for p in primes]
    for p, cnt in zip(primes, got):
        if p ** n <= 5000:
            assert cnt == brute_counts(poly, p), (poly, p)


def test_ramified_pattern_table():
    # every radical pattern of degree 1..n is separated; at n = 3 the
    # radicals x, x^2 + 1 and an irreducible cubic have N_1 = 1, and x and
    # the cubic also share N_2 = 1, so the table needs N_1..N_3 where the
    # partitions need N_1 alone
    assert reference._patterns(3, ramified=True)[1] == 3
    for n in range(2, 9):
        patterns, depth, codes = reference._patterns(n, ramified=True)
        want = {a + (0,) * (n - m) for m in range(1, n + 1)
                for a in _partition_patterns(m)}
        assert depth <= n
        assert len(patterns) == len(want)
        assert set(patterns) == want
        assert list(codes) == sorted(set(codes))


@pytest.mark.parametrize("poly", [X5_X_1, Z13_PLUS])
def test_object_arrays_above_the_bound(poly):
    primes = ABOVE_BOUND + NEAR_1E12 + [2 ** 61 - 1]
    assert reference.splitting_counts(poly, primes) == [ddf_counts(poly, p) for p in primes]


def test_coefficients_beyond_int64():
    # x^2 - (10^40 + 1) on int64 primes; 17 and 5882353 divide 10^8 + 1,
    # a factor of 10^40 + 1, so they are ramified
    poly = (-(10 ** 40 + 1), 0, 1)
    primes = [2, 3, 5, 7, 17, 5882353, 1000003] + BELOW_BOUND
    assert reference.splitting_counts(poly, primes) == [ddf_counts(poly, p) for p in primes]


@pytest.mark.parametrize("poly", [(-2, 0, 1), X4_X_1, (-(10 ** 40 + 1), 0, 1)])
def test_int64_array_matches_list(poly):
    # the oracle passes int64 arrays: primes above the bound and a
    # discriminant beyond int64 still reach object arrays
    primes = [2, 3, 5, 7, 17, 5882353, 1000003] + BELOW_BOUND + ABOVE_BOUND + NEAR_1E12
    got = reference.splitting_counts(poly, np.array(primes, dtype=np.int64))
    assert got == reference.splitting_counts(poly, primes) == [ddf_counts(poly, p) for p in primes]


def test_ramified_prime_above_the_bound():
    # x^2 - p is x^2 mod p: ramified and above the bound
    p = ABOVE_BOUND[0]
    assert reference.splitting_counts((-p, 0, 1), [p, 7]) == [(1, 0), ddf_counts((-p, 0, 1), 7)]



# ---- the reduction interval of the int64 scan ----

def _is_prime(m):
    """Miller-Rabin with the first 12 prime bases: exact below 3.3 * 10^24."""
    if m < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m in bases:
        return True
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _interval(p_max, n):
    return reference._reduction_interval(np.array([p_max], dtype=np.int64), n)


@pytest.mark.parametrize("n", range(2, 9))
def test_reduction_interval(n):
    # one product per reduction at the int64 bound, where 2 (P - 1)^2 > 2^63
    top = reference._INT64_PRIME_MAX - 1
    assert _interval(reference._INT64_PRIME_MAX, n) == 1
    assert top * top + top < 2 ** 63 < 2 * top * top
    # the sieve's primes: one reduction per coefficient (n row products and
    # n folds, the last for the product by x)
    assert _interval(10 ** 6, n) == 2 * n
    assert _interval(3, n) == 2 * n
    assert reference._reduction_interval(np.array(ABOVE_BOUND, dtype=object), n) == 2 * n


def _last_single_reduction_prime(n):
    """The largest P for which 2n products of residues mod P, on top of a
    residue, still fit in int64."""
    lo, hi = 2, reference._INT64_PRIME_MAX
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _interval(mid, n) == 2 * n else (lo, mid)
    top = lo - 1
    assert 2 * n * top * top + top < 2 ** 63 <= 2 * n * (top + 1) ** 2 + top + 1
    return lo


@pytest.mark.parametrize("poly", [(-2, 0, 1), (1, 1, -3, -1, 1), Z13_PLUS])
def test_single_reduction_at_its_largest_primes(poly):
    # the 8 primes just below the largest P that still reduces each
    # coefficient once: the most products a coefficient ever holds
    n = len(poly) - 1
    p = _last_single_reduction_prime(n)
    primes = []
    while len(primes) < 8:
        if _is_prime(p):
            primes.append(p)
        p -= 1
    assert _interval(primes[0], n) == 2 * n and _interval(primes[0] + 2 ** 20, n) < 2 * n
    assert reference.splitting_counts(poly, primes) == [ddf_counts(poly, q) for q in primes]


def _primes_from(p, count, step):
    """count primes from p on, walking by step (+1 or -1)."""
    out = []
    while len(out) < count:
        if _is_prime(p):
            out.append(p)
        p += step
    return out


def _x_to_the_p(poly, p):
    """x^p mod (poly, p) by Python integers, low degree first."""
    n = len(poly) - 1
    base, out, e = [0, 1] + [0] * (n - 2), [1] + [0] * (n - 1), p
    while e:
        if e & 1:
            out = [c % p for c in _poly_mod_monic(_poly_mul(out, base, p), poly)]
        base = [c % p for c in _poly_mod_monic(_poly_mul(base, base, p), poly)]
        e >>= 1
    return out


def _poly_mod_monic(a, poly):
    n = len(poly) - 1
    a = list(a) + [0] * max(0, n - len(a))
    for c in range(len(a) - 1, n - 1, -1):
        top, a[c] = a[c], 0
        for j in range(n):
            a[c - n + j] -= top * poly[j]
    return a[:n]


@pytest.mark.parametrize("poly", [(-2, 0, 1), (1, 1, -3, -1, 1), X5_X_1, Z13_PLUS])
def test_ladder_folds_x_into_the_square(poly):
    # the primes on both sides of the largest P that still reduces each
    # coefficient once (2n products), just below and above the int64
    # bound (one product per reduction; object arrays) and near 10^12:
    # the ladder's x^p is Python's, column by column, and the counts are
    # the plain DDF's
    n = len(poly) - 1
    edge = _last_single_reduction_prime(n)
    chunks = [_primes_from(edge, 4, -1), _primes_from(edge + 1, 4, 1),
              BELOW_BOUND[-4:], ABOVE_BOUND[:4], NEAR_1E12[:4]]
    assert _interval(max(chunks[0]), n) == 2 * n > _interval(max(chunks[1]), n)
    for primes in chunks:
        arr = np.array(primes, dtype=object if primes[0] > reference._INT64_PRIME_MAX
                       else np.int64)
        k = reference._reduction_interval(arr, n)
        q = reference._frobenius_matrices(list(poly), arr, k)
        assert [[int(c) for c in q[i, :, 1]] for i in range(len(primes))] == [
            _x_to_the_p(poly, p) for p in primes]
        assert reference.splitting_counts(poly, primes) == [ddf_counts(poly, p) for p in primes]


# ---- Euler-Maclaurin inner sums of degree 2 ----

def _inner_sum(lo, hi, s):
    """sum over m >= 0 of ((m + lo)(m + hi))^-s in mpmath (30 digits, lo
    and hi mpf): 40 direct terms, then mpmath's own Euler-Maclaurin sum
    (numerical derivatives and quadrature) of the tail scaled to 1 at
    m = 40, as sumem's tolerance is absolute."""
    s = mpmath.mpf(s)

    def f(m):
        return ((m + lo) * (m + hi)) ** -s
    with mpmath.workdps(30):
        f40 = f(40)
        return (mpmath.fsum(f(m) for m in range(40))
                + f40 * mpmath.sumem(lambda m: f(m) / f40, [40, mpmath.inf]))


def _quadratic(d, unit):
    """Q(sqrt d) as x^2 - d, and its unit from power-basis coordinates."""
    from shintani.field import NumberField
    fld = NumberField([-d, 0, 1])
    return fld, fld.element(unit)


EM_FIELDS = {"q_sqrt2": (2, [3, 2]), "q_sqrt3": (3, [2, 1]),
             "q_sqrt5": (5, [1.5, 0.5]), "q_sqrt2_mod3": (2, [577, 408])}
EM_S = (1.5, 2.0, 2.5, 3.0, 8.0)


def _row(fld, elem):
    """Certified float conjugates of a totally positive element, their
    relative error, and its exact conjugates as mpf, sorted."""
    from fractions import Fraction
    from shintani.zeta import _embed_floats
    floats, deltas = _embed_floats(fld, [elem])
    a, b = (Fraction(c) for c in elem.coeffs)
    d = -fld.poly[0]
    with mpmath.workdps(40):
        root = mpmath.sqrt(d)
        conj = sorted(mpmath.mpf(a.numerator) / a.denominator
                      + sign * mpmath.mpf(b.numerator) / b.denominator * root
                      for sign in (-1, 1))
    return floats[0], math.nextafter(deltas[0], math.inf), conj


@pytest.mark.parametrize("name", sorted(EM_FIELDS))
def test_em_rows_within_their_bound(name):
    # the row m_1 of the cone (1, eps) at the shift z is the inner sum of
    # z + m_1 eps over m_0 >= 0: from z = 1 (the two roots meet at m_1 = 0)
    # and a generic shift, at m_1 = 0 ... 10^5, each value lies within its
    # certified bound of mpmath's sum, and the bound is below 10^-12 of it
    from fractions import Fraction
    d, unit = EM_FIELDS[name]
    fld, eps = _quadratic(d, [Fraction(c) for c in unit])
    for z in (fld.one, (fld.one + eps * 3) * Fraction(1, 7)):
        for m1 in (0, 1, 10, 10 ** 3, 10 ** 5):
            floats, delta, (lo, hi) = _row(fld, z + eps * m1)
            for s in EM_S:
                (value, bound, terms), = em.em_sums(
                    [floats], [[1.0, 1.0], [1.0, 1.0]], s, 0, 1.0, [delta])
                ref = _inner_sum(lo, hi, s)
                assert abs(value - ref) <= bound <= 1e-12 * value, (name, m1, s)
                assert terms >= 1


@pytest.mark.parametrize("s", [2.0, 2.5])
@pytest.mark.parametrize("name", ["q_sqrt2", "q_sqrt2_mod3"])
def test_em_sums_add_their_rows(name, s):
    # a block of two shifts on the cone (1, eps) at level 6: rows
    # m_1 = 0..6 formed from the float generator, within the bound of the
    # exact rows' sum, each shift as in a block of one
    from fractions import Fraction
    from shintani.zeta import _embed_floats
    d, unit = EM_FIELDS[name]
    fld, eps = _quadratic(d, unit)
    zs = [fld.one, (fld.one + eps) * Fraction(1, 5)]
    floats, deltas = _embed_floats(fld, [*zs, fld.one, eps])
    delta = [math.nextafter(max(dz, *deltas[2:]), math.inf) for dz in deltas[:2]]
    got = em.em_sums(floats[:2], floats[2:], s, 6, 1.0, delta)
    assert got == [em.em_sums([z], floats[2:], s, 6, 1.0, [dz])[0]
                   for z, dz in zip(floats[:2], delta)]
    for z, (value, bound, _) in zip(zs, got):
        exact = mpmath.fsum(_inner_sum(*_row(fld, z + eps * m1)[2], s) for m1 in range(7))
        assert abs(value - exact) <= bound


@pytest.mark.parametrize("s", EM_S)
def test_em_remainder_bounds_a_short_expansion(monkeypatch, s):
    # every threshold lowered to 4: a row with lo >= 4 takes one Bernoulli
    # term and no direct term, the others direct terms up to 4.  The first
    # omitted term, about 10^-4 of a row, is then most of the bound, and
    # the values still lie within it
    plan = em._em_plan(s)._replace(thresholds=[math.inf] + [4.0] * em._EM_P)
    monkeypatch.setattr(em, "_em_plan", lambda s: plan)
    for lo, hi in [(4.5, 4.5), (4.2, 30.0), (1.0, 6.0), (10.0, 2000.0), (6.0, 9.0)]:
        (value, bound, terms), = em.em_sums([[lo, hi]], [[1.0, 1.0], [1.0, 1.0]],
                                                s, 0, 1.0, [0.0])
        ref = _inner_sum(mpmath.mpf(lo), mpmath.mpf(hi), s)
        assert abs(value - ref) <= bound
        assert (terms == 1) == (lo >= 4)
        assert lo < 4 or bound > 1e-9 * value


@pytest.mark.parametrize("s", [k / 2 for k in range(3, 17)])
def test_em_roundoff_covers_the_bound(s):
    # the a-priori bound that zeta's reserve takes, at the value and level,
    # covers the bound em_sums returns: on rows where the elementary
    # integral cancels (hi far above lo), on the series rows, and on rows
    # at every threshold, and it stays below 10^-4 of the value
    shifts = [(1.0, 1.0), (0.3, 500.0), (2.0, 1e6), (50.0, 51.0), (1e3, 1e3 + 1), (0.01, 3.0),
              (7.0, 25.0)] + [(u, 3 * u + 1) for u in em._em_plan(s).thresholds[1:]]
    for lo, hi in shifts:
        for radius, delta in ((0, 0.0), (5, 2.0 ** -50), (100, 2.0 ** -52)):
            (value, bound, _), = em.em_sums([[lo, hi]], [[1.0, 1.0], [1.0, 1.0]], s, radius,
                                            1.0, [delta])
            assert 0 < bound <= em.em_roundoff(value, s, radius, delta) < 1e-4 * value


def test_em_bernoulli_table():
    # B_2j / 2j from the recurrence sum_{j <= m} C(m + 1, j) B_j = 0
    from fractions import Fraction
    b = [Fraction(1)]
    for m in range(1, 2 * em._EM_P + 3):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    assert em._BERNOULLI == tuple(b[2 * j] / (2 * j) for j in range(1, em._EM_P + 2))


@pytest.mark.parametrize("s", [1.0, 2.25, 8.5, 9.0])
def test_em_sums_half_integer_exponents_above_one_only(s):
    with pytest.raises(ValueError):
        em.em_sums([[1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], s, 3, 1.0, [0.0])


def test_em_log_within_two_ulps():
    # the elementary antiderivative's log, at the q = 1 + D/U it meets
    # (q >= 3), is within 2 ulps of mpmath's
    rng = np.random.default_rng(5)
    for q in np.concatenate([3 + rng.exponential(5.0, 2000), 10 ** rng.uniform(0.5, 9, 2000)]):
        q = float(q)
        got = math.log(q)
        with mpmath.workdps(40):
            want = mpmath.log(q)
        assert abs(got - want) <= 2 * math.ulp(got)
