import math
import random
from operator import mul
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shintani.exactlinalg import (
    charpoly,
    hnf_rows,
    hnf_solve,
    int_inverse,
    mat_det,
    signed_inverse,
)

from crosscheck import fraction_solve

small_mat = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=3, max_size=5)


def brute_det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


@given(small_mat)
def test_det_matches_cofactor_expansion(m):
    sq = m[:3]
    assert mat_det(sq) == brute_det3(sq)


@given(small_mat)
def test_hnf_canonical_under_row_ops(m):
    rng = random.Random(0)
    h1 = hnf_rows(m, 3)
    # augment with random integer combinations of the generators: the
    # lattice is unchanged, so the canonical form must be identical
    extra = []
    for _ in range(3):
        coeffs = [rng.randint(-4, 4) for _ in m]
        extra.append([sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(3)])
    shuffled = m + extra
    rng.shuffle(shuffled)
    assert hnf_rows(shuffled, 3) == h1


@given(small_mat)
def test_hnf_shape(m):
    h = hnf_rows(m, 3)
    pivots = []
    for row in h:
        c = next(i for i, x in enumerate(row) if x)
        assert row[c] > 0
        pivots.append(c)
        for above in h[: h.index(row)]:
            assert 0 <= above[c] < row[c]
    assert pivots == sorted(pivots)


@given(small_mat)
def test_hnf_membership(m):
    h = hnf_rows(m, 3)
    if len(h) < 3:
        return
    rng = random.Random(1)
    coeffs = [rng.randint(-5, 5) for _ in m]
    v = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(3)]
    assert hnf_solve(h, v) is not None
    det = h[0][0] * h[1][1] * h[2][2]
    # v + e0/ (nontrivial fraction of pivot) escapes the lattice
    if det > 1:
        w = list(v)
        w[0] += 1 if h[0][0] > 1 else 0
        w[1] += 1 if h[0][0] <= 1 < h[1][1] else 0
        w[2] += 1 if h[0][0] <= 1 and h[1][1] <= 1 and h[2][2] > 1 else 0
        if w != v:
            x = hnf_solve(h, w)
            assert x is None or [sum(map(mul, col, x)) for col in zip(*h)] == w


def test_inverse_over_a_denominator_matches_a_fraction_solve():
    # (mat / den)^-1 = A / m solves (mat / den) x = e_j column by column
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        den = rng.choice([1, 2, 6, 35])
        if mat_det(m) == 0:
            continue
        a, d = int_inverse(m, den)
        assert d > 0 and math.gcd(d, *(x for row in a for x in row)) == 1
        for j in range(n):
            col = fraction_solve([[Fraction(x, den) for x in row] for row in m],
                                 [int(i == j) for i in range(n)])
            assert col == [Fraction(row[j], d) for row in a]


def test_int_inverse_is_the_exact_inverse_in_lowest_terms():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) for _ in range(n)]
             for _ in range(n)]
        det = mat_det(m)
        # one elimination gives the determinant's sign and the inverse
        assert signed_inverse(m)[0] == (det > 0) - (det < 0)
        if det == 0:
            assert signed_inverse(m) == (0, None)
            with pytest.raises(ZeroDivisionError):
                int_inverse(m)
            continue
        a, d = int_inverse(m)
        assert signed_inverse(m)[1] == (a, d)
        assert d > 0 and math.gcd(d, *(x for row in a for x in row)) == 1
        assert all(type(x) is int for row in a for x in row)
        prod = [[sum(m[i][k] * a[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[d * (i == j) for j in range(n)] for i in range(n)]


def test_charpoly_det_trace():
    rng = random.Random(5)
    for _ in range(20):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        cp = charpoly(m)
        assert cp[3] == 1
        # det = (-1)^n * constant term; trace = -coefficient of x^(n-1)
        assert mat_det(m) == (-1) ** 3 * cp[0]
        assert sum(m[i][i] for i in range(3)) == -cp[2]


def test_charpoly_cayley_hamilton():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    cp = charpoly(m)           # x^2 - 5x - 2
    assert cp == (Fraction(-2), Fraction(-5), Fraction(1))
    m2 = [[sum(m[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    acc = [[m2[i][j] + cp[1] * m[i][j] + cp[0] * (i == j) for j in range(2)]
           for i in range(2)]
    assert acc == [[0, 0], [0, 0]]
