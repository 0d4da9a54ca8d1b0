"""Exact linear algebra: fraction-free elimination and integer HNF.

Matrices are lists of rows.  One fraction-free elimination over the
integers gives determinants and exact inverses as an integer matrix over
one denominator, and gcd-style row reduction gives Hermite normal forms.
"""

from __future__ import annotations

import math
from fractions import Fraction


def as_fraction(x) -> Fraction:
    """x as a Fraction; a Fraction is returned as it is, not rebuilt."""
    return x if type(x) is Fraction else Fraction(x)


def _eliminate(mat, inverse: bool = True):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968: exact divisions)
    of [d mat | I], d the common denominator of the int or Fraction entries:
    the rows [p I | p (d mat)^-1], p the last pivot, det(d mat) and d;
    without the inverse, of d mat alone and below each pivot only."""
    n = len(mat)
    d = math.lcm(*(x.denominator for row in mat for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row]
         + [int(i == j) for j in range(n) if inverse] for i, row in enumerate(mat)]
    prev = sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:                 # singular
            return None, 0, d
        if piv != c:
            a[c], a[piv], sign = a[piv], a[c], -sign
        pc = a[c]
        p = pc[c]
        for r in range(n) if inverse else range(c + 1, n):
            if r != c:
                f = a[r][c]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], pc)]
        prev = p
    return a, sign * prev, d


def mat_det(mat) -> Fraction:
    _, det, d = _eliminate(mat, False)
    return Fraction(det, d ** len(mat))


def signed_inverse(mat, den: int = 1):
    """(s, (A, m)) from one elimination: s the sign of det mat, and
    (mat / den)^-1 = A / m, A an integer matrix and m > 0 in lowest terms,
    for den > 0; (0, None) if mat is singular."""
    a, det, d = _eliminate(mat)
    if a is None:
        return 0, None
    n, p = len(mat), a[0][0]
    d *= den if p > 0 else -den
    inv = [[x * d for x in row[n:]] for row in a]
    g = math.gcd(p, *(x for row in inv for x in row))
    return (1 if det > 0 else -1), ([[x // g for x in row] for row in inv], abs(p) // g)


def int_inverse(mat, den: int = 1):
    """(A, m) as :func:`signed_inverse`; ZeroDivisionError if mat is
    singular."""
    s, inverse = signed_inverse(mat, den)
    if not s:
        raise ZeroDivisionError("singular matrix")
    return inverse


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def charpoly(mat):
    """Characteristic polynomial det(xI - M), coefficients low degree first,
    by the Faddeev-LeVerrier recursion (exact over Q)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]          # degree n down to 0, built high->low
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return tuple(reversed(coeffs))


# ---- integer matrices ----

def _row_sub(r1, r2, q):
    return [a - q * b for a, b in zip(r1, r2)]


def hnf_rows(gens, ncols=None):
    """Canonical row Hermite normal form of the lattice spanned by the given
    integer generator rows: echelon rows with positive pivots and entries
    above each pivot reduced into [0, pivot)."""
    rows = [list(g) for g in gens if any(g)]
    if ncols is None:
        ncols = len(gens[0])
    r0 = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r0, len(rows)) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = rows[i][c] // rows[i0][c]
                rows[i] = _row_sub(rows[i], rows[i0], q)
        nz = [i for i in range(r0, len(rows)) if rows[i][c] != 0]
        if not nz:
            continue
        rows[r0], rows[nz[0]] = rows[nz[0]], rows[r0]
        if rows[r0][c] < 0:
            rows[r0] = [-a for a in rows[r0]]
        for i in range(r0):
            q = rows[i][c] // rows[r0][c]
            if q:
                rows[i] = _row_sub(rows[i], rows[r0], q)
        r0 += 1
    return [tuple(r) for r in rows[:r0] if any(r)]


def hnf_solve(hrows, v):
    """Integer coordinates of v in the row-HNF basis, or None."""
    v = list(v)
    coords = []
    pivots = []
    for row in hrows:
        c = next(i for i, x in enumerate(row) if x != 0)
        pivots.append(c)
    for row, c in zip(hrows, pivots):
        if v[c] % row[c] != 0:
            return None
        q = v[c] // row[c]
        coords.append(q)
        if q:
            v = _row_sub(v, row, q)
    if any(v):
        return None
    return coords
