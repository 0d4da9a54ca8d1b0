"""Integer polynomial utilities: Sturm sequences and certified real-root
isolation with refinable dyadic intervals.

Isolation bisects (-B, B) at dyadic points, and so does every later
refinement.  A bisection point that is a root of f is a rational root, so f
is reducible there: it raises ValueError naming the root.  A number field
rules out every rational factor of its polynomial when it is built (the
Kronecker test of field.py), after which no bisection can land on a root.
"""

from __future__ import annotations

from fractions import Fraction


def poly_degree(f) -> int:
    d = len(f) - 1
    while d >= 0 and f[d] == 0:
        d -= 1
    return d


def poly_trim(f):
    d = poly_degree(f)
    return tuple(f[: d + 1])


def poly_derivative(f):
    return tuple(i * c for i, c in enumerate(f))[1:] or (0,)


def poly_sign_at(f, x: Fraction) -> int:
    """Exact sign of f(x) at a rational point (integer arithmetic)."""
    p, q = x.numerator, x.denominator
    n = len(f) - 1
    acc = 0
    for i in range(n, -1, -1):
        acc = acc * p + f[i] * q ** (n - i)
    return (acc > 0) - (acc < 0)


def _poly_rem(a, b):
    """Remainder of a by b over Q (b nonzero)."""
    a = list(a)
    db = poly_degree(b)
    lead = Fraction(b[db])
    while poly_degree(a) >= db:
        da = poly_degree(a)
        coef = Fraction(a[da]) / lead
        for i in range(db + 1):
            a[da - db + i] -= coef * b[i]
        a[da] = 0
    return poly_trim(a)


def poly_gcd_is_constant(f, g) -> bool:
    """True iff gcd(f, g) over Q is a nonzero constant."""
    a, b = poly_trim(f), poly_trim(g)
    while poly_degree(b) > 0:
        a, b = b, _poly_rem(a, b)
    return poly_degree(b) == 0 and b[0] != 0


def is_squarefree(f) -> bool:
    return poly_gcd_is_constant(f, poly_derivative(f))


def sturm_chain(f):
    chain = [poly_trim(tuple(Fraction(c) for c in f))]
    d = poly_derivative(chain[0])
    if poly_degree(d) >= 0 and any(d):
        chain.append(poly_trim(d))
        while poly_degree(chain[-1]) > 0:
            r = _poly_rem(chain[-2], chain[-1])
            if poly_degree(r) < 0 or not any(r):
                break
            chain.append(tuple(-c for c in r))
    return chain


def _variations(signs) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def sturm_count(chain, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]."""
    va = _variations([poly_sign_at(p, a) for p in chain])
    vb = _variations([poly_sign_at(p, b) for p in chain])
    return va - vb


def root_bound(f) -> int:
    """Cauchy-type bound: all real roots of monic f lie strictly inside (-B, B)."""
    return 2 + max(abs(c) for c in f[:-1])


def _bisect(f, a: Fraction, b: Fraction) -> tuple[Fraction, int]:
    """The midpoint of (a, b) and the sign of f there, which must not be 0."""
    mid = (a + b) / 2
    sign = poly_sign_at(f, mid)
    if sign == 0:
        raise ValueError(f"the polynomial has the rational root {mid}")
    return mid, sign


class RootInterval:
    """One isolated real root: a dyadic open interval (lo, hi) with
    sign(poly(lo)) = -sign(poly(hi)) != 0.  lo only ever moves to a point of
    the same sign, so that sign is evaluated once."""

    __slots__ = ("lo", "hi", "poly", "lo_sign")

    def __init__(self, lo: Fraction, hi: Fraction, poly):
        self.lo = lo
        self.hi = hi
        self.poly = poly
        self.lo_sign = poly_sign_at(poly, lo)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self) -> None:
        """One bisection step; the root stays strictly inside."""
        mid, sign = _bisect(self.poly, self.lo, self.hi)
        if sign == self.lo_sign:
            self.lo = mid
        else:
            self.hi = mid

    def refine_below(self, width: Fraction) -> None:
        while self.width() > width:
            self.refine()

    def __repr__(self):
        return f"RootInterval({float(self.lo):.6g}, {float(self.hi):.6g})"


def isolate_real_roots(f) -> list[RootInterval]:
    """Isolating intervals for all distinct real roots of squarefree monic f,
    sorted ascending and pairwise disjoint (the pieces of one bisection of
    (-B, B])."""
    f = tuple(f)
    chain = sturm_chain(f)
    B = Fraction(root_bound(f))
    out = []
    stack = [(-B, B, sturm_count(chain, -B, B))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(RootInterval(a, b, f))
            continue
        mid, _ = _bisect(f, a, b)
        cl = sturm_count(chain, a, mid)
        stack.append((a, mid, cl))
        stack.append((mid, b, cnt - cl))
    out.sort(key=lambda r: r.lo)
    return out


def count_real_roots(f) -> int:
    B = Fraction(root_bound(f))
    return sturm_count(sturm_chain(f), -B, B)


def poly_discriminant(poly):
    """Discriminant of an integer polynomial via the Sylvester resultant."""
    from .exactlinalg import mat_det

    n = len(poly) - 1
    dpoly = [i * poly[i] for i in range(1, n + 1)]
    m = 2 * n - 1
    rows = []
    for i in range(n - 1):
        rows.append([0] * i + list(reversed(poly)) + [0] * (m - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + list(reversed(dpoly)) + [0] * (m - n - i))
    res = mat_det([[Fraction(x) for x in row] for row in rows])
    sign = (-1) ** (n * (n - 1) // 2)
    return int(sign * res / poly[-1])
