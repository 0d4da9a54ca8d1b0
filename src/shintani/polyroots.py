"""Integer polynomial utilities: Sturm sequences and certified real-root
isolation with refinable dyadic intervals.

Monic integer polynomials only ever have integer rational roots, so those
are split off first; the remaining bisection never lands exactly on a root,
which keeps the isolation loop free of special cases.
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


def _integer_roots(f):
    """Integer roots of a monic integer polynomial, with f divided out."""
    f = list(f)
    roots = []
    while f[0] == 0 and len(f) > 1:
        roots.append(0)
        f = f[1:]
    c0 = abs(f[0])
    divisors = {d for d in range(1, int(c0 ** 0.5) + 2) if c0 % d == 0}
    divisors |= {c0 // d for d in divisors}
    cands = sorted({s * d for d in divisors for s in (1, -1)})
    for r in cands:
        while len(f) > 1 and poly_sign_at(tuple(f), Fraction(r)) == 0:
            # synthetic division by (x - r), exact over Z for monic f
            out = [0] * (len(f) - 1)
            acc = f[-1]
            for i in range(len(f) - 2, -1, -1):
                out[i] = acc
                acc = acc * r + f[i]
            assert acc == 0
            f = out
            roots.append(r)
    return sorted(set(roots)), tuple(f)


class RootInterval:
    """One isolated real root: either an exact rational point or a dyadic
    open interval (lo, hi) with sign(poly(lo)) = -sign(poly(hi)) != 0."""

    __slots__ = ("lo", "hi", "exact", "poly")

    def __init__(self, lo: Fraction, hi: Fraction, exact: bool, poly=None):
        self.lo = lo
        self.hi = hi
        self.exact = exact
        self.poly = poly

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self) -> None:
        """One bisection step; the root stays strictly inside."""
        if self.exact:
            return
        mid = (self.lo + self.hi) / 2
        # poly has no rational roots here, so the sign is never 0
        if poly_sign_at(self.poly, mid) == poly_sign_at(self.poly, self.lo):
            self.lo = mid
        else:
            self.hi = mid

    def refine_below(self, width: Fraction) -> None:
        while not self.exact and self.width() > width:
            self.refine()

    def __repr__(self):
        return f"RootInterval({float(self.lo):.6g}, {float(self.hi):.6g})"


def isolate_real_roots(f) -> list[RootInterval]:
    """Isolating intervals for all distinct real roots of squarefree monic f,
    sorted ascending and pairwise disjoint."""
    int_roots, g = _integer_roots(f)
    out = [RootInterval(Fraction(r), Fraction(r), True) for r in int_roots]
    if poly_degree(g) > 0:
        chain = sturm_chain(g)
        B = Fraction(root_bound(g))
        stack = [(-B, B, sturm_count(chain, -B, B))]
        while stack:
            a, b, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                out.append(RootInterval(a, b, False, g))
                continue
            mid = (a + b) / 2
            cl = sturm_count(chain, a, mid)
            stack.append((a, mid, cl))
            stack.append((mid, b, cnt - cl))
    # shrink until intervals are pairwise disjoint (also from the exact
    # points), so later refinement can never cross a neighbour
    changed = True
    while changed:
        changed = False
        out.sort(key=lambda r: (r.lo, r.hi))
        for r1, r2 in zip(out, out[1:]):
            if r1.hi > r2.lo:
                for r in (r1, r2):
                    if not r.exact:
                        r.refine()
                        changed = True
    return out


def count_real_roots(f) -> int:
    int_roots, g = _integer_roots(f)
    n = len(int_roots)
    if poly_degree(g) > 0:
        chain = sturm_chain(g)
        B = Fraction(root_bound(g))
        n += sturm_count(chain, -B, B)
    return n


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
