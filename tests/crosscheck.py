"""The projected-simplex membership route: an independent cross-check of
cone membership (acceptance criterion 4), kept out of the package.

A point x of R^n with x_n > 0 projects to l(x) = (x_1/x_n, ..., x_{n-1}/x_n)
on the hyperplane slice, and the cone on f_1, ..., f_n to the simplex on
the l(f_i).  x lies in the half-open cone iff the barycentric coordinates of
l(x) pass the cone's flags, vertex by vertex.  Signs are decided exactly for
rational vertices and points, and otherwise on the dyadic ladder by a
``CramerMap`` of the simplex's own lifted vertex matrix (columns
(vertex, 1)), whose determinant sign is certified first; so the route
shares no matrix with the cones.  The piercing predicates characterise
half-open membership once more: the segment from x to y meets the interior
iff the coordinates of x are > 0 wherever those of y vanish.
"""

import functools
from fractions import Fraction

from shintani.domain import FLAG_CLOSED
from shintani.dyadic import DEFAULT_PREC_CAP, Iv, Ladder, iv_det
from shintani.errors import InputError
from shintani.exactlinalg import as_fraction, mat_det
from shintani.field import FieldElement
from shintani.geometry import CramerMap, adaptive_vector, coordinates


def fraction_solve(mat, rhs):
    """x with mat x = rhs by Gauss-Jordan elimination in Fractions, the
    test side's reference solve (ZeroDivisionError if mat is singular)."""
    n = len(mat)
    a = [[*map(Fraction, row), Fraction(r)] for row, r in zip(mat, rhs)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            f = a[r][c]
            if r != c and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n] for row in a]


class LastCoordinateZero(InputError):
    """l(x) needs x_n != 0."""


class DegenerateSimplex(InputError):
    """The vertices of a simplex are affinely dependent."""


class YNotInSimplex(InputError):
    """A piercing segment ends outside the closed simplex or cone."""


def project_ell(x):
    """l(x): exact for a rational sequence; for a field element an adaptive
    vector whose last coordinate is certified nonzero on first evaluation,
    refining up to the field's cap (UndecidableSign there)."""
    if not isinstance(x, FieldElement):
        seq = tuple(map(as_fraction, x))
        if seq[-1] == 0:
            raise LastCoordinateZero("projection needs x_n != 0")
        return tuple(c / seq[-1] for c in seq[:-1])
    field = x.field

    def fn(prec):
        for p in Ladder(field.prec_cap, "last coordinate sign", zero_possible=True, start=prec):
            ivs = field.embed_iv(x, p)
            s = ivs[-1].sign()
            if s == 0:
                raise LastCoordinateZero("projection needs x_n != 0")
            if s is not None:
                return [iv.div(ivs[-1], prec) for iv in ivs[:-1]]

    return fn


def _ladder_sign(evaluate, cap: int, what: str) -> int:
    """The certified sign of the enclosures evaluate(prec) on the dyadic
    ladder; UndecidableSign at the cap, as the quantity may be exactly 0."""
    for prec in Ladder(cap, what, zero_possible=True):
        s = evaluate(prec).sign()
        if s is not None:
            return s


def _lift(vertices, one):
    """The rows of the lifted matrix, whose columns are (vertex, 1)."""
    return [list(row) for row in zip(*vertices)] + [[one] * len(vertices)]


class Simplex:
    """n vertices in (n-1)-space.  Rational vertices give the lifted matrix
    ``exact``, which decides every sign exactly.  Otherwise the vertices are
    adaptive (a vertex may be a callable ``prec -> list of Iv``), the lifted
    determinant is certified nonzero up to ``cap``, and the CramerMap
    ``map`` of the lifted matrix decides the signs."""

    def __init__(self, vertices, cap: int = DEFAULT_PREC_CAP):
        self.exact = None
        if not any(map(callable, vertices)):
            self.exact = _lift([[Fraction(c) for c in v] for v in vertices], Fraction(1))
            sign = mat_det(self.exact)
        else:
            verts = list(map(adaptive_vector, vertices))
            rows_at = lambda prec: _lift([v(prec) for v in verts], Iv.ONE)
            sign = _ladder_sign(lambda prec: iv_det(rows_at(prec)), cap, "simplex determinant")
            self.map = CramerMap(rows_at, sign)
            n = len(verts)
            self.identity = [[int(i == j) for j in range(n)] for i in range(n)]
        if sign == 0:
            raise DegenerateSimplex("vertices affinely dependent")


def barycentric(p, simplex: Simplex, cap: int = DEFAULT_PREC_CAP) -> tuple:
    """The certified signs of the b with sum(b) = 1 and
    sum(b_i * vertex_i) = p (p rational when the simplex is)."""
    if simplex.exact is not None:
        b = fraction_solve(simplex.exact, [*map(Fraction, p), Fraction(1)])
        return tuple((x > 0) - (x < 0) for x in b)
    pv = adaptive_vector(p)
    return simplex.map.solve(lambda prec: [*pv(prec), Iv.ONE], simplex.identity, cap, True,
                             "barycentric coordinate")


def _pierces(coords, x, y, what: str) -> bool:
    """True iff the segment from x to y meets the interior: the coordinates
    of x are > 0 wherever those of y vanish."""
    cy = coords(y)
    if any(s < 0 for s in cy):
        raise YNotInSimplex(f"final point outside the closed {what}")
    zeros = [i for i, s in enumerate(cy) if s == 0]
    if not zeros:
        return True                      # y interior: every segment pierces
    cx = coords(x)
    return all(cx[i] > 0 for i in zeros)


def pierces_simplex(x, y, simplex: Simplex) -> bool:
    """The segment from x to y meets the simplex's interior."""
    return _pierces(lambda p: barycentric(p, simplex), x, y, "simplex")


def pierces_cone(x, y, inverse, field) -> bool:
    """The segment from x to y meets the interior of the cone whose
    generators have the exact inverse ``inverse`` = (A, m)."""
    return _pierces(lambda p: coordinates(p, inverse, field), x, y, "cone")


@functools.cache
def projected_simplex(cone) -> Simplex:
    """The simplex on the projected generators l(f_i), one per cone."""
    return Simplex([project_ell(g) for g in cone.generators], cone.field.prec_cap)


def cone_contains_via_simplex(cone, x) -> bool:
    """Membership of x in the half-open cone by the barycentric signs of
    l(x), each read with its vertex's flag.  l(x) = l(-x), so a point with
    x_n <= 0 is answered outside first: every point of the cone is
    strictly positive."""
    field = cone.field
    if isinstance(x, FieldElement):
        last = _ladder_sign(lambda prec: field.embed_iv(x, prec)[-1], field.prec_cap,
                            "last coordinate")
    else:
        last = as_fraction(x[-1])
    if last <= 0:
        return False
    signs = barycentric(project_ell(x), projected_simplex(cone), field.prec_cap)
    return all(s > 0 or (s == 0 and flag == FLAG_CLOSED) for s, flag in zip(signs, cone.flags))
