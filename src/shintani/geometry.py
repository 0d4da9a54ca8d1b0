"""Projection to the hyperplane slice, cone and barycentric coordinates, and
the piercing predicates.

Sign decisions follow one rule everywhere: exact rational arithmetic when the
inputs are field-rational (a FieldElement, or exact rational vertices), and
adaptive interval refinement on the dyadic ladder otherwise.  A refinement
that reaches the cap ends in UndecidableSign, or in PrecisionCapExceeded for
a quantity known to be nonzero; nothing is ever decided by tolerance.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import DEFAULT_PREC_CAP, Iv, Ladder, adaptive_sign, iv_det
from .errors import (
    DegenerateSimplex,
    DependentBasis,
    LastCoordinateZero,
    YNotInSimplex,
)
from .exactlinalg import mat_det, mat_rank, mat_solve
from .field import FieldElement, NumberField


class IvVec:
    """Adaptive interval vector: ``at(prec)`` returns enclosures that shrink
    as prec grows.  ``exact`` carries the rational value when there is one."""

    __slots__ = ("_fn", "exact")

    def __init__(self, fn, exact=None):
        self._fn = fn
        self.exact = exact

    def at(self, prec: int):
        return self._fn(prec)

    @staticmethod
    def wrap(x, field: NumberField | None = None) -> "IvVec":
        if isinstance(x, IvVec):
            return x
        if isinstance(x, FieldElement):
            return IvVec(lambda p: x.field.embed_iv(x, p))
        seq = tuple(Fraction(c) for c in x)
        return IvVec(lambda p: [Iv.from_fraction(c, p) for c in seq], exact=seq)


def project_ell(x):
    """l(x) = (x_1/x_n, ..., x_{n-1}/x_n).

    Exact rational vectors map to exact rational vectors; everything else
    maps to an adaptive vector whose last coordinate is certified nonzero on
    first evaluation, refining up to the field's cap (UndecidableSign there).
    """
    if isinstance(x, (list, tuple)):
        seq = tuple(Fraction(c) for c in x)
        if seq[-1] == 0:
            raise LastCoordinateZero("projection needs x_n != 0")
        return tuple(c / seq[-1] for c in seq[:-1])
    vv = IvVec.wrap(x)
    cap = x.field.prec_cap if isinstance(x, FieldElement) else DEFAULT_PREC_CAP

    def fn(prec):
        for p in Ladder(cap, "last coordinate sign", zero_possible=True, start=prec):
            ivs = vv.at(p)
            s = ivs[-1].sign()
            if s == 0:
                raise LastCoordinateZero("projection needs x_n != 0")
            if s is not None:
                return [iv.div(ivs[-1], prec) for iv in ivs[:-1]]

    return IvVec(fn)


class ConeCoordinates:
    """Coefficients of a vector in a basis f_1..f_n, with certified signs."""

    __slots__ = ("signs", "values", "exact")

    def __init__(self, signs, values, exact):
        self.signs = tuple(signs)
        self.values = tuple(values)
        self.exact = exact


def _basis_matrix(basis, field: NumberField):
    m = [[Fraction(b.coeffs[i]) for b in basis] for i in range(field.degree)]
    if mat_rank(m) != field.degree:
        raise DependentBasis("basis elements are Q-linearly dependent")
    return m


def _embedded_basis_rows(basis, field, prec):
    embs = [field.embed_iv(b, prec) for b in basis]
    n = field.degree
    return [[embs[i][j] for i in range(n)] for j in range(n)]


def _replaced_det(rows, col, i):
    """det(rows) with column i replaced by col."""
    rep = [row[:] for row in rows]
    for j, c in enumerate(col):
        rep[j][i] = c
    return iv_det(rep)


def _certified_cramer(rows_at, col_at, cap, zero_possible, what):
    """Cramer's rule on interval matrices: the certified sign of each
    det(rows with column i -> col), and their quotients by det(rows), which
    the caller knows to be nonzero.  One ladder climbs until every sign and
    the denominator are certified; a sign missing at the cap raises per
    ``zero_possible``, the denominator PrecisionCapExceeded."""
    signs: dict[int, int] = {}
    steps = Ladder(cap, f"{what} sign", zero_possible)
    for prec in steps:
        rows = rows_at(prec)
        col = col_at(prec)
        for i in range(len(rows)):
            if i not in signs:
                s = _replaced_det(rows, col, i).sign()
                if s is not None:
                    signs[i] = s
        if len(signs) == len(rows):
            det = iv_det(rows)
            if det.sign() is not None:
                break
            steps.what, steps.zero_possible = f"{what} determinant", False
    values = tuple(_replaced_det(rows, col, i).div(det, prec) for i in range(len(rows)))
    return [signs[i] for i in range(len(rows))], values


def cone_coordinates(v, basis, field: NumberField, zero_possible: bool = True) -> ConeCoordinates:
    """Solve v = sum_i c_i f_i with certified coefficient signs.

    The sign of det(embedded basis) is exact: it equals the Vandermonde sign
    of the embedding order times the sign of the rational coordinate
    determinant.  Each replaced determinant is certified adaptively (or
    exactly, for field-rational v).  Pass ``zero_possible=False`` when a
    vanishing coefficient is ruled out (e.g. v = e_n), so hitting the cap
    raises PrecisionCapExceeded rather than UndecidableSign.  The embedded
    basis determinant is nonzero, so failing to certify it at the cap raises
    PrecisionCapExceeded.
    """
    basis = list(basis)
    m = _basis_matrix(basis, field)
    if isinstance(v, FieldElement):
        c = mat_solve(m, list(v.coeffs))
        signs = tuple((x > 0) - (x < 0) for x in c)
        return ConeCoordinates(signs, tuple(c), True)

    det_sign = field.vandermonde_sign * (1 if mat_det(m) > 0 else -1)
    signs, values = _certified_cramer(
        lambda p: _embedded_basis_rows(basis, field, p), IvVec.wrap(v).at,
        field.prec_cap, zero_possible, "cone coordinate")
    return ConeCoordinates(tuple(s * det_sign for s in signs), values, False)


class Simplex:
    """n vertices in (n-1)-space with an affine-independence certificate
    (the certified sign of the lifted determinant)."""

    __slots__ = ("vertices", "_rows_fn", "det_sign", "exact")

    def __init__(self, vertices=None, rows_fn=None, known_sign=None,
                 cap: int = DEFAULT_PREC_CAP):
        if vertices is not None:
            self.vertices = tuple(tuple(Fraction(c) for c in vtx) for vtx in vertices)
            self.exact = True
            self._rows_fn = None
            d = mat_det(self._lift_exact())
            if d == 0:
                raise DegenerateSimplex("vertices affinely dependent")
            self.det_sign = 1 if d > 0 else -1
        else:
            self.vertices = None
            self.exact = False
            self._rows_fn = rows_fn
            if known_sign is not None:
                self.det_sign = known_sign
            else:
                self.det_sign = adaptive_sign(
                    lambda p: iv_det(self._lift_rows(p)), cap=cap,
                    zero_possible=True, what="simplex determinant")
                if self.det_sign == 0:
                    raise DegenerateSimplex("vertices affinely dependent")

    def _lift_exact(self):
        r = len(self.vertices) - 1
        rows = [[self.vertices[j][i] for j in range(r + 1)] for i in range(r)]
        rows.append([Fraction(1)] * (r + 1))
        return rows

    def _lift_rows(self, prec):
        """Rows of the (r+1)x(r+1) lifted matrix, columns = (vertex, 1)."""
        if self.exact:
            return [[Iv.from_fraction(c, prec) for c in row] for row in self._lift_exact()]
        cols = self._rows_fn(prec)       # list of vertices, each a list of Iv
        r = len(cols) - 1
        rows = [[cols[j][i] for j in range(r + 1)] for i in range(r)]
        rows.append([Iv.ONE] * (r + 1))
        return rows


class BaryCoordinates:
    __slots__ = ("signs", "values", "exact")

    def __init__(self, signs, values, exact):
        self.signs = tuple(signs)
        self.values = tuple(values)
        self.exact = exact


def barycentric(p, simplex: Simplex, cap: int = DEFAULT_PREC_CAP) -> BaryCoordinates:
    """Coefficients b with sum(b) = 1 and sum(b_i * vertex_i) = p."""
    if simplex.exact and isinstance(p, (list, tuple)):
        pt = [Fraction(c) for c in p]
        try:
            b = mat_solve(simplex._lift_exact(), pt + [Fraction(1)])
        except ZeroDivisionError:
            raise DegenerateSimplex("vertices affinely dependent")
        signs = tuple((x > 0) - (x < 0) for x in b)
        return BaryCoordinates(signs, tuple(b), True)

    pv = IvVec.wrap(p)
    signs, values = _certified_cramer(
        simplex._lift_rows, lambda prec: list(pv.at(prec)) + [Iv.ONE],
        cap, True, "barycentric coordinate")
    return BaryCoordinates(tuple(s * simplex.det_sign for s in signs), values, False)


def face_span_det_sign(simplex: Simplex, i: int, point, cap: int = DEFAULT_PREC_CAP) -> int:
    """Certified sign of the lifted determinant with vertex i replaced by the
    point; nonzero iff the point avoids the affine span of the other
    vertices."""
    if simplex.exact and isinstance(point, (list, tuple)):
        rows = simplex._lift_exact()
        col = [Fraction(c) for c in point] + [Fraction(1)]
        for j in range(len(rows)):
            rows[j][i] = col[j]
        d = mat_det(rows)
        return (d > 0) - (d < 0)
    pv = IvVec.wrap(point)

    def ev(prec):
        rows = simplex._lift_rows(prec)
        col = list(pv.at(prec)) + [Iv.ONE]
        for j in range(len(rows)):
            rows[j][i] = col[j]
        return iv_det(rows)

    return adaptive_sign(ev, cap=cap, zero_possible=True, what="face-span det")


def pierces_simplex(x, y, simplex: Simplex) -> bool:
    """True iff the segment from x to y in the simplex meets its interior:
    b_i(x) > 0 wherever b_i(y) = 0."""
    by = barycentric(y, simplex)
    if any(s < 0 for s in by.signs):
        raise YNotInSimplex("final point outside the closed simplex")
    zero_idx = [i for i, s in enumerate(by.signs) if s == 0]
    if not zero_idx:
        return True                      # y interior: every segment pierces
    bx = barycentric(x, simplex)
    return all(bx.signs[i] > 0 for i in zero_idx)


def pierces_cone(x, y, basis, field: NumberField) -> bool:
    """Cone version: coordinates of x must be > 0 wherever y's vanish."""
    cy = cone_coordinates(y, basis, field)
    if any(s < 0 for s in cy.signs):
        raise YNotInSimplex("final point outside the closed cone")
    zero_idx = [i for i, s in enumerate(cy.signs) if s == 0]
    if not zero_idx:
        return True
    cx = cone_coordinates(x, basis, field)
    return all(cx.signs[i] > 0 for i in zero_idx)
