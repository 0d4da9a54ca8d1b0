"""Projection to the hyperplane slice, cone and barycentric coordinates, and
the piercing predicates.

Sign decisions follow one rule everywhere: exact rational arithmetic when the
inputs are field-rational (a FieldElement, or exact rational vertices), and
adaptive interval refinement on the dyadic ladder otherwise.  A refinement
that reaches the cap ends in UndecidableSign, or in PrecisionCapExceeded for
a quantity known to be nonzero; nothing is ever decided by tolerance.

Every interval coordinate goes through one Cramer core, :class:`CramerMap`:
the adjugate of its matrix is computed once per precision
(:func:`~shintani.dyadic.iv_adjugate`), so each numerator is an n-term dot
product.  A basis of field elements has one map, cached on its field
(:func:`basis_map`) and shared by cone_coordinates, the cones' membership
tests and the piercing predicates; a simplex owns the map of its lifted
vertex matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import DEFAULT_PREC_CAP, Iv, Ladder, adaptive_sign, iv_adjugate
from .errors import (
    DegenerateSimplex,
    DependentBasis,
    LastCoordinateZero,
    YNotInSimplex,
)
from .exactlinalg import as_fraction, mat_det, mat_solve
from .field import FieldElement, NumberField


class IvVec:
    """Adaptive interval vector: ``at(prec)`` returns enclosures that shrink
    as prec grows."""

    __slots__ = ("_fn",)

    def __init__(self, fn):
        self._fn = fn

    def at(self, prec: int):
        return self._fn(prec)

    @staticmethod
    def wrap(x) -> "IvVec":
        if isinstance(x, IvVec):
            return x
        if isinstance(x, FieldElement):
            return IvVec(lambda p: x.field.embed_iv(x, p))
        seq = tuple(map(as_fraction, x))
        return IvVec(lambda p: [Iv.from_fraction(c, p) for c in seq])


def project_ell(x):
    """l(x) = (x_1/x_n, ..., x_{n-1}/x_n).

    Exact rational vectors map to exact rational vectors; everything else
    maps to an adaptive vector whose last coordinate is certified nonzero on
    first evaluation, refining up to the field's cap (UndecidableSign there).
    """
    if isinstance(x, (list, tuple)):
        seq = tuple(map(as_fraction, x))
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


class Coordinates:
    """Coefficients of a vector in a basis (cone or barycentric), with
    certified signs.  Interval values come as a thunk and are formed on
    first access: most callers read the signs alone."""

    __slots__ = ("signs", "_values", "exact")

    def __init__(self, signs, values, exact):
        self.signs = tuple(signs)
        self._values = values
        self.exact = exact

    @property
    def values(self) -> tuple:
        if callable(self._values):
            self._values = self._values()
        return self._values


def _coeff_matrix(basis, field: NumberField):
    """Columns = the basis elements in power coordinates."""
    return [[b.coeffs[i] for b in basis] for i in range(field.degree)]


def basis_det_sign(basis, field: NumberField) -> int:
    """Exact sign of det of the embedded basis matrix, 0 for a dependent
    basis: the embedding matrix factors through the root Vandermonde
    (positive for the ascending order), so the sign is the rational
    coordinate determinant's sign times the order's parity."""
    d = mat_det(_coeff_matrix(basis, field))
    return 0 if d == 0 else field.vandermonde_sign * (1 if d > 0 else -1)


class CramerMap:
    """Cramer's rule on an adaptive interval matrix ``rows_at(prec)``, with
    its adjugate cached per precision: each numerator det(rows with column
    i -> v) is one dot product with a cofactor column.  ``det_sign`` is the
    known sign of det(rows); the coordinates solve() returns carry it."""

    __slots__ = ("_rows_at", "_adj", "det_sign")

    def __init__(self, rows_at, det_sign: int | None = None):
        self._rows_at = rows_at
        self._adj: dict[int, tuple] = {}
        self.det_sign = det_sign

    def adjugate(self, prec: int):
        """(cof, det) of the rows at prec, as :func:`iv_adjugate`."""
        adj = self._adj.get(prec)
        if adj is None:
            adj = self._adj[prec] = iv_adjugate(self._rows_at(prec))
        return adj

    def numerator(self, v, i: int, prec: int) -> Iv:
        """det(rows with column i -> v) at prec."""
        cof = self.adjugate(prec)[0]
        acc = v[0] * cof[0][i]
        for j in range(1, len(v)):
            acc = acc + v[j] * cof[j][i]
        return acc

    def solve(self, col_at, cap: int, zero_possible: bool, what: str):
        """The certified sign of every coordinate of ``col_at`` in the
        columns, and a thunk of the coordinates numerator / det.  One ladder
        climbs until every sign and the denominator are certified; a sign
        missing at the cap raises per ``zero_possible``, the denominator
        (known to be nonzero) PrecisionCapExceeded."""
        signs: dict[int, int] = {}
        steps = Ladder(cap, f"{what} sign", zero_possible)
        for prec in steps:
            col = col_at(prec)
            for i in range(len(col)):
                if i not in signs:
                    s = self.numerator(col, i, prec).sign()
                    if s is not None:
                        signs[i] = s * self.det_sign
            if len(signs) == len(col):
                det = self.adjugate(prec)[1]
                if det.sign() is not None:
                    break
                steps.what, steps.zero_possible = f"{what} determinant", False
        return (tuple(signs[i] for i in range(len(col))),
                lambda: tuple(self.numerator(col, i, prec).div(det, prec)
                              for i in range(len(col))))


def basis_map(basis, field: NumberField) -> CramerMap:
    """The coordinate map of a basis of field elements, cached on the field
    by the basis coefficients (DependentBasis for a dependent basis)."""
    key = tuple(b.coeffs for b in basis)
    cmap = field._cramer_cache.get(key)
    if cmap is None:
        sign = basis_det_sign(basis, field)
        if sign == 0:
            raise DependentBasis("basis elements are Q-linearly dependent")
        basis = tuple(basis)

        def rows_at(prec):             # row j = embedding j of every f_i
            return [list(row) for row in zip(*(field.embed_iv(b, prec) for b in basis))]

        cmap = CramerMap(rows_at, sign)
        if len(field._cramer_cache) > 8192:
            field._cramer_cache.clear()
        field._cramer_cache[key] = cmap
    return cmap


def cone_coordinates(v, basis, field: NumberField, zero_possible: bool = True) -> Coordinates:
    """Solve v = sum_i c_i f_i with certified coefficient signs.

    The sign of det(embedded basis) is exact (:func:`basis_det_sign`).  Each
    numerator is certified adaptively through the basis's cached
    :class:`CramerMap` (or exactly, for field-rational v).  Pass
    ``zero_possible=False`` when a vanishing coefficient is ruled out (e.g.
    v = e_n), so hitting the cap raises PrecisionCapExceeded rather than
    UndecidableSign.  The embedded basis determinant is nonzero, so failing
    to certify it at the cap raises PrecisionCapExceeded.
    """
    basis = list(basis)
    cmap = basis_map(basis, field)
    if isinstance(v, FieldElement):
        c = mat_solve(_coeff_matrix(basis, field), list(v.coeffs))
        signs = tuple((x > 0) - (x < 0) for x in c)
        return Coordinates(signs, tuple(c), True)
    signs, values = cmap.solve(IvVec.wrap(v).at, field.prec_cap, zero_possible,
                               "cone coordinate")
    return Coordinates(signs, values, False)


class Simplex:
    """n vertices in (n-1)-space with an affine-independence certificate
    (the certified sign of the lifted determinant).  Its own
    :class:`CramerMap` of the lifted rows decides every sign."""

    __slots__ = ("vertices", "_rows_fn", "det_sign", "exact", "_map")

    def __init__(self, vertices=None, rows_fn=None, known_sign=None,
                 cap: int = DEFAULT_PREC_CAP):
        self._map = CramerMap(self._lift_rows)
        if vertices is not None:
            self.vertices = tuple(tuple(Fraction(c) for c in vtx) for vtx in vertices)
            self.exact = True
            self._rows_fn = None
            d = mat_det(self._lift_exact())
            if d == 0:
                raise DegenerateSimplex("vertices affinely dependent")
            known_sign = 1 if d > 0 else -1
        else:
            self.vertices = None
            self.exact = False
            self._rows_fn = rows_fn
            if known_sign is None:
                known_sign = adaptive_sign(
                    lambda p: self._map.adjugate(p)[1], cap=cap,
                    zero_possible=True, what="simplex determinant")
                if known_sign == 0:
                    raise DegenerateSimplex("vertices affinely dependent")
        self.det_sign = self._map.det_sign = known_sign

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


def _lifted(point):
    """The adaptive lifted column (point, 1)."""
    pv = IvVec.wrap(point)
    return lambda prec: list(pv.at(prec)) + [Iv.ONE]


def barycentric(p, simplex: Simplex, cap: int = DEFAULT_PREC_CAP) -> Coordinates:
    """Coefficients b with sum(b) = 1 and sum(b_i * vertex_i) = p."""
    if simplex.exact and isinstance(p, (list, tuple)):
        pt = [Fraction(c) for c in p]
        try:
            b = mat_solve(simplex._lift_exact(), pt + [Fraction(1)])
        except ZeroDivisionError:
            raise DegenerateSimplex("vertices affinely dependent")
        signs = tuple((x > 0) - (x < 0) for x in b)
        return Coordinates(signs, tuple(b), True)
    signs, values = simplex._map.solve(_lifted(p), cap, True, "barycentric coordinate")
    return Coordinates(signs, values, False)


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
    col_at = _lifted(point)
    return adaptive_sign(lambda prec: simplex._map.numerator(col_at(prec), i, prec),
                         cap=cap, zero_possible=True, what="face-span det")


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
