"""Projection to the hyperplane slice, cone and barycentric coordinates, and
the piercing predicates.

Coordinates are returned as their certified signs, which is all that cone
membership, the flags and piercing read.  Sign decisions follow one rule
everywhere: exact rational arithmetic when the inputs are field-rational (a
FieldElement, or exact rational vertices), and adaptive interval refinement
on the dyadic ladder otherwise.  A refinement that reaches the cap ends in
UndecidableSign, or in PrecisionCapExceeded for a quantity known to be
nonzero; nothing is ever decided by tolerance.  An adaptive vector is a
plain callable ``prec -> list of Iv`` whose enclosures shrink as prec grows
(:func:`adaptive_vector`).

The embedded matrix of a basis of field elements factors as V C, V the
conjugates of the power basis (one per field), C the rational coefficients.
So cone coordinates are C^-1 y: C^-1 = A / m is exact (:func:`basis_inverse`),
y = V^-1 v is the coefficient vector of a field element, and otherwise comes
from the field's one :class:`CramerMap` (:func:`field_map`), whose adjugate is
computed once per precision.  The denominators m and det V have known signs,
so a coordinate's sign is that of its numerator.  :func:`coordinates` is the
one routine that forms them: the cone flags, cone membership,
:func:`cone_coordinates` and :func:`pierces_cone` all read their signs from
it.  A simplex owns the map of its lifted vertex matrix.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .dyadic import DEFAULT_PREC_CAP, Iv, Ladder, adaptive_sign, iv_adjugate
from .errors import (
    DegenerateSimplex,
    DependentBasis,
    LastCoordinateZero,
    YNotInSimplex,
)
from .exactlinalg import as_fraction, int_inverse, mat_det, mat_solve
from .field import FieldElement, NumberField


def adaptive_vector(x):
    """x as an adaptive vector: a FieldElement's embedding, a rational
    sequence's enclosure, or x itself when it is one already."""
    if callable(x):
        return x
    if isinstance(x, FieldElement):
        return lambda p: x.field.embed_iv(x, p)
    seq = tuple(map(as_fraction, x))
    return lambda p: [Iv.from_fraction(c, p) for c in seq]


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
    vv = adaptive_vector(x)
    cap = x.field.prec_cap if isinstance(x, FieldElement) else DEFAULT_PREC_CAP

    def fn(prec):
        for p in Ladder(cap, "last coordinate sign", zero_possible=True, start=prec):
            ivs = vv(p)
            s = ivs[-1].sign()
            if s == 0:
                raise LastCoordinateZero("projection needs x_n != 0")
            if s is not None:
                return [iv.div(ivs[-1], prec) for iv in ivs[:-1]]

    return fn


def int_map(a, y):
    """A y for an integer matrix A and an interval vector y; exact."""
    return [sum((yk.mul_int(c) for c, yk in zip(row, y) if c), Iv.ZERO) for row in a]


class CramerMap:
    """Cramer's rule on an adaptive interval matrix ``rows_at(prec)``, with
    its adjugate cached per precision: each numerator det(rows with column
    i -> v) is one dot product with a cofactor column.  ``det_sign`` is the
    known sign of det(rows), so a coordinate's sign is its numerator's
    times det_sign."""

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

    def numerators(self, v, prec: int) -> list:
        """det(rows with column i -> v) at prec, for every i."""
        return [sum(map(mul, v, col), Iv.ZERO) for col in zip(*self.adjugate(prec)[0])]

    def solve(self, col_at, cap: int, zero_possible: bool, what: str, a=None) -> tuple:
        """The certified sign of every coordinate of the adaptive vector
        ``col_at`` in the columns; with an integer matrix ``a`` (A of
        C^-1 = A / m, m > 0), of the coordinates mapped by it.  One ladder
        climbs until every numerator sign is certified at one rung; a sign
        missing at the cap raises per ``zero_possible``."""
        for prec in Ladder(cap, f"{what} sign", zero_possible):
            nums = self.numerators(col_at(prec), prec)
            if a is not None:
                nums = int_map(a, nums)
            signs = [num.sign() for num in nums]
            if None not in signs:
                return tuple(s * self.det_sign for s in signs)


def field_map(field: NumberField) -> CramerMap:
    """V^-1, the coordinate map of the power basis 1, t, ..., t^(n-1): row j
    of V is embedding j of every t^k.  One per field and embedding order;
    det V is a Vandermonde determinant, of sign ``field.vandermonde_sign``."""
    if field._power_map is None:
        n = field.degree
        powers = [field.element([int(i == k) for i in range(n)]) for k in range(n)]
        field._power_map = CramerMap(
            lambda prec: [list(row) for row in zip(*(field.embed_iv(b, prec) for b in powers))],
            field.vandermonde_sign)
    return field._power_map


def basis_inverse(basis, field: NumberField):
    """(A, m) with C^-1 = A / m, C the coefficient matrix of a basis of field
    elements: its columns are the basis in power coordinates
    (DependentBasis for a dependent basis)."""
    try:
        return int_inverse([[b.coeffs[i] for b in basis] for i in range(field.degree)])
    except ZeroDivisionError:
        raise DependentBasis("basis elements are Q-linearly dependent")


def coordinates(v, inverse, field: NumberField, zero_possible: bool = True,
                cap: int | None = None) -> tuple:
    """The certified signs of the coordinates A y / m of v in the basis
    whose exact inverse is (A, m) = :func:`basis_inverse`: exact for a field
    element (y its coefficients), else one ladder of the field map up to
    ``cap`` (default the field's cap) for a rational sequence or an
    adaptive vector.  ``zero_possible=False`` rules out a vanishing
    coordinate (e.g. v = e_n), so the cap raises PrecisionCapExceeded
    rather than UndecidableSign."""
    a, _ = inverse
    if isinstance(v, FieldElement):
        nums = (sum(map(mul, row, v.coeffs)) for row in a)
        return tuple((x > 0) - (x < 0) for x in nums)
    return field_map(field).solve(adaptive_vector(v), field.prec_cap if cap is None else cap,
                                  zero_possible, "cone coordinate", a)


def cone_coordinates(v, basis, field: NumberField, zero_possible: bool = True) -> tuple:
    """The certified signs of the c_i in v = sum_i c_i f_i, as
    :func:`coordinates` (DependentBasis for a dependent basis)."""
    return coordinates(v, basis_inverse(basis, field), field, zero_possible)


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
    pv = adaptive_vector(point)
    return lambda prec: list(pv(prec)) + [Iv.ONE]


def barycentric(p, simplex: Simplex, cap: int = DEFAULT_PREC_CAP) -> tuple:
    """The certified signs of the b with sum(b) = 1 and
    sum(b_i * vertex_i) = p."""
    if simplex.exact and isinstance(p, (list, tuple)):
        pt = [Fraction(c) for c in p]
        try:
            b = mat_solve(simplex._lift_exact(), pt + [Fraction(1)])
        except ZeroDivisionError:
            raise DegenerateSimplex("vertices affinely dependent")
        return tuple((x > 0) - (x < 0) for x in b)
    return simplex._map.solve(_lifted(p), cap, True, "barycentric coordinate")


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
    return adaptive_sign(lambda prec: simplex._map.numerators(col_at(prec), prec)[i],
                         cap=cap, zero_possible=True, what="face-span det")


def _pierces(coordinates, x, y, what: str) -> bool:
    """True iff the segment from x to y meets the interior: the coordinates
    of x are > 0 wherever those of y vanish."""
    cy = coordinates(y)
    if any(s < 0 for s in cy):
        raise YNotInSimplex(f"final point outside the closed {what}")
    zero_idx = [i for i, s in enumerate(cy) if s == 0]
    if not zero_idx:
        return True                      # y interior: every segment pierces
    cx = coordinates(x)
    return all(cx[i] > 0 for i in zero_idx)


def pierces_simplex(x, y, simplex: Simplex) -> bool:
    """True iff the segment from x to y in the simplex meets its interior:
    b_i(x) > 0 wherever b_i(y) = 0."""
    return _pierces(lambda p: barycentric(p, simplex), x, y, "simplex")


def pierces_cone(x, y, basis, field: NumberField) -> bool:
    """Cone version: coordinates of x must be > 0 wherever y's vanish."""
    inverse = basis_inverse(basis, field)
    return _pierces(lambda p: coordinates(p, inverse, field), x, y, "cone")
