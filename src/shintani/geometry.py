"""Cone coordinates, returned as their certified signs, which is all that
the cone flags and cone membership read.

Sign decisions follow one rule everywhere: exact rational arithmetic for a
field element, and adaptive interval refinement on the dyadic ladder
otherwise.  A refinement that reaches the cap ends in UndecidableSign, or
in PrecisionCapExceeded for a quantity known to be nonzero; nothing is ever
decided by tolerance.  An adaptive vector is a plain callable
``prec -> list of Iv`` whose enclosures shrink as prec grows
(:func:`adaptive_vector`).

The embedded matrix of a basis of field elements factors as V C, V the
conjugates of the power basis (one per field), C the rational coefficients.
So cone coordinates are C^-1 y: C^-1 = A / m is exact (:func:`basis_inverse`),
y = V^-1 v is the coefficient vector of a field element, and otherwise comes
from the field's one :class:`CramerMap` (:func:`field_map`), whose adjugate is
computed once per precision, each minor once.  The denominators m and det V
have known signs, so a coordinate's sign is that of its numerator.
:func:`coordinates` is the one routine that forms them: the cone flags,
cone membership and :func:`cone_coordinates` all read their signs from it.
"""

from __future__ import annotations

from operator import mul

from .dyadic import Iv, Ladder, iv_adjugate
from .errors import DependentBasis
from .exactlinalg import as_fraction, int_inverse
from .field import FieldElement, NumberField, common_denominator


def adaptive_vector(x):
    """x as an adaptive vector: a FieldElement's embedding, a rational
    sequence's enclosure, or x itself when it is one already."""
    if callable(x):
        return x
    if isinstance(x, FieldElement):
        return lambda p: x.field.embed_iv(x, p)
    seq = tuple(map(as_fraction, x))
    return lambda p: [Iv.from_fraction(c, p) for c in seq]


def int_map(a, y):
    """A y for an integer matrix A and an interval vector y; exact."""
    return [sum((yk.mul_int(c) for c, yk in zip(row, y) if c), Iv.ZERO) for row in a]


class CramerMap:
    """Cramer's rule on an adaptive interval matrix ``rows_at(prec)`` whose
    determinant has the known sign ``det_sign``, with its adjugate cached
    per precision: each numerator det(rows with column i -> v) is one dot
    product with a cofactor column, so a coordinate's sign is its
    numerator's times det_sign."""

    __slots__ = ("_rows_at", "_adj", "det_sign")

    def __init__(self, rows_at, det_sign: int):
        self._rows_at = rows_at
        self._adj: dict[int, tuple] = {}
        self.det_sign = det_sign

    def adjugate(self, prec: int):
        """(cof, det) of the rows at prec, as :func:`iv_adjugate`."""
        adj = self._adj.get(prec)
        if adj is None:
            adj = self._adj[prec] = iv_adjugate(self._rows_at(prec))
        return adj

    def solve(self, col_at, a, cap: int, zero_possible: bool, what: str) -> tuple:
        """The certified signs of A x, x the coordinates of the adaptive
        vector ``col_at`` in the columns and A an integer matrix (the A of
        C^-1 = A / m, m > 0).  One ladder climbs until every numerator sign
        is certified at one rung; a sign missing at the cap raises per
        ``zero_possible``."""
        for prec in Ladder(cap, f"{what} sign", zero_possible):
            v = col_at(prec)
            nums = [sum(map(mul, v, col), Iv.ZERO) for col in zip(*self.adjugate(prec)[0])]
            signs = [num.sign() for num in int_map(a, nums)]
            if None not in signs:
                return tuple(s * self.det_sign for s in signs)


def field_map(field: NumberField) -> CramerMap:
    """V^-1, the coordinate map of the power basis 1, t, ..., t^(n-1): row j
    of V is embedding j of every t^k.  One per field and embedding order;
    det V is a Vandermonde determinant, of sign ``field.vandermonde_sign``."""
    if field._power_map is None:
        n = field.degree
        powers = [FieldElement(field, [int(i == k) for i in range(n)]) for k in range(n)]
        field._power_map = CramerMap(
            lambda prec: [list(row) for row in zip(*(field.embed_iv(b, prec) for b in powers))],
            field.vandermonde_sign)
    return field._power_map


def basis_inverse(basis):
    """(A, m) with C^-1 = A / m, C the coefficient matrix of a basis of field
    elements: its columns are the basis in power coordinates
    (DependentBasis for a dependent basis)."""
    try:
        return int_inverse(*common_denominator(basis))
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
        nums = (sum(map(mul, row, v.num)) for row in a)
        return tuple((x > 0) - (x < 0) for x in nums)
    return field_map(field).solve(adaptive_vector(v), a, field.prec_cap if cap is None else cap,
                                  zero_possible, "cone coordinate")


def cone_coordinates(v, basis, field: NumberField, zero_possible: bool = True) -> tuple:
    """The certified signs of the c_i in v = sum_i c_i f_i, as
    :func:`coordinates` (DependentBasis for a dependent basis)."""
    return coordinates(v, basis_inverse(basis), field, zero_possible)
